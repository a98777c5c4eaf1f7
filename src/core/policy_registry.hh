/**
 * @file
 * The replacement-policy registry and the policy-spec string grammar.
 *
 * The registry is a fixed table of the ten built-in mechanisms of the
 * paper's evaluation (section 4.3): each row is a name, a doc line, a
 * typed parameter schema (name, type, default, bounds) and a factory.
 * Policies are instantiated from *spec strings*:
 *
 *     spec   := name [ '(' key '=' value (',' key '=' value)* ')' ]
 *     name   := "SRRIP" | "TRRIP-2" | ...        (registered names)
 *     value  := integer | real
 *
 * e.g. "SRRIP", "SRRIP(bits=3)", "DRRIP(psel_bits=10,throttle=32)".
 * Parsing validates names, keys and ranges against the schema and
 * fails with messages that list what *is* valid (including a
 * nearest-name suggestion for typos).  A parsed spec holds the value
 * of every schema parameter, defaults included, so canonical() spells
 * out every parameter and is the round-trip form:
 * parse(spec.canonical()) == spec.  canonical() is also the one
 * spelling of a policy's label: instantiate() stores it on the
 * instance it builds (ReplacementPolicy::describe()), so sink labels
 * never under-report the configuration.
 *
 * A built-in is added in three places: a PolicyKind
 * (cache/replacement/policy.hh), its case in the cache's dispatch
 * switch (Cache::dispatch, cache/cache.hh) and its row in the table
 * (policy_registry.cc).
 */

#ifndef TRRIP_CORE_POLICY_REGISTRY_HH
#define TRRIP_CORE_POLICY_REGISTRY_HH

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/geometry.hh"
#include "cache/replacement/policy.hh"

namespace trrip {

/** Type of one policy parameter. */
enum class ParamType { Int, Real };

/** Schema of one parameter: key, type, default and inclusive bounds. */
struct ParamSchema
{
    std::string key;
    ParamType type = ParamType::Int;
    double defaultValue = 0.0;
    double minValue = 0.0;
    double maxValue = 0.0;
    std::string doc;
};

/** Registered identity of one policy: name, doc line, parameters. */
struct PolicySchema
{
    std::string name;
    std::string doc;
    std::vector<ParamSchema> params;
};

/**
 * A parsed policy spec: a registered policy name plus the value of
 * every parameter of its schema, in schema order, defaults filled in.
 * Implicitly constructible from a spec string, so option structs can
 * be assigned plain strings: opts.hier.l1iPolicy = "TRRIP-1(bits=3)".
 * Construction is fatal on malformed specs, unknown names/keys and
 * out-of-range values.  Two spellings of one configuration ("SRRIP",
 * "SRRIP(bits=2)") parse to equal specs.
 */
class PolicySpec
{
  public:
    PolicySpec() = default;
    PolicySpec(const char *text);
    PolicySpec(const std::string &text);

    const std::string &name() const { return name_; }

    /** Value of parameter @p key; panics when the schema has none. */
    double value(const std::string &key) const;

    /**
     * "Name(key=value,...)" with every parameter in schema order, or
     * "Name" for a policy without parameters.
     */
    std::string canonical() const;

    bool operator==(const PolicySpec &other) const = default;

  private:
    friend class PolicyRegistry;

    std::string name_;
    std::vector<std::pair<std::string, double>> params_;
};

/** The fixed table of built-in policies. */
class PolicyRegistry
{
  public:
    /** The one registry. */
    static const PolicyRegistry &instance();

    /** Registered names, in table order. */
    std::vector<std::string> names() const;
    /** Schema of @p name; fatal (with suggestions) when unknown. */
    const PolicySchema &schema(const std::string &name) const;

    /**
     * Parse a spec string; fatal with a message listing the registered
     * names (unknown policy), the policy's parameter keys (unknown
     * key), or the violated bounds (out-of-range value).
     */
    PolicySpec parse(const std::string &text) const;
    /** Non-fatal parse: nullopt where parse() would be fatal. */
    std::optional<PolicySpec> tryParse(const std::string &text) const;

    /**
     * Best-effort canonical label for machine-readable sinks: the
     * fully resolved spec when @p label parses, @p label verbatim
     * otherwise (free-form axes, e.g. the McPAT table rows).
     */
    std::string canonicalLabel(const std::string &label) const;

    /**
     * Instantiate @p spec for @p geom, labeled @p spec.canonical()
     * (the instance's describe()).  PolicySpec converts implicitly
     * from spec strings, so instantiate("SRRIP(bits=3)", geom) parses
     * and constructs in one call.
     */
    std::unique_ptr<ReplacementPolicy>
    instantiate(const PolicySpec &spec, const CacheGeometry &geom) const;

    /** Human-readable listing: every policy, doc line and parameters. */
    std::string helpText() const;

  private:
    PolicyRegistry();

    using Factory = std::unique_ptr<ReplacementPolicy> (*)(
        const CacheGeometry &, const PolicySpec &);

    struct Entry
    {
        PolicySchema schema;
        Factory factory;
    };

    const Entry *find(const std::string &name) const;
    /** Parse @p text into @p out; the error message, "" on success. */
    std::string parseInto(const std::string &text, PolicySpec &out) const;
    /** Nearest registered name to @p name, or "" if nothing is close. */
    std::string suggest(const std::string &name) const;
    /** "unknown replacement policy ..." with hint + registered list. */
    std::string unknownPolicyMessage(const std::string &name) const;

    std::vector<Entry> entries_;    //!< Table order.
};

/** The paper's Fig. 6 mechanism list (normalization baseline first). */
std::vector<std::string> evaluatedPolicyNames();

} // namespace trrip

#endif // TRRIP_CORE_POLICY_REGISTRY_HH
