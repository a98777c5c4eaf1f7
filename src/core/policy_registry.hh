/**
 * @file
 * Self-registering replacement-policy registry and the policy-spec
 * string grammar.
 *
 * Every replacement mechanism of the paper's evaluation (section 4.3)
 * registers itself under a name together with a doc line and a typed
 * parameter schema (name, type, default, bounds).  Policies are then
 * instantiated from *spec strings*:
 *
 *     spec   := name [ '(' key '=' value (',' key '=' value)* ')' ]
 *     name   := "SRRIP" | "TRRIP-2" | ...        (registered names)
 *     value  := integer | real
 *
 * e.g. "SRRIP", "SRRIP(bits=3)", "DRRIP(psel_bits=10,throttle=32)".
 * Parsing validates names, keys and ranges against the schema and
 * fails with messages that list what *is* valid (including a
 * nearest-name suggestion for typos).  Specs round-trip:
 * parse(spec.print()) == spec, and canonical() spells out every
 * parameter so sink labels never under-report the configuration.
 * canonical() is the one spelling of a policy's label: instantiate()
 * stores it on the instance it builds (ReplacementPolicy::describe()).
 */

#ifndef TRRIP_CORE_POLICY_REGISTRY_HH
#define TRRIP_CORE_POLICY_REGISTRY_HH

#include <functional>
#include <map>
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

    /** Schema of @p key, or nullptr if the policy has no such knob. */
    const ParamSchema *param(const std::string &key) const;
};

/**
 * A parsed policy spec: a registered policy name plus the explicitly
 * given parameter overrides (validated, key-sorted).  Implicitly
 * constructible from a spec string, so option structs can be assigned
 * plain strings: opts.hier.l1iPolicy = "TRRIP-1(bits=3)".
 * Construction is fatal on malformed specs, unknown names/keys and
 * out-of-range values.
 */
class PolicySpec
{
  public:
    PolicySpec() = default;
    PolicySpec(const char *text);
    PolicySpec(const std::string &text);

    const std::string &name() const { return name_; }
    /** Explicit overrides only, sorted by key. */
    const std::vector<std::pair<std::string, double>> &
    params() const
    {
        return params_;
    }

    bool has(const std::string &key) const;

    /** Minimal round-trippable form: name + explicit overrides only. */
    std::string print() const;
    /** Fully resolved form with every schema parameter spelled out. */
    std::string canonical() const;

    bool operator==(const PolicySpec &other) const = default;

  private:
    friend class PolicyRegistry;

    std::string name_;
    std::vector<std::pair<std::string, double>> params_;
};

/** Fully resolved (defaults applied) parameter values of one spec. */
class ResolvedParams
{
  public:
    /** Value of an Int parameter. */
    long long integer(const std::string &key) const;
    /** Value of an Int parameter, narrowed to unsigned. */
    unsigned uinteger(const std::string &key) const;
    /** Value of a Real parameter. */
    double real(const std::string &key) const;

  private:
    friend class PolicyRegistry;
    std::map<std::string, double> values_;
};

/**
 * The process-wide policy registry.  Built-in policies register on
 * first use; a policy added with add() becomes available to every
 * spec consumer -- per-level hierarchy assignment, the experiment
 * layer's policy axis, and the bench binaries -- with no further
 * plumbing.
 */
class PolicyRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<ReplacementPolicy>(
        const CacheGeometry &, const ResolvedParams &)>;

    /** The singleton, with the built-in policies registered. */
    static PolicyRegistry &instance();

    /** Register a policy; fatal on duplicate or malformed schema. */
    void add(PolicySchema schema, Factory factory);

    bool known(const std::string &name) const;
    /** Registered names, in registration order. */
    std::vector<std::string> names() const;
    /** Schema of @p name; fatal (with suggestions) when unknown. */
    const PolicySchema &schema(const std::string &name) const;

    /**
     * Parse a spec string; fatal with a message listing the registered
     * names (unknown policy), the policy's parameter keys (unknown
     * key), or the violated bounds (out-of-range value).
     */
    PolicySpec parse(const std::string &text) const;
    /** Non-fatal parse; on failure returns nullopt and sets @p error. */
    std::optional<PolicySpec> tryParse(const std::string &text,
                                       std::string *error = nullptr) const;

    /** Fully resolved form of @p spec (every parameter spelled out). */
    std::string canonical(const PolicySpec &spec) const;

    /**
     * Best-effort canonical label for machine-readable sinks: the
     * fully resolved spec when @p label parses, @p label verbatim
     * otherwise (free-form axes, e.g. the McPAT table rows).
     */
    std::string canonicalLabel(const std::string &label) const;

    /**
     * Instantiate @p spec for @p geom, labeled canonical(@p spec) (the
     * instance's describe()).  PolicySpec converts implicitly from
     * spec strings, so instantiate("SRRIP(bits=3)", geom) parses and
     * constructs in one call.
     */
    std::unique_ptr<ReplacementPolicy>
    instantiate(const PolicySpec &spec, const CacheGeometry &geom) const;

    /** Nearest registered name to @p name, or "" if nothing is close. */
    std::string suggest(const std::string &name) const;

    /** Human-readable listing: every policy, doc line and parameters. */
    std::string helpText() const;

  private:
    PolicyRegistry();

    struct Entry
    {
        PolicySchema schema;
        Factory factory;
    };

    const Entry *find(const std::string &name) const;
    bool parseInto(const std::string &text, PolicySpec &out,
                   std::string &error) const;
    /** "unknown replacement policy ..." with hint + registered list. */
    std::string unknownPolicyMessage(const std::string &name) const;

    std::vector<Entry> entries_;                 //!< Registration order.
    std::map<std::string, std::size_t> byName_;
};

/** Canonical text of one parameter value (ints without a decimal). */
std::string policyValueString(double value);

/** The paper's Fig. 6 mechanism list (normalization baseline first). */
std::vector<std::string> evaluatedPolicyNames();

} // namespace trrip

#endif // TRRIP_CORE_POLICY_REGISTRY_HH
