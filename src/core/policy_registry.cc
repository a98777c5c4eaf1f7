#include "core/policy_registry.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "cache/replacement/clip.hh"
#include "cache/replacement/drrip.hh"
#include "cache/replacement/emissary.hh"
#include "cache/replacement/lru.hh"
#include "cache/replacement/random.hh"
#include "cache/replacement/rrip.hh"
#include "cache/replacement/ship.hh"
#include "core/trrip_policy.hh"
#include "util/logging.hh"

namespace trrip {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Classic Levenshtein distance, case-insensitive. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    const auto lower = [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    };
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (lower(a[i - 1]) == lower(b[j - 1]) ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

std::string
joinKeys(const std::vector<ParamSchema> &params)
{
    std::string out;
    for (const auto &p : params) {
        if (!out.empty())
            out += ", ";
        out += p.key;
    }
    return out.empty() ? "<none>" : out;
}

/** Canonical text of one parameter value (ints without a decimal). */
std::string
policyValueString(double value)
{
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 9.2e18) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** A table factory's result: a new @p P built from @p args. */
template <class P, class... Args>
std::unique_ptr<ReplacementPolicy>
build(Args &&...args)
{
    return std::make_unique<P>(std::forward<Args>(args)...);
}

/** Int parameter @p key of @p spec, narrowed to unsigned. */
unsigned
uintParam(const PolicySpec &spec, const char *key)
{
    return static_cast<unsigned>(spec.value(key));
}

} // namespace

// ---------------------------------------------------------- PolicySpec

PolicySpec::PolicySpec(const char *text) :
    PolicySpec(std::string(text))
{}

PolicySpec::PolicySpec(const std::string &text)
{
    *this = PolicyRegistry::instance().parse(text);
}

double
PolicySpec::value(const std::string &key) const
{
    for (const auto &[k, v] : params_)
        if (k == key)
            return v;
    panic("policy '", name_, "' has no parameter '", key, "'");
}

std::string
PolicySpec::canonical() const
{
    if (params_.empty())
        return name_;
    std::string out = name_;
    char sep = '(';
    for (const auto &[k, v] : params_) {
        out += sep;
        out += k + "=" + policyValueString(v);
        sep = ',';
    }
    return out + ")";
}

// ------------------------------------------------------ PolicyRegistry

const PolicyRegistry &
PolicyRegistry::instance()
{
    static const PolicyRegistry registry;
    return registry;
}

std::vector<std::string>
PolicyRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_)
        out.push_back(e.schema.name);
    return out;
}

const PolicyRegistry::Entry *
PolicyRegistry::find(const std::string &name) const
{
    for (const auto &e : entries_)
        if (e.schema.name == name)
            return &e;
    return nullptr;
}

const PolicySchema &
PolicyRegistry::schema(const std::string &name) const
{
    const Entry *entry = find(name);
    if (!entry)
        fatal(unknownPolicyMessage(name));
    return entry->schema;
}

std::string
PolicyRegistry::unknownPolicyMessage(const std::string &name) const
{
    const std::string hint = suggest(name);
    std::string msg = "unknown replacement policy '" + name + "'";
    if (!hint.empty())
        msg += "; did you mean '" + hint + "'?";
    msg += " (registered: ";
    bool first = true;
    for (const auto &e : entries_) {
        if (!first)
            msg += ", ";
        first = false;
        msg += e.schema.name;
    }
    return msg + ")";
}

std::string
PolicyRegistry::suggest(const std::string &name) const
{
    std::string best;
    std::size_t best_dist = name.size();
    for (const auto &e : entries_) {
        const std::size_t d = editDistance(name, e.schema.name);
        if (d < best_dist) {
            best_dist = d;
            best = e.schema.name;
        }
    }
    // Only suggest plausible typos, not arbitrary rewrites.
    const std::size_t budget = std::max<std::size_t>(2, name.size() / 3);
    return best_dist <= budget ? best : std::string();
}

std::string
PolicyRegistry::parseInto(const std::string &text, PolicySpec &out) const
{
    const std::string spec = trim(text);
    if (spec.empty())
        return "empty policy spec";

    const std::string malformed = "malformed policy spec '" + spec + "'";
    std::string name = spec;
    std::string args;
    const std::size_t open = spec.find('(');
    if (open != std::string::npos) {
        if (spec.back() != ')')
            return malformed + ": expected Name or Name(key=value,...)";
        name = trim(spec.substr(0, open));
        args = spec.substr(open + 1, spec.size() - open - 2);
    }
    if (name.empty() ||
        name.find_first_of("(),=") != std::string::npos)
        return malformed + ": expected Name or Name(key=value,...)";

    const Entry *entry = find(name);
    if (!entry)
        return unknownPolicyMessage(name);

    // Every parameter at its default, in schema order; the overrides
    // replace their slot.
    const std::vector<ParamSchema> &params = entry->schema.params;
    out.name_ = name;
    out.params_.clear();
    for (const auto &p : params)
        out.params_.emplace_back(p.key, p.defaultValue);
    std::vector<bool> given(params.size(), false);

    std::istringstream is(args);
    std::string item;
    while (std::getline(is, item, ',')) {
        const std::string arg = trim(item);
        if (arg.empty())
            return malformed + ": empty parameter";
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos)
            return malformed + ": '" + arg + "' is not key=value";
        const std::string key = trim(arg.substr(0, eq));
        const std::string value_text = trim(arg.substr(eq + 1));

        const auto param = std::find_if(
            params.begin(), params.end(),
            [&](const ParamSchema &p) { return p.key == key; });
        if (param == params.end())
            return "policy '" + name + "' has no parameter '" + key +
                   "' (parameters: " + joinKeys(params) + ")";
        const auto slot = static_cast<std::size_t>(param - params.begin());
        if (given[slot])
            return "duplicate parameter '" + key +
                   "' in policy spec '" + spec + "'";
        given[slot] = true;

        char *end = nullptr;
        const double value = std::strtod(value_text.c_str(), &end);
        if (value_text.empty() || !end || *end != '\0' ||
            !std::isfinite(value))
            return "parameter '" + key + "' of policy '" + name +
                   "' has malformed value '" + value_text + "'";
        if (param->type == ParamType::Int &&
            value != std::floor(value))
            return "parameter '" + key + "' of policy '" + name +
                   "' must be an integer (got " + value_text + ")";
        if (value < param->minValue || value > param->maxValue)
            return "parameter '" + key + "' of policy '" + name +
                   "' out of range: " + policyValueString(value) +
                   " not in [" + policyValueString(param->minValue) +
                   ", " + policyValueString(param->maxValue) + "]";
        out.params_[slot].second = value;
    }
    return "";
}

PolicySpec
PolicyRegistry::parse(const std::string &text) const
{
    PolicySpec spec;
    const std::string error = parseInto(text, spec);
    if (!error.empty())
        fatal(error);
    return spec;
}

std::optional<PolicySpec>
PolicyRegistry::tryParse(const std::string &text) const
{
    PolicySpec spec;
    if (!parseInto(text, spec).empty())
        return std::nullopt;
    return spec;
}

std::string
PolicyRegistry::canonicalLabel(const std::string &label) const
{
    const auto spec = tryParse(label);
    return spec ? spec->canonical() : label;
}

std::unique_ptr<ReplacementPolicy>
PolicyRegistry::instantiate(const PolicySpec &spec,
                            const CacheGeometry &geom) const
{
    const Entry *entry = find(spec.name());
    if (!entry)
        fatal(unknownPolicyMessage(spec.name()));
    auto policy = entry->factory(geom, spec);
    policy->label_ = spec.canonical();
    return policy;
}

std::string
PolicyRegistry::helpText() const
{
    std::ostringstream os;
    for (const auto &e : entries_) {
        os << e.schema.name << " -- " << e.schema.doc << "\n";
        for (const auto &p : e.schema.params) {
            os << "    " << p.key << " ("
               << (p.type == ParamType::Int ? "int" : "real")
               << ", default " << policyValueString(p.defaultValue)
               << ", range [" << policyValueString(p.minValue) << ", "
               << policyValueString(p.maxValue) << "]) -- " << p.doc
               << "\n";
        }
    }
    return os.str();
}

// ---------------------------------------------------- the builtin table

PolicyRegistry::PolicyRegistry()
{
    const ParamSchema bits{"bits", ParamType::Int, 2, 1, 8,
                           "RRPV width in bits"};
    const ParamSchema leader_sets{"leader_sets", ParamType::Int, 32, 1,
                                  4096,
                                  "leader sets per dueling constituency"};
    const ParamSchema psel_bits{"psel_bits", ParamType::Int, 10, 1, 16,
                                "policy-selector counter width"};

    entries_ = {
        {{"LRU",
          "Least-recently-used (paper baseline for the L1s and SLC)",
          {}},
         [](const CacheGeometry &g, const PolicySpec &) {
             return build<LruPolicy>(g);
         }},
        {{"Random",
          "Uniformly random victim selection (sanity baseline)",
          // Values travel as doubles; 2^53 caps the exactly
          // representable seeds.
          {{"seed", ParamType::Int, 0xdecafbad, 0, 9007199254740992.0,
            "RNG stream seed"}}},
         [](const CacheGeometry &g, const PolicySpec &s) {
             return build<RandomPolicy>(
                 g, static_cast<std::uint64_t>(s.value("seed")));
         }},
        {{"SRRIP",
          "Static RRIP with hit-priority promotion (Jaleel et al., "
          "ISCA 2010); the paper's normalization baseline",
          {bits}},
         [](const CacheGeometry &g, const PolicySpec &s) {
             return build<SrripPolicy>(g, uintParam(s, "bits"));
         }},
        {{"BRRIP",
          "Bimodal RRIP: distant insertion with 1/throttle exceptions "
          "(thrash resistance)",
          {bits,
           {"throttle", ParamType::Int, 32, 1, 1 << 20,
            "1-in-throttle fills insert at Intermediate"}}},
         [](const CacheGeometry &g, const PolicySpec &s) {
             return build<BrripPolicy>(g, uintParam(s, "bits"),
                                       uintParam(s, "throttle"));
         }},
        {{"DRRIP",
          "Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion",
          {bits, leader_sets, psel_bits,
           {"throttle", ParamType::Int, 32, 1, 1 << 20,
            "BRRIP throttle of the losing constituency"}}},
         [](const CacheGeometry &g, const PolicySpec &s) {
             return build<DrripPolicy>(
                 g, uintParam(s, "bits"), uintParam(s, "leader_sets"),
                 uintParam(s, "psel_bits"), uintParam(s, "throttle"));
         }},
        {{"SHiP",
          "Signature-based Hit Predictor over SRRIP (Wu et al., MICRO "
          "2011), instruction lines only",
          {bits,
           {"shct_bits", ParamType::Int, 18, 4, 24,
            "log2 of signature history counter table entries"}}},
         [](const CacheGeometry &g, const PolicySpec &s) {
             return build<ShipPolicy>(g, uintParam(s, "bits"),
                                      uintParam(s, "shct_bits"));
         }},
        {{"CLIP",
          "Code Line Preservation (Jaleel et al., HPCA 2015): all "
          "instruction lines treated as hot, set-dueled promotion",
          {bits, leader_sets, psel_bits}},
         [](const CacheGeometry &g, const PolicySpec &s) {
             return build<ClipPolicy>(g, uintParam(s, "bits"),
                                      uintParam(s, "leader_sets"),
                                      uintParam(s, "psel_bits"));
         }},
        {{"Emissary",
          "Priority-partitioned LRU preserving starvation-critical "
          "instruction lines (Nagendra et al., ISCA 2023)",
          {{"ways", ParamType::Int, 4, 0, 64,
            "maximum preserved priority ways per set"},
           {"prob", ParamType::Real, 0.5, 0.0, 1.0,
            "probability a starvation hint sets the priority bit"}}},
         [](const CacheGeometry &g, const PolicySpec &s) {
             return build<EmissaryPolicy>(g, uintParam(s, "ways"),
                                          s.value("prob"));
         }},
        {{"TRRIP-1",
          "Temperature-based RRIP, hot-only variant (paper Algorithm 1)",
          {bits}},
         [](const CacheGeometry &g, const PolicySpec &s) {
             return build<TrripPolicy>(g, TrripVariant::V1,
                                       uintParam(s, "bits"));
         }},
        {{"TRRIP-2",
          "Temperature-based RRIP, hot+warm+cold variant (paper "
          "Algorithm 1)",
          {bits}},
         [](const CacheGeometry &g, const PolicySpec &s) {
             return build<TrripPolicy>(g, TrripVariant::V2,
                                       uintParam(s, "bits"));
         }},
    };
}

std::vector<std::string>
evaluatedPolicyNames()
{
    return {"SRRIP", "LRU",  "BRRIP",    "DRRIP",   "SHiP",
            "CLIP",  "Emissary", "TRRIP-1", "TRRIP-2"};
}

} // namespace trrip
