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

} // namespace

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

// ------------------------------------------------------------- schemas

const ParamSchema *
PolicySchema::param(const std::string &key) const
{
    for (const auto &p : params)
        if (p.key == key)
            return &p;
    return nullptr;
}

// ---------------------------------------------------------- PolicySpec

PolicySpec::PolicySpec(const char *text) :
    PolicySpec(std::string(text))
{}

PolicySpec::PolicySpec(const std::string &text)
{
    *this = PolicyRegistry::instance().parse(text);
}

bool
PolicySpec::has(const std::string &key) const
{
    for (const auto &[k, v] : params_) {
        (void)v;
        if (k == key)
            return true;
    }
    return false;
}

std::string
PolicySpec::print() const
{
    if (params_.empty())
        return name_;
    std::string out = name_ + "(";
    bool first = true;
    for (const auto &[k, v] : params_) {
        if (!first)
            out += ",";
        first = false;
        out += k + "=" + policyValueString(v);
    }
    return out + ")";
}

std::string
PolicySpec::canonical() const
{
    return PolicyRegistry::instance().canonical(*this);
}

// ------------------------------------------------------ ResolvedParams

long long
ResolvedParams::integer(const std::string &key) const
{
    const auto it = values_.find(key);
    panic_if(it == values_.end(), "no resolved parameter '", key, "'");
    return static_cast<long long>(it->second);
}

unsigned
ResolvedParams::uinteger(const std::string &key) const
{
    return static_cast<unsigned>(integer(key));
}

double
ResolvedParams::real(const std::string &key) const
{
    const auto it = values_.find(key);
    panic_if(it == values_.end(), "no resolved parameter '", key, "'");
    return it->second;
}

// ------------------------------------------------------ PolicyRegistry

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry registry;
    return registry;
}

void
PolicyRegistry::add(PolicySchema schema, Factory factory)
{
    fatal_if(schema.name.empty(), "policy registration without a name");
    fatal_if(!factory, "policy '", schema.name, "' has no factory");
    fatal_if(byName_.count(schema.name),
             "duplicate policy registration '", schema.name, "'");
    for (const auto &p : schema.params) {
        fatal_if(p.key.empty(), "policy '", schema.name,
                 "': parameter without a key");
        fatal_if(p.minValue > p.maxValue || p.defaultValue < p.minValue ||
                     p.defaultValue > p.maxValue,
                 "policy '", schema.name, "': parameter '", p.key,
                 "' default ", p.defaultValue, " outside bounds [",
                 p.minValue, ", ", p.maxValue, "]");
    }
    byName_[schema.name] = entries_.size();
    entries_.push_back(Entry{std::move(schema), std::move(factory)});
}

bool
PolicyRegistry::known(const std::string &name) const
{
    return byName_.count(name) > 0;
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
    const auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : &entries_[it->second];
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

bool
PolicyRegistry::parseInto(const std::string &text, PolicySpec &out,
                          std::string &error) const
{
    const std::string spec = trim(text);
    if (spec.empty()) {
        error = "empty policy spec";
        return false;
    }

    std::string name = spec;
    std::string args;
    const std::size_t open = spec.find('(');
    if (open != std::string::npos) {
        if (spec.back() != ')') {
            error = "malformed policy spec '" + spec +
                    "': expected Name or Name(key=value,...)";
            return false;
        }
        name = trim(spec.substr(0, open));
        args = spec.substr(open + 1, spec.size() - open - 2);
    }
    if (name.empty() ||
        name.find_first_of("(),=") != std::string::npos) {
        error = "malformed policy spec '" + spec +
                "': expected Name or Name(key=value,...)";
        return false;
    }

    const Entry *entry = find(name);
    if (!entry) {
        error = unknownPolicyMessage(name);
        return false;
    }

    out.name_ = name;
    out.params_.clear();

    std::istringstream is(args);
    std::string item;
    while (std::getline(is, item, ',')) {
        const std::string arg = trim(item);
        if (arg.empty()) {
            error = "malformed policy spec '" + spec +
                    "': empty parameter";
            return false;
        }
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos) {
            error = "malformed policy spec '" + spec + "': '" + arg +
                    "' is not key=value";
            return false;
        }
        const std::string key = trim(arg.substr(0, eq));
        const std::string value_text = trim(arg.substr(eq + 1));

        const ParamSchema *param = entry->schema.param(key);
        if (!param) {
            error = "policy '" + name + "' has no parameter '" + key +
                    "' (parameters: " + joinKeys(entry->schema.params) +
                    ")";
            return false;
        }
        if (out.has(key)) {
            error = "duplicate parameter '" + key +
                    "' in policy spec '" + spec + "'";
            return false;
        }

        char *end = nullptr;
        const double value = std::strtod(value_text.c_str(), &end);
        if (value_text.empty() || !end || *end != '\0' ||
            !std::isfinite(value)) {
            error = "parameter '" + key + "' of policy '" + name +
                    "' has malformed value '" + value_text + "'";
            return false;
        }
        if (param->type == ParamType::Int &&
            value != std::floor(value)) {
            error = "parameter '" + key + "' of policy '" + name +
                    "' must be an integer (got " + value_text + ")";
            return false;
        }
        if (value < param->minValue || value > param->maxValue) {
            error = "parameter '" + key + "' of policy '" + name +
                    "' out of range: " + policyValueString(value) +
                    " not in [" + policyValueString(param->minValue) +
                    ", " + policyValueString(param->maxValue) + "]";
            return false;
        }
        out.params_.emplace_back(key, value);
    }
    std::sort(out.params_.begin(), out.params_.end());
    return true;
}

PolicySpec
PolicyRegistry::parse(const std::string &text) const
{
    PolicySpec spec;
    std::string error;
    if (!parseInto(text, spec, error))
        fatal(error);
    return spec;
}

std::optional<PolicySpec>
PolicyRegistry::tryParse(const std::string &text,
                         std::string *error) const
{
    PolicySpec spec;
    std::string err;
    if (!parseInto(text, spec, err)) {
        if (error)
            *error = err;
        return std::nullopt;
    }
    return spec;
}

std::string
PolicyRegistry::canonical(const PolicySpec &spec) const
{
    const PolicySchema &sch = schema(spec.name());
    if (sch.params.empty())
        return sch.name;
    std::string out = sch.name + "(";
    bool first = true;
    for (const auto &p : sch.params) {
        double value = p.defaultValue;
        for (const auto &[k, v] : spec.params()) {
            if (k == p.key)
                value = v;
        }
        if (!first)
            out += ",";
        first = false;
        out += p.key + "=" + policyValueString(value);
    }
    return out + ")";
}

std::string
PolicyRegistry::canonicalLabel(const std::string &label) const
{
    const auto spec = tryParse(label);
    return spec ? canonical(*spec) : label;
}

std::unique_ptr<ReplacementPolicy>
PolicyRegistry::instantiate(const PolicySpec &spec,
                            const CacheGeometry &geom) const
{
    const Entry *entry = find(spec.name());
    if (!entry)
        schema(spec.name()); // Fatal with the full diagnostic.
    ResolvedParams resolved;
    for (const auto &p : entry->schema.params)
        resolved.values_[p.key] = p.defaultValue;
    for (const auto &[k, v] : spec.params())
        resolved.values_[k] = v;
    auto policy = entry->factory(geom, resolved);
    panic_if(!policy, "policy '", spec.name(),
             "' factory returned null");
    policy->label_ = canonical(spec);
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

// ------------------------------------------------- builtin registration

PolicyRegistry::PolicyRegistry()
{
    const ParamSchema bits{"bits", ParamType::Int, 2, 1, 8,
                           "RRPV width in bits"};

    add({"LRU",
         "Least-recently-used (paper baseline for the L1s and SLC)",
         {}},
        [](const CacheGeometry &g, const ResolvedParams &) {
            return std::make_unique<LruPolicy>(g);
        });

    add({"Random",
         "Uniformly random victim selection (sanity baseline)",
         // Values travel as doubles; 2^53 caps the exactly
         // representable seeds.
         {{"seed", ParamType::Int, 0xdecafbad, 0, 9007199254740992.0,
           "RNG stream seed"}}},
        [](const CacheGeometry &g, const ResolvedParams &p) {
            return std::make_unique<RandomPolicy>(
                g, static_cast<std::uint64_t>(p.integer("seed")));
        });

    add({"SRRIP",
         "Static RRIP with hit-priority promotion (Jaleel et al., "
         "ISCA 2010); the paper's normalization baseline",
         {bits}},
        [](const CacheGeometry &g, const ResolvedParams &p) {
            return std::make_unique<SrripPolicy>(g, p.uinteger("bits"));
        });

    add({"BRRIP",
         "Bimodal RRIP: distant insertion with 1/throttle exceptions "
         "(thrash resistance)",
         {bits,
          {"throttle", ParamType::Int, 32, 1, 1 << 20,
           "1-in-throttle fills insert at Intermediate"}}},
        [](const CacheGeometry &g, const ResolvedParams &p) {
            return std::make_unique<BrripPolicy>(
                g, p.uinteger("bits"), p.uinteger("throttle"));
        });

    add({"DRRIP",
         "Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion",
         {bits,
          {"leader_sets", ParamType::Int, 32, 1, 4096,
           "leader sets per dueling constituency"},
          {"psel_bits", ParamType::Int, 10, 1, 16,
           "policy-selector counter width"},
          {"throttle", ParamType::Int, 32, 1, 1 << 20,
           "BRRIP throttle of the losing constituency"}}},
        [](const CacheGeometry &g, const ResolvedParams &p) {
            return std::make_unique<DrripPolicy>(
                g, p.uinteger("bits"), p.uinteger("leader_sets"),
                p.uinteger("psel_bits"), p.uinteger("throttle"));
        });

    add({"SHiP",
         "Signature-based Hit Predictor over SRRIP (Wu et al., MICRO "
         "2011), instruction lines only",
         {bits,
          {"shct_bits", ParamType::Int, 18, 4, 24,
           "log2 of signature history counter table entries"}}},
        [](const CacheGeometry &g, const ResolvedParams &p) {
            return std::make_unique<ShipPolicy>(
                g, p.uinteger("bits"), p.uinteger("shct_bits"));
        });

    add({"CLIP",
         "Code Line Preservation (Jaleel et al., HPCA 2015): all "
         "instruction lines treated as hot, set-dueled promotion",
         {bits,
          {"leader_sets", ParamType::Int, 32, 1, 4096,
           "leader sets per dueling constituency"},
          {"psel_bits", ParamType::Int, 10, 1, 16,
           "policy-selector counter width"}}},
        [](const CacheGeometry &g, const ResolvedParams &p) {
            return std::make_unique<ClipPolicy>(
                g, p.uinteger("bits"), p.uinteger("leader_sets"),
                p.uinteger("psel_bits"));
        });

    add({"Emissary",
         "Priority-partitioned LRU preserving starvation-critical "
         "instruction lines (Nagendra et al., ISCA 2023)",
         {{"ways", ParamType::Int, 4, 0, 64,
           "maximum preserved priority ways per set"},
          {"prob", ParamType::Real, 0.5, 0.0, 1.0,
           "probability a starvation hint sets the priority bit"}}},
        [](const CacheGeometry &g, const ResolvedParams &p) {
            return std::make_unique<EmissaryPolicy>(
                g, p.uinteger("ways"), p.real("prob"));
        });

    add({"TRRIP-1",
         "Temperature-based RRIP, hot-only variant (paper Algorithm 1)",
         {bits}},
        [](const CacheGeometry &g, const ResolvedParams &p) {
            return std::make_unique<TrripPolicy>(
                g, TrripVariant::V1, p.uinteger("bits"));
        });

    add({"TRRIP-2",
         "Temperature-based RRIP, hot+warm+cold variant (paper "
         "Algorithm 1)",
         {bits}},
        [](const CacheGeometry &g, const ResolvedParams &p) {
            return std::make_unique<TrripPolicy>(
                g, TrripVariant::V2, p.uinteger("bits"));
        });
}

std::vector<std::string>
evaluatedPolicyNames()
{
    return {"SRRIP", "LRU",  "BRRIP",    "DRRIP",   "SHiP",
            "CLIP",  "Emissary", "TRRIP-1", "TRRIP-2"};
}

} // namespace trrip
