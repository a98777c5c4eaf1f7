#include "util/fault.hh"

#include <cstdlib>
#include <mutex>

#include "util/error.hh"
#include "util/hash.hh"
#include "util/parse.hh"

namespace trrip {

namespace {

/**
 * Per-thread injection scope state (see FaultInjector::Scope).  Its
 * default -- no scope -- is key 0 with the thread's own ordinals.
 */
struct ScopeState
{
    bool active = false;
    std::uint64_t key = 0;
    unsigned attempt = 0;
    std::array<std::uint64_t, kNumFaultSites> count{};
};

thread_local ScopeState tlScope;

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::TraceRead: return "trace_read";
      case FaultSite::Build: return "build";
      case FaultSite::Cell: return "cell";
      case FaultSite::SinkWrite: return "sink_write";
      case FaultSite::NumSites: break;
    }
    return "unknown";
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    static std::once_flag once;
    std::call_once(once, [] {
        if (const char *env = std::getenv("TRRIP_FAULT"))
            injector.configure(env);
    });
    return injector;
}

void
FaultInjector::configure(const std::string &spec)
{
    auto malformed = [&](const std::string &why) -> SimError {
        return SimError(ErrorCategory::Internal,
                        "bad TRRIP_FAULT spec '" + spec + "': " + why);
    };

    std::uint64_t seed = 0;
    std::array<SiteRate, kNumFaultSites> rates{};
    bool any = false;

    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string entry = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (entry.empty())
            continue;

        if (entry.rfind("seed=", 0) == 0) {
            const std::string value = entry.substr(5);
            const auto parsed = parseWhole<std::uint64_t>(value);
            if (!parsed)
                throw malformed("bad seed '" + value + "'");
            seed = *parsed;
            continue;
        }

        std::size_t colon = entry.find(':');
        std::size_t slash = entry.find('/', colon == std::string::npos
                                                ? 0 : colon);
        if (colon == std::string::npos || slash == std::string::npos)
            throw malformed("entry '" + entry +
                            "' is not site:num/denom");
        const std::string name = entry.substr(0, colon);
        const std::string numStr = entry.substr(colon + 1,
                                                slash - colon - 1);
        const std::string denomStr = entry.substr(slash + 1);

        FaultSite site = FaultSite::NumSites;
        for (std::size_t s = 0; s < kNumFaultSites; ++s) {
            if (name == faultSiteName(static_cast<FaultSite>(s))) {
                site = static_cast<FaultSite>(s);
                break;
            }
        }
        if (site == FaultSite::NumSites)
            throw malformed("unknown site '" + name + "'");

        const auto num = parseWhole<std::uint32_t>(numStr);
        if (!num)
            throw malformed("bad numerator '" + numStr + "'");
        const auto denom = parseWhole<std::uint32_t>(denomStr);
        if (!denom || *denom == 0)
            throw malformed("bad denominator '" + denomStr + "'");
        if (*num > *denom)
            throw malformed("rate " + numStr + "/" + denomStr + " > 1");

        auto &rate = rates[static_cast<std::size_t>(site)];
        rate.num = *num;
        rate.denom = *denom;
        any = any || rate.num > 0;
    }

    seed_ = seed;
    rates_ = rates;
    resetCounts();
    enabled_.store(any, std::memory_order_relaxed);
}

bool
FaultInjector::shouldFail(FaultSite site)
{
    if (!enabled())
        return false;

    const std::size_t s = static_cast<std::size_t>(site);
    checked_[s].fetch_add(1, std::memory_order_relaxed);
    const SiteRate rate = rates_[s];
    if (rate.num == 0)
        return false;

    // Draw index: (scope key, per-site counter within the scope), so
    // a cell's faults are independent of worker identity and of what
    // else is in flight; an unscoped draw keys on 0.
    const std::uint64_t key =
        tlScope.active
            ? splitMix64(tlScope.key * 0x100000001b3ULL + tlScope.attempt)
            : 0;
    const std::uint64_t ordinal = tlScope.count[s]++;
    std::uint64_t h =
        splitMix64(seed_ ^ splitMix64(key ^ (std::uint64_t(s) << 56)));
    h = splitMix64(h ^ ordinal);

    if (h % rate.denom >= rate.num)
        return false;
    fired_[s].fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
FaultInjector::maybeInject(FaultSite site)
{
    if (shouldFail(site)) {
        throw SimError(ErrorCategory::Injected,
                       std::string("injected fault at site ") +
                           faultSiteName(site));
    }
}

void
FaultInjector::resetCounts()
{
    for (std::size_t s = 0; s < kNumFaultSites; ++s) {
        fired_[s].store(0, std::memory_order_relaxed);
        checked_[s].store(0, std::memory_order_relaxed);
    }
}

std::uint64_t
FaultInjector::firedCount(FaultSite site) const
{
    return fired_[static_cast<std::size_t>(site)]
        .load(std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::checkedCount(FaultSite site) const
{
    return checked_[static_cast<std::size_t>(site)]
        .load(std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::totalFired() const
{
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kNumFaultSites; ++s)
        total += fired_[s].load(std::memory_order_relaxed);
    return total;
}

FaultInjector::Scope::Scope(std::uint64_t key, unsigned attempt)
{
    tlScope = {true, key, attempt, {}};
}

FaultInjector::Scope::~Scope()
{
    tlScope = {};
}

} // namespace trrip
