#include "analysis/belady.hh"

#include <limits>
#include <unordered_map>

namespace trrip {

std::uint64_t
beladyMisses(const std::vector<Addr> &accesses,
             const CacheGeometry &geom)
{
    constexpr std::uint64_t kNever =
        std::numeric_limits<std::uint64_t>::max();

    // next_use[i]: index of the next access to the same line after i.
    std::vector<std::uint64_t> next_use(accesses.size(), kNever);
    std::unordered_map<Addr, std::uint64_t> last_seen;
    for (std::uint64_t i = accesses.size(); i-- > 0;) {
        const Addr line = geom.lineAddr(accesses[i]);
        const auto it = last_seen.find(line);
        next_use[i] = (it == last_seen.end()) ? kNever : it->second;
        last_seen[line] = i;
    }

    struct Way
    {
        Addr line = 0;
        std::uint64_t nextUse = kNever;
        bool valid = false;
    };
    std::vector<std::vector<Way>> sets(geom.numSets(),
                                       std::vector<Way>(geom.assoc));

    std::uint64_t misses = 0;
    for (std::uint64_t i = 0; i < accesses.size(); ++i) {
        const Addr line = geom.lineAddr(accesses[i]);
        auto &set = sets[geom.setIndex(accesses[i])];

        bool hit = false;
        for (Way &w : set) {
            if (w.valid && w.line == line) {
                w.nextUse = next_use[i];
                hit = true;
                break;
            }
        }
        if (hit)
            continue;
        ++misses;

        // The victim: invalid way, else the line re-used farthest away.
        Way *victim = nullptr;
        for (Way &w : set) {
            if (!w.valid) {
                victim = &w;
                break;
            }
        }
        if (!victim) {
            victim = &set[0];
            for (Way &w : set) {
                if (w.nextUse > victim->nextUse)
                    victim = &w;
            }
        }
        victim->valid = true;
        victim->line = line;
        victim->nextUse = next_use[i];
    }
    return misses;
}

} // namespace trrip
