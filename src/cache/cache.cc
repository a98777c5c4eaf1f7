#include "cache/cache.hh"

#include <bit>
#include <utility>

namespace trrip {

Cache::Cache(const CacheGeometry &geom,
             std::unique_ptr<ReplacementPolicy> policy) :
    geom_(geom), assoc_(geom.assoc), policy_(std::move(policy)),
    tags_(static_cast<std::size_t>(geom.numSets()) * geom.assoc, 0),
    meta_(tags_.size(), 0),
    freeWays_(geom.numSets(), geom.assoc)
{
    geom_.check();
    panic_if(!policy_, geom_.name, ": null replacement policy");
    kind_ = policy_->kind();
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(geom_.lineBytes)));
    setMask_ = geom_.numSets() - 1;
    tagShift_ = lineShift_ + static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(geom_.numSets())));
}

Cache::Cache(const CacheGeometry &geom, const PolicySpec &policy) :
    Cache(geom, PolicyRegistry::instance().instantiate(policy, geom))
{
}

Cache::Probe
Cache::accessProbeSwitch(const MemRequest &req,
                         bool mark_dirty_on_write_hit)
{
    return accessProbeInline(req, mark_dirty_on_write_hit);
}

bool
Cache::accessInvalidateSwitch(const MemRequest &req)
{
    return dispatch([&](auto &pol) __attribute__((always_inline)) {
        return accessInvalidateWith(pol, req);
    });
}

CacheLine
Cache::fillSwitch(const MemRequest &req, std::uint8_t extra_meta,
                  std::uint32_t owner_bits)
{
    return fillInline(req, extra_meta, owner_bits);
}

CacheLine
Cache::peek(Addr paddr) const
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return CacheLine{};
    return lineAt(set, static_cast<std::uint32_t>(way));
}

CacheLine
Cache::lineAt(std::uint32_t set, std::uint32_t way) const
{
    const std::size_t idx = static_cast<std::size_t>(set) * assoc_ + way;
    CacheLine line;
    line.valid = (tags_[idx] & 1) != 0;
    line.addr = ((tags_[idx] >> 1) << tagShift_) |
                (static_cast<Addr>(set) << lineShift_);
    line.meta = meta_[idx];
    if (!owners_.empty())
        line.owner = owners_[idx];
    return line;
}

void
Cache::markDirty(Addr paddr)
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way >= 0)
        meta_[static_cast<std::size_t>(set) * assoc_ +
              static_cast<std::uint32_t>(way)] |= kLineMetaDirty;
}

void
Cache::markPriority(Addr paddr)
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return;
    dispatch([&](auto &pol) {
        pol.onPriorityHint(set, static_cast<std::uint32_t>(way));
    });
}

CacheLine
Cache::invalidate(Addr paddr)
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return CacheLine{};
    const std::size_t idx = static_cast<std::size_t>(set) * assoc_ +
                            static_cast<std::uint32_t>(way);
    CacheLine v;
    v.valid = true;
    v.addr = ((tags_[idx] >> 1) << tagShift_) |
             (static_cast<Addr>(set) << lineShift_);
    v.meta = meta_[idx];
    tags_[idx] = 0;
    meta_[idx] = 0;
    if (!owners_.empty()) {
        v.owner = owners_[idx];
        owners_[idx] = 0;
    }
    ++freeWays_[set];
    ++stats_.invalidations;
    return v;
}

void
Cache::enableOwnerMasks()
{
    if (owners_.empty())
        owners_.assign(tags_.size(), 0);
}

bool
Cache::stampOwner(Addr paddr, std::uint32_t bits)
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return false;
    orOwner(set, static_cast<std::uint32_t>(way), bits);
    return true;
}

bool
Cache::releaseOwner(Addr paddr, std::uint32_t bits, bool dirty)
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return false;
    const std::size_t idx = static_cast<std::size_t>(set) * assoc_ +
                            static_cast<std::uint32_t>(way);
    if (!owners_.empty())
        owners_[idx] &= ~bits;
    if (dirty)
        meta_[idx] |= kLineMetaDirty;
    return true;
}

std::uint32_t
Cache::ownerOf(Addr paddr) const
{
    if (owners_.empty())
        return 0;
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return 0;
    return owners_[static_cast<std::size_t>(set) * assoc_ +
                   static_cast<std::uint32_t>(way)];
}

std::uint64_t
Cache::residentLines() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t word : tags_)
        n += word & 1;
    return n;
}

} // namespace trrip
