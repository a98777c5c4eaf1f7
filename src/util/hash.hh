/**
 * @file
 * The repository's one SplitMix64 implementation.
 *
 * SplitMix64 (Steele/Lea/Flood via Vigna) serves two distinct roles
 * here and must be bit-identical across them, because both sit
 * underneath byte-reproducible outputs:
 *
 *  - Rng seeding (util/rng.hh): the xoshiro256** state words are the
 *    first four SplitMix64 outputs of the seed, as recommended by the
 *    xoshiro authors.  Every golden fingerprint depends on this
 *    expansion.
 *  - Deterministic fault draws (util/fault.cc): the TRRIP_FAULT
 *    injection harness hashes (site, scope key, ordinal) through the
 *    finalizer so a fault schedule is a pure function of the spec.
 */

#ifndef TRRIP_UTIL_HASH_HH
#define TRRIP_UTIL_HASH_HH

#include <cstdint>

namespace trrip {

/** The SplitMix64 increment (golden-ratio gamma). */
constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;

/**
 * One SplitMix64 step as a pure function: advance @p x by gamma and
 * return the full-avalanche mix.  This is exactly the generator's
 * next() on a state equal to @p x, so it doubles as the stateless
 * finalizer for hashing (any 64-bit input, fully avalanched output).
 */
constexpr std::uint64_t
splitMix64(std::uint64_t x)
{
    x += kSplitMix64Gamma;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The stateful generator form: advance @p state and return the next
 * output.  splitMix64Next(s) == splitMix64(old s) with s advanced by
 * gamma -- the seeding-loop idiom of the xoshiro authors.
 */
constexpr std::uint64_t
splitMix64Next(std::uint64_t &state)
{
    const std::uint64_t out = splitMix64(state);
    state += kSplitMix64Gamma;
    return out;
}

} // namespace trrip

#endif // TRRIP_UTIL_HASH_HH
