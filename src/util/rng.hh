/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Every stochastic decision in the repository flows through Rng so that
 * a (workload, seed) pair always produces the identical instruction and
 * data stream regardless of which replacement policy is under test.
 */

#ifndef TRRIP_UTIL_RNG_HH
#define TRRIP_UTIL_RNG_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/hash.hh"
#include "util/logging.hh"

namespace trrip {

/**
 * xoshiro256** generator seeded via SplitMix64.  Small, fast, and fully
 * reproducible across platforms (no libstdc++ distribution dependence).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = kSplitMix64Gamma)
    {
        // SplitMix64 seeding as recommended by the xoshiro authors.
        std::uint64_t x = seed;
        for (auto &word : state_)
            word = splitMix64Next(x);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below(0)");
        // Multiply-shift bounded generation (Lemire); slight modulo bias
        // is irrelevant for workload synthesis.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        panic_if(hi < lo, "Rng::range: hi < lo");
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Zipf weights over [0, n): item i weighs 1 / (i + 1)^s, for a
 * WeightedSampler.  Used to pick interpreter handlers / UI callbacks:
 * a few functions dominate, with a long tail -- the access mix that
 * gives hot code its high L2 reuse distance (paper section 2.4).
 * @param s Skew exponent (s = 0 is uniform; ~0.8-1.2 is typical).
 */
inline std::vector<double>
zipfWeights(std::size_t n, double s)
{
    std::vector<double> w(n);
    for (std::size_t i = 0; i < n; ++i)
        w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    return w;
}

/** CDF-based sampler over arbitrary non-negative weights. */
class WeightedSampler
{
  public:
    explicit WeightedSampler(const std::vector<double> &weights)
        : cdf_(weights.size())
    {
        panic_if(weights.empty(), "WeightedSampler over empty domain");
        double sum = 0.0;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            panic_if(weights[i] < 0.0, "negative sampling weight");
            sum += weights[i];
            cdf_[i] = sum;
        }
        panic_if(sum <= 0.0, "WeightedSampler needs positive mass");
        for (auto &v : cdf_)
            v /= sum;
    }

    /** Draw an index in [0, n). */
    std::size_t
    sample(Rng &rng) const
    {
        const double u = rng.uniform();
        std::size_t lo = 0, hi = cdf_.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace trrip

#endif // TRRIP_UTIL_RNG_HH
