/**
 * @file
 * Top-Down cycle accounting buckets (Yasin, ISPASS 2014), in the
 * breakdown the paper uses for Figs. 1 and 2: retire, ifetch,
 * mispred., depend, issue, mem, other.
 */

#ifndef TRRIP_SIM_TOPDOWN_HH
#define TRRIP_SIM_TOPDOWN_HH

namespace trrip {

/** Accumulated cycles per Top-Down bucket. */
struct TopDown
{
    double retire = 0.0;   //!< Useful work.
    double ifetch = 0.0;   //!< Instruction cache miss stalls.
    double mispred = 0.0;  //!< Branch misprediction penalties.
    double depend = 0.0;   //!< Data dependency stalls.
    double issue = 0.0;    //!< Saturated issue queues.
    double mem = 0.0;      //!< Backend data access stalls.
    double other = 0.0;    //!< Everything else (TLB walks, misc).

    /** Sum of the buckets, added left to right in list order. */
    double total() const;

    /** Fraction of total cycles in one bucket; 0 when empty. */
    double
    fraction(double bucket) const
    {
        const double t = total();
        return t > 0.0 ? bucket / t : 0.0;
    }
};

/**
 * Call @p f(name, bucket...) once per Top-Down bucket, with that
 * bucket of each of @p topdowns, in declaration order.
 */
template <typename F, typename... TopDowns>
void
forEachBucket(F &&f, TopDowns &...topdowns)
{
    f("retire", topdowns.retire...);
    f("ifetch", topdowns.ifetch...);
    f("mispred", topdowns.mispred...);
    f("depend", topdowns.depend...);
    f("issue", topdowns.issue...);
    f("mem", topdowns.mem...);
    f("other", topdowns.other...);
}
static_assert(sizeof(TopDown) == 7 * sizeof(double),
              "a TopDown bucket is missing from forEachBucket: list it, "
              "then update this count");

inline double
TopDown::total() const
{
    // 0.0 + x is exactly x for the non-negative buckets, so this is
    // bit-identical to retire + ifetch + ... + other.
    double t = 0.0;
    forEachBucket([&t](const char *, double bucket) { t += bucket; },
                  *this);
    return t;
}

} // namespace trrip

#endif // TRRIP_SIM_TOPDOWN_HH
