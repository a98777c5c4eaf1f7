/**
 * @file
 * Branch prediction structures of the paper's Table 1 core: a 1K-entry
 * gshare global predictor, 1K-entry BTB, 512-entry indirect BTB,
 * 256-entry loop predictor, and a return address stack, combined in
 * BranchUnit with an 8-cycle mispredict penalty charged by the core.
 */

#ifndef TRRIP_BRANCH_PREDICTORS_HH
#define TRRIP_BRANCH_PREDICTORS_HH

#include <cstdint>
#include <vector>

#include "util/sat_counter.hh"
#include "util/types.hh"

namespace trrip {

/** Static description + dynamic outcome of one executed branch. */
struct BranchInfo
{
    Addr pc = 0;
    Addr target = 0;
    bool taken = false;
    bool conditional = false;
    bool isCall = false;
    bool isReturn = false;
    bool isIndirect = false;
    /**
     * Code temperature of the fetch that carried this branch (from
     * the PTE, stamped by the core); consumed only by the
     * temperature-aware BTB extension.
     */
    Temperature temp = Temperature::None;
};

/** Prediction verdict for one branch. */
struct BranchOutcome
{
    bool mispredicted = false;
    bool btbMiss = false;
};

/** Gshare direction predictor: PC xor global history into 2-bit PHT. */
class GsharePredictor
{
  public:
    explicit GsharePredictor(std::size_t entries = 1024,
                             unsigned history_bits = 10);

    /** Predict direction without modifying any state. */
    bool predict(Addr pc) const;

    /** Update PHT and history with the resolved outcome. */
    void update(Addr pc, bool taken);

    /**
     * predict(pc) immediately followed by update(pc, taken) in one
     * PHT slot access (history is unchanged between the two, so both
     * resolve to the same index).  The resolve path runs this for
     * every conditional branch; state and result are identical to the
     * two separate calls.
     */
    bool predictAndTrain(Addr pc, bool taken);

  private:
    std::size_t index(Addr pc) const;

    /**
     * 2-bit counters packed one per byte (clamped [0, 3], predict
     * taken when > 1) -- equivalent to SatCounter(2, 1) but the whole
     * PHT stays resident in the host L1 cache.
     */
    std::vector<std::uint8_t> pht_;
    std::uint64_t history_ = 0;
    std::uint64_t historyMask_;
};

/** Direct-mapped branch target buffer. */
class Btb
{
  public:
    explicit Btb(std::size_t entries = 1024);

    /** @return true and fill @p target when the PC hits. */
    bool lookup(Addr pc, Addr &target) const;

    /** Install/refresh the mapping pc -> target. */
    void update(Addr pc, Addr target);

    /**
     * lookup() then update() on the one direct-mapped slot both
     * resolve to; @p predicted receives the pre-update target on a
     * hit.  Equivalent to the two separate calls.
     */
    bool lookupAndUpdate(Addr pc, Addr target, Addr &predicted);

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
    };

    std::vector<Entry> table_;
};

/**
 * Set-associative BTB with optional temperature-aware replacement --
 * the paper's section 6 future-work direction ("apply TRRIP to other
 * hardware ... such as the BTB").  With temperature awareness on,
 * entries installed by hot-code branches are preferred victims last:
 * the victim search takes an invalid way, then the LRU non-hot entry,
 * and only evicts a hot entry when the whole set is hot.
 */
class SetAssocBtb
{
  public:
    SetAssocBtb(std::size_t entries = 1024, std::uint32_t ways = 2,
                bool temperature_aware = false);

    /** @return true and fill @p target when the PC hits. */
    bool lookup(Addr pc, Addr &target) const;

    /** Install/refresh pc -> target with the requester temperature. */
    void update(Addr pc, Addr target, Temperature temp);

    /** Fraction of valid entries holding hot-code branches. */
    double hotOccupancy() const;

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
        Temperature temp = Temperature::None;
        std::uint64_t lruStamp = 0;
    };

    std::size_t setIndex(Addr pc) const;

    std::vector<Entry> table_;  //!< sets * ways, set-major.
    std::size_t sets_;
    std::uint32_t ways_;
    bool temperatureAware_;
    std::uint64_t tick_ = 0;
};

/**
 * Loop trip-count predictor: learns branches that are taken a constant
 * number of times before falling through, and overrides gshare once
 * confident.
 */
class LoopPredictor
{
  public:
    explicit LoopPredictor(std::size_t entries = 256);

    /**
     * @return true if the predictor confidently predicts this branch;
     *         the direction is written to @p taken.
     */
    bool predict(Addr pc, bool &taken) const;

    /** Observe the resolved outcome. */
    void update(Addr pc, bool taken);

    /**
     * predict() then update() in one table-slot access (both resolve
     * to the same slot).  @return true when the pre-update entry made
     * a confident prediction, written to @p taken_out.  State and
     * result are identical to the two separate calls.
     */
    bool predictAndTrain(Addr pc, bool taken, bool &taken_out);

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        std::uint32_t tripCount = 0;     //!< Learned taken streak.
        std::uint32_t currentCount = 0;  //!< Taken streak in progress.
        unsigned confidence = 0;
    };

    const Entry *find(Addr pc) const;
    Entry &slot(Addr pc);

    std::vector<Entry> table_;
};

/**
 * Return address stack: bounded depth, dropping the oldest entry on
 * overflow.  Stored as a ring so pushing at full depth is O(1)
 * (overwrite the oldest slot) instead of sliding the whole vector.
 */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(std::size_t depth = 16) :
        depth_(depth), ring_(depth, 0)
    {}

    void push(Addr ret);
    /** Pop a prediction; 0 when empty. */
    Addr pop();

  private:
    std::size_t depth_;
    std::vector<Addr> ring_;
    std::size_t top_ = 0;       //!< Next push slot.
    std::size_t count_ = 0;     //!< Live entries (<= depth).
};

/** Configuration for the combined unit (defaults = paper Table 1). */
struct BranchParams
{
    std::size_t btbEntries = 1024;
    std::size_t indirectBtbEntries = 512;
    std::size_t loopEntries = 256;
    std::size_t globalEntries = 1024;
    unsigned historyBits = 10;
    std::size_t rasDepth = 16;
    /**
     * Section 6 extension: replace the direct-mapped BTB with a
     * 2-way set-associative one whose replacement protects hot-code
     * entries (TRRIP applied to the BTB).
     */
    bool trripBtb = false;
    std::uint32_t btbWays = 2;
};

/** Per-unit prediction statistics. */
struct BranchStats
{
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t btbMisses = 0;

    double
    mpki(InstCount instructions) const
    {
        return instructions == 0 ? 0.0
            : static_cast<double>(mispredicts) * 1000.0 /
                  static_cast<double>(instructions);
    }
};

/**
 * The combined branch prediction unit.  Conditional direction comes
 * from the loop predictor when confident, else gshare; targets come
 * from BTB / indirect BTB / RAS depending on branch class.
 */
class BranchUnit
{
  public:
    explicit BranchUnit(const BranchParams &params = BranchParams());

    /** Predict @p info, then train all structures with the outcome. */
    BranchOutcome predictAndUpdate(const BranchInfo &info);

    /**
     * Query-only estimate of whether this branch would mispredict
     * right now; used by the pseudo-FDIP lookahead, which must not
     * perturb predictor state for un-fetched branches.
     */
    bool wouldMispredict(const BranchInfo &info) const;

    const BranchStats &stats() const { return stats_; }
    const BranchParams &params() const { return params_; }

    /** The temperature-aware BTB, when enabled (test hook). */
    const SetAssocBtb &trripBtb() const { return trripBtb_; }

  private:
    bool predictDirection(const BranchInfo &info) const;
    bool btbLookup(Addr pc, Addr &target) const;

    BranchParams params_;
    GsharePredictor gshare_;
    Btb btb_;
    SetAssocBtb trripBtb_;
    Btb indirectBtb_;
    LoopPredictor loop_;
    ReturnAddressStack ras_;
    BranchStats stats_;
};

} // namespace trrip

#endif // TRRIP_BRANCH_PREDICTORS_HH
