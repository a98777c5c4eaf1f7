/**
 * @file
 * Execution engine: walks a SyntheticWorkload's control structure and
 * emits a deterministic stream of basic-block events (fetch addresses,
 * branch outcomes, data accesses) against a concrete code layout.
 *
 * Branch taken-ness is derived from layout adjacency: a successor laid
 * out immediately after the block is a fall-through (not taken),
 * anything else is taken.  The same workload therefore produces
 * taken-heavy sparse fetch in the non-PGO layout and fall-through
 * dense fetch in the PGO layout, which is exactly the code-layout
 * effect the paper's section 2.3 measures.
 *
 * For speed the constructor compiles the Program + ElfImage into
 * flat executor-local tables: one compact BlockInfo per block (layout
 * address, size and terminator data in one 56-byte record instead of
 * a BasicBlock struct plus separate blockAddr lookup), the data
 * access sites of all blocks in one contiguous array, and all
 * function bodies concatenated into one id/rare-successor pair of
 * arrays.  next() then runs on dense indexed loads with no per-block
 * pointer chasing.  The emitted stream is identical to walking the
 * Program directly.
 */

#ifndef TRRIP_WORKLOADS_EXECUTOR_HH
#define TRRIP_WORKLOADS_EXECUTOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "branch/predictors.hh"
#include "sw/elf_image.hh"
#include "util/rng.hh"
#include "workloads/builder.hh"

namespace trrip {

/** One dynamic data access. */
struct DataAccessEvent
{
    Addr vaddr = 0;
    Addr pc = 0;
    bool isStore = false;
    bool dependent = false; //!< Serially dependent (pointer chase).
};

/**
 * Hard capacity of BBEvent::data.  Events carry their data accesses
 * inline so the hot consume loop never chases a heap pointer; the
 * price is that a block may not emit more than this many accesses per
 * event.  Sources that cannot bound their blocks up front (the trace
 * replayer: real code has unbounded gather/scatter runs) must SPLIT a
 * block into multiple events at this seam rather than drop accesses
 * -- see trace::TraceEventSource and tests/test_trace.cc.
 */
constexpr std::uint32_t kBBEventDataSlots = 12;

/** One executed basic block with its terminator and data accesses. */
struct BBEvent
{
    std::uint32_t bb = 0;
    Addr vaddr = 0;
    std::uint32_t instrs = 0;
    std::uint32_t bytes = 0;
    bool hasBranch = false;
    BranchInfo branch;
    std::uint8_t numData = 0;
    std::array<DataAccessEvent, kBBEventDataSlots> data;
    /** Scratch for the core's FDIP lookahead. */
    bool fdipMispredict = false;
};

/** Executor knobs that differ between training and evaluation runs. */
struct ExecOptions
{
    std::uint64_t seed = 1;
    double handlerZipfSkew = 0.8;
};

/**
 * Batched event producer -- the contract between the execution engine
 * and its consumers (CoreModel, profile collection, tests).
 *
 * The consumer owns a power-of-two ring of BBEvent slots and asks the
 * source to fill @p count consecutive slots starting at ring index
 * @p pos, wrapping with @p mask (slot k of the batch is
 * ring[(pos + k) & mask]).  The source overwrites every live field of
 * each slot; @c fdipMispredict is left false -- it belongs to the
 * consumer (the core's FDIP lookahead scan stamps it when the event
 * enters the run-ahead window, so predictor state is sampled at the
 * same point it would be in an event-at-a-time engine).
 *
 * One virtual call per *batch* (tens of events), never per event:
 * event production stays monomorphic inside the source.  Sources must
 * be pure generators -- their stream may depend only on their own
 * state, never on consumer state -- so producing events ahead of
 * consumption is behavior-preserving.
 */
class BBEventSource
{
  public:
    virtual ~BBEventSource() = default;

    /** Fill @p count slots of the caller-owned ring (see above). */
    virtual void produce(BBEvent *ring, std::uint32_t mask,
                         std::uint32_t pos, std::uint32_t count) = 0;
};

/** Infinite, deterministic event stream over one workload + layout. */
class Executor final : public BBEventSource
{
  public:
    Executor(const SyntheticWorkload &workload, const ElfImage &image,
             const ExecOptions &options);

    /** Produce the next event (the stream never ends). */
    void next(BBEvent &ev);

    /** Batched emission into a caller-owned ring (BBEventSource). */
    void produce(BBEvent *ring, std::uint32_t mask, std::uint32_t pos,
                 std::uint32_t count) override;

    /** Dynamic call-stack depth (test hook). */
    std::size_t stackDepth() const { return depth_; }

  private:
    /**
     * Compact per-block record: everything next() needs in 32 bytes
     * (two per host cache line; the blocks table is the executor's
     * hottest random-access structure).  roleParam is the one
     * role-specific scalar each terminator kind reads: likelyProb for
     * Plain, loopIterMean for LoopEnd, callProb for CallSite.
     */
    struct BlockInfo
    {
        Addr addr = 0;              //!< Layout address of the block.
        double roleParam = 1.0;
        std::uint32_t dataBegin = 0;    //!< Into dataSpecs_.
        std::uint16_t instrs = 0;       //!< Bytes = instrs * 4.
        std::uint16_t loopBodyLen = 0;
        std::uint8_t dataCount = 0;
        BBRole role = BBRole::Plain;
        CalleeClass callee = CalleeClass::Helper;
    };

    /** Compact per-function record over the concatenated body_. */
    struct FuncInfo
    {
        std::uint32_t bodyBegin = 0;    //!< Into body_/rareAfter_.
        std::uint32_t bodyLen = 0;
        bool isDispatcher = false;
    };

    /** One active loop: its LoopEnd position and remaining trips. */
    struct ActiveLoop
    {
        std::uint32_t pos = 0;
        std::uint32_t remaining = 0;
    };

    struct Frame
    {
        std::uint32_t func = 0;
        std::uint32_t pos = 0;
        std::int32_t pendingRare = -1;  //!< Rare block to visit next.
        /** Active loops in this frame (nesting is shallow). */
        std::vector<ActiveLoop> loops;
    };

    void emitData(const BlockInfo &bb, BBEvent &ev);
    std::uint32_t pickCallee(CalleeClass cls);
    /** Fill terminator info given the resolved successor address. */
    void setBranch(BBEvent &ev, Addr target, bool conditional,
                   bool is_call, bool is_return, bool is_indirect);

    /** Push a fresh frame, reusing the pooled slot (and its loops
     *  vector's capacity) above the current depth. */
    void
    pushFrame(std::uint32_t func)
    {
        if (depth_ == stack_.size())
            stack_.emplace_back();
        Frame &fr = stack_[depth_++];
        fr.func = func;
        fr.pos = 0;
        fr.pendingRare = -1;
        fr.loops.clear();
    }

    /** Compact per-region record (no std::string name, locality
     *  window pre-clamped, base address folded in). */
    struct RegionInfo
    {
        std::uint64_t sizeBytes = 0;
        std::uint64_t localityBytes = 0;    //!< min(locality, size).
        double localityFraction = 0.0;
        double dependentFraction = 0.0;
        Addr base = 0;
    };

    /** Layout address of body position @p pos of @p fn. */
    Addr
    bodyAddr(const FuncInfo &fn, std::uint32_t pos) const
    {
        return bodyAddrs_[fn.bodyBegin + pos];
    }

    const SyntheticWorkload &wl_;
    const ElfImage &elf_;
    Rng rng_;
    WeightedSampler handlerSampler_;
    WeightedSampler helperSampler_;

    /** @name Flat execution tables (see file comment) */
    /** @{ */
    std::vector<BlockInfo> blocks_;         //!< By block id.
    std::vector<DataAccessSpec> dataSpecs_; //!< All blocks, flattened.
    std::vector<std::uint32_t> body_;       //!< Concatenated bodies.
    std::vector<Addr> bodyAddrs_;           //!< Parallel to body_.
    std::vector<std::int32_t> rareAfter_;   //!< Parallel to body_.
    std::vector<FuncInfo> funcs_;           //!< By function id.
    std::vector<RegionInfo> regions_;       //!< By region index.
    /** @} */

    /**
     * Call stack as a frame pool: frames above depth_ are dead but
     * keep their loops-vector capacity, so call/return does not
     * allocate in steady state.
     */
    std::vector<Frame> stack_;
    std::size_t depth_ = 0;
    std::vector<std::uint64_t> regionCursor_;
};

} // namespace trrip

#endif // TRRIP_WORKLOADS_EXECUTOR_HH
