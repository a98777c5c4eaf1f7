/**
 * @file
 * Trace replay pipeline: the prepare step of trace-driven workloads
 * and the runWorkload() sibling that replays one, plus the
 * `trace:<path>` workload-name scheme the experiment layer resolves.
 *
 * A TraceIndex is the trace's analogue of (Program, training
 * Profile): one streaming pre-pass over the trace reconstructs every
 * block, counts its executions, and builds a pseudo-Program (one
 * single-block function per discovered block) so the unchanged
 * temperature classifier -- paper Eqs. 1-2 -- works on traces.  The
 * index depends only on the file, never on the policy or cache
 * configuration under test, so exp::ProfileCache shares one index
 * across a whole grid.
 *
 * prepareTrace() then mirrors the numbered Fig. 4 flow: classify
 * block temperatures from the index profile and stamp PTE attribute
 * bits for every touched code page (sparse-safe: pages are enumerated
 * from the blocks, not from the address-space span).  runBundle()
 * (sim/multicore.hh) replays a trace core through a fresh
 * TraceEventSource -- one reader for every policy lane.  Replay is
 * bit-deterministic: the same file and options produce the identical
 * SimResult on any thread.
 */

#ifndef TRRIP_TRACE_REPLAY_HH
#define TRRIP_TRACE_REPLAY_HH

#include <memory>
#include <string>

#include "sim/simulator.hh"
#include "trace/source.hh"

namespace trrip::trace {

/** Workload-axis prefix naming a trace file instead of a proxy. */
constexpr const char *kTracePrefix = "trace:";

/** True when @p name is a `trace:<path>` workload label. */
bool isTraceName(const std::string &name);

/** The file path of a `trace:<path>` label (empty if not one). */
std::string tracePathOf(const std::string &name);

/** Everything one pre-pass over a trace learns (policy-independent). */
struct TraceIndex
{
    std::string path;
    std::vector<TraceBlockInfo> blocks;   //!< By block id.
    /** Block execution counts over exactly one pass of the trace. */
    Profile profile;
    /** Pseudo-program for the classifier: block id i is the only
     *  block of function i (FuncKind::Handler, so nothing is exempt
     *  from classification the way External code is). */
    Program program;
    InstCount passInstructions = 0;       //!< Instrs per trace lap.
    std::uint64_t recordCount = 0;
};

/**
 * Stream the trace once and build its index.  Throws
 * SimError(TraceCorrupt) on a missing, corrupt or empty file -- a
 * contained per-cell failure the experiment layer's OnError policy
 * handles.
 */
TraceIndex buildTraceIndex(const std::string &path);

/**
 * The software half of a trace replay: artifacts plus the page table
 * the attribute bits were stamped into, and the (possibly shared)
 * index the replay runs from -- the trace analogue of
 * WorkloadRuntime / prepareWorkload().  Policy-independent: apply the
 * L2 policy spec to @p options before the engine is built, not here.
 */
struct TraceRuntime
{
    RunArtifacts art;
    std::shared_ptr<const TraceIndex> index;
    std::unique_ptr<PageTable> pageTable;
};

/**
 * Steps (2)-(8) for a trace: adopt or build the index, classify,
 * model the image, stamp PTE bits.  runBundle() sets up every trace
 * core with it.
 */
TraceRuntime prepareTrace(const std::string &path,
                          const SimOptions &options,
                          std::shared_ptr<const TraceIndex> index = {});

/**
 * Replay @p path against @p policy_spec: a one-core, one-lane
 * runBundle() (sim/multicore.hh) with no probe.  @p index may be shared
 * across calls (exp::ProfileCache); pass nullptr to build a private
 * one.  SimOptions fields that describe proxy synthesis (layout
 * options, profile budget) are ignored: the trace IS the program.
 */
RunArtifacts runTrace(const std::string &path,
                      const std::string &policy_spec,
                      const SimOptions &options,
                      std::shared_ptr<const TraceIndex> index = {});

} // namespace trrip::trace

#endif // TRRIP_TRACE_REPLAY_HH
