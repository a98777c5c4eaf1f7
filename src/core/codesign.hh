/**
 * @file
 * The TRRIP co-design pipeline facade: build a workload once, then run
 * the full compile -> profile -> re-compile -> load -> simulate flow
 * (paper Fig. 4) for any replacement policy and configuration.  This
 * is the public API the examples and benchmark harnesses use.
 */

#ifndef TRRIP_CORE_CODESIGN_HH
#define TRRIP_CORE_CODESIGN_HH

#include <memory>
#include <mutex>
#include <string>

#include "core/policy_registry.hh"
#include "sim/multicore.hh"
#include "workloads/builder.hh"

namespace trrip {

/** One workload, reusable across policies and option variations. */
class CoDesignPipeline
{
  public:
    /** Build the program for @p params (deterministic in the seed). */
    explicit CoDesignPipeline(const WorkloadParams &params) :
        workload_(buildWorkload(params))
    {}

    const SyntheticWorkload &workload() const { return workload_; }

    /** Run the full pipeline with default options. */
    RunArtifacts
    run(const std::string &policy_spec) const
    {
        return run(policy_spec, SimOptions());
    }

    /**
     * Run the full pipeline once for every lane: @p lanes name the L2
     * policies under test ("SRRIP", "TRRIP-2(bits=3)", ...) and their
     * probes; the other levels follow the per-level specs already in
     * options.hier.  One prepare step and one event stream serve
     * every lane (a one-core runBundle()).  The training profile is
     * options.precomputedProfile when set (e.g. from
     * exp::ProfileCache), else this pipeline's own cached one.
     */
    std::vector<RunArtifacts>
    run(const std::vector<LaneSpec> &lanes,
        const SimOptions &options) const
    {
        MultiCoreOptions mo;
        mo.base = options;
        const CoreInput core{
            .workload = &workload_,
            .profile = options.precomputedProfile
                           ? options.precomputedProfile
                           : profile(resolveProfileBudget(options))};
        std::vector<RunArtifacts> out;
        for (MultiCoreResult &lane : runBundle({core}, lanes, mo))
            out.push_back(std::move(lane.cores.front()));
        return out;
    }

    /** The one-lane form: @p policy_spec with no probe. */
    RunArtifacts
    run(const std::string &policy_spec, const SimOptions &options) const
    {
        return std::move(run({{PolicySpec(policy_spec)}}, options).front());
    }

    /**
     * The training profile for @p profile_instructions, collected on
     * first use and shared (never copied) afterwards.  Thread-safe:
     * concurrent callers for the same budget get the same Profile.
     */
    std::shared_ptr<const Profile>
    profile(InstCount profile_instructions) const
    {
        std::lock_guard<std::mutex> lock(profileMutex_);
        if (!cachedProfile_ || cachedBudget_ != profile_instructions) {
            cachedProfile_ = std::make_shared<const Profile>(
                collectProfile(workload_, profile_instructions));
            cachedBudget_ = profile_instructions;
        }
        return cachedProfile_;
    }

    /** Cycle-reduction speedup of @p test over @p base in percent. */
    static double
    speedupPercent(const SimResult &base, const SimResult &test)
    {
        if (test.cycles <= 0.0)
            return 0.0;
        return (base.cycles / test.cycles - 1.0) * 100.0;
    }

    /** Percent reduction of @p test relative to @p base (MPKI etc.). */
    static double
    reductionPercent(double base, double test)
    {
        if (base <= 0.0)
            return 0.0;
        return (1.0 - test / base) * 100.0;
    }

  private:
    SyntheticWorkload workload_;
    mutable std::mutex profileMutex_;
    mutable std::shared_ptr<const Profile> cachedProfile_;
    mutable InstCount cachedBudget_ = 0;
};

} // namespace trrip

#endif // TRRIP_CORE_CODESIGN_HH
