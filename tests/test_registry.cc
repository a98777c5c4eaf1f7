/**
 * @file
 * Tests for the PolicyRegistry and the policy-spec grammar: resolved
 * values and the canonical() round trip for every registered policy,
 * schema completeness, error diagnostics (unknown policy with
 * nearest-match suggestion, unknown key, out-of-range and malformed
 * values), per-level policy assignment, and byte-identical BENCH
 * output between a bare policy name and its fully spelled-out spec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cache/hierarchy.hh"
#include "core/policy_registry.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "sim/simulator.hh"
#include "workloads/builder.hh"
#include "workloads/proxies.hh"

namespace trrip {
namespace {

const PolicyRegistry &
reg()
{
    return PolicyRegistry::instance();
}

CacheGeometry
geom()
{
    return CacheGeometry{"t", 8 * 1024, 4, 64};
}

// ------------------------------ grammar -----------------------------

TEST(PolicySpecGrammar, BareNameParses)
{
    const PolicySpec spec("SRRIP");
    EXPECT_EQ(spec.name(), "SRRIP");
    EXPECT_EQ(spec.value("bits"), 2);
    EXPECT_EQ(spec.canonical(), "SRRIP(bits=2)");
    EXPECT_EQ(spec, PolicySpec("SRRIP(bits=2)"));
    EXPECT_NE(spec, PolicySpec("SRRIP(bits=3)"));
}

TEST(PolicySpecGrammar, ParameterizedSpecParses)
{
    const PolicySpec spec("DRRIP(psel_bits=8, throttle=64)");
    EXPECT_EQ(spec.name(), "DRRIP");
    // Overrides and defaults alike hold their resolved value.
    EXPECT_EQ(spec.value("bits"), 2);
    EXPECT_EQ(spec.value("leader_sets"), 32);
    EXPECT_EQ(spec.value("psel_bits"), 8);
    EXPECT_EQ(spec.value("throttle"), 64);
    EXPECT_EQ(spec.canonical(),
              "DRRIP(bits=2,leader_sets=32,psel_bits=8,throttle=64)");
}

TEST(PolicySpecGrammar, WhitespaceAndEmptyParensTolerated)
{
    EXPECT_EQ(PolicySpec("  TRRIP-2 ( bits = 3 ) ").canonical(),
              "TRRIP-2(bits=3)");
    EXPECT_EQ(PolicySpec("LRU()").canonical(), "LRU");
    EXPECT_EQ(PolicySpec("LRU()"), PolicySpec("LRU"));
}

TEST(PolicySpecGrammar, RealParametersRoundTrip)
{
    const PolicySpec spec("Emissary(prob=0.25,ways=2)");
    EXPECT_EQ(spec.value("prob"), 0.25);
    EXPECT_EQ(spec.canonical(), "Emissary(ways=2,prob=0.25)");
    EXPECT_EQ(reg().parse(spec.canonical()), spec);
}

TEST(PolicySpecGrammar, RoundTripForEveryRegisteredPolicy)
{
    for (const auto &name : reg().names()) {
        const PolicySpec bare = reg().parse(name);
        // Every parameter spelled out, in schema order.
        std::string spelled = name;
        const auto &params = reg().schema(name).params;
        for (std::size_t i = 0; i < params.size(); ++i) {
            spelled += (i == 0 ? "(" : ",") + params[i].key + "=" +
                       std::to_string(params[i].defaultValue);
            EXPECT_EQ(bare.value(params[i].key), params[i].defaultValue)
                << name;
        }
        if (!params.empty())
            spelled += ")";
        EXPECT_EQ(reg().parse(spelled), bare) << spelled;
        EXPECT_EQ(reg().parse(bare.canonical()), bare) << name;
        EXPECT_EQ(reg().parse(spelled).canonical(), bare.canonical())
            << name;
    }
}

// --------------------------- completeness ---------------------------

TEST(PolicyRegistryCompleteness, EveryPolicyConstructsWithDefaults)
{
    for (const auto &name : reg().names()) {
        auto policy = reg().instantiate(name, geom());
        ASSERT_NE(policy, nullptr) << name;
        // describe() must be the canonical fully-resolved spec.
        EXPECT_EQ(policy->describe(), reg().parse(name).canonical())
            << name;
    }
}

TEST(PolicyRegistryCompleteness, SchemasAreWellFormed)
{
    for (const auto &name : reg().names()) {
        const PolicySchema &schema = reg().schema(name);
        EXPECT_EQ(schema.name, name);
        EXPECT_FALSE(schema.doc.empty()) << name;
        for (const auto &p : schema.params) {
            EXPECT_FALSE(p.key.empty()) << name;
            EXPECT_FALSE(p.doc.empty()) << name << "." << p.key;
            EXPECT_LE(p.minValue, p.maxValue) << name << "." << p.key;
            EXPECT_GE(p.defaultValue, p.minValue) << name << "." << p.key;
            EXPECT_LE(p.defaultValue, p.maxValue) << name << "." << p.key;
        }
    }
}

TEST(PolicyRegistryCompleteness, EvaluatedNamesAreRegistered)
{
    const auto names = reg().names();
    for (const auto &name : evaluatedPolicyNames())
        EXPECT_NE(std::find(names.begin(), names.end(), name),
                  names.end())
            << name;
    EXPECT_FALSE(reg().helpText().empty());
}

TEST(PolicyRegistryCompleteness, ParametersReachThePolicy)
{
    // Spot checks that spec values actually land in the instances.
    // The labels come from the registry, not from the instance, so
    // the instance's own state is checked too.
    auto srrip = reg().instantiate("SRRIP(bits=4)", geom());
    EXPECT_EQ(srrip->describe(), "SRRIP(bits=4)");
    EXPECT_EQ(dynamic_cast<const SrripPolicy &>(*srrip).distant(), 15);
    auto ship = reg().instantiate("SHiP(shct_bits=14)", geom());
    EXPECT_EQ(ship->describe(), "SHiP(bits=2,shct_bits=14)");
    auto trrip = reg().instantiate("TRRIP-2(bits=3)", geom());
    EXPECT_EQ(trrip->describe(), "TRRIP-2(bits=3)");
    const auto &v2 = dynamic_cast<const TrripPolicy &>(*trrip);
    EXPECT_EQ(v2.variant(), TrripVariant::V2);
    EXPECT_EQ(v2.distant(), 7);
    EXPECT_EQ(reg().instantiate("TRRIP-2", geom())->describe(),
              "TRRIP-2(bits=2)");
}

TEST(PolicyRegistryCompleteness, LabelsPinnedAtNonDefaultParameters)
{
    // Every built-in policy, each parameter at a non-default in-range
    // value, built the way the hierarchy builds its levels.  The
    // labels are what the BENCH rows record as resolved_policies.
    const std::pair<const char *, const char *> kCases[] = {
        {"LRU", "LRU"},
        {"Random(seed=9007199254740992)", "Random(seed=9007199254740992)"},
        {"SRRIP(bits=5)", "SRRIP(bits=5)"},
        {"BRRIP(bits=3,throttle=7)", "BRRIP(bits=3,throttle=7)"},
        {"DRRIP(bits=4,leader_sets=4096,psel_bits=1,throttle=7)",
         "DRRIP(bits=4,leader_sets=4096,psel_bits=1,throttle=7)"},
        {"SHiP(shct_bits=4,bits=3)", "SHiP(bits=3,shct_bits=4)"},
        {"CLIP(bits=1,leader_sets=1,psel_bits=16)",
         "CLIP(bits=1,leader_sets=1,psel_bits=16)"},
        {"Emissary(prob=0.333,ways=0)",
         "Emissary(ways=0,prob=0.33300000000000002)"},
        {"TRRIP-1(bits=3)", "TRRIP-1(bits=3)"},
        {"TRRIP-2(bits=8)", "TRRIP-2(bits=8)"},
    };
    std::vector<std::string> covered;
    for (const auto &[spec, label] : kCases) {
        const Cache cache(geom(), PolicySpec(spec));
        EXPECT_EQ(cache.policy().describe(), label) << spec;
        covered.push_back(PolicySpec(spec).name());
    }
    for (const auto &name : reg().names()) {
        EXPECT_NE(std::find(covered.begin(), covered.end(), name),
                  covered.end())
            << name << " has no pinned label";
    }
}

// ------------------------------ errors ------------------------------

using PolicyRegistryDeath = ::testing::Test;

TEST(PolicyRegistryDeath, UnknownPolicySuggestsNearestMatch)
{
    EXPECT_EXIT(reg().parse("TRRIP2"), ::testing::ExitedWithCode(1),
                "did you mean 'TRRIP-2'");
    EXPECT_EXIT(reg().parse("srip"), ::testing::ExitedWithCode(1),
                "did you mean 'SRRIP'");
}

TEST(PolicyRegistryDeath, UnknownPolicyListsRegisteredNames)
{
    EXPECT_EXIT(reg().parse("NotAPolicy"),
                ::testing::ExitedWithCode(1),
                "registered: LRU, Random, SRRIP, BRRIP, DRRIP, SHiP, "
                "CLIP, Emissary, TRRIP-1, TRRIP-2");
}

TEST(PolicyRegistryDeath, UnknownKeyListsParameters)
{
    EXPECT_EXIT(reg().parse("SRRIP(bitz=2)"),
                ::testing::ExitedWithCode(1),
                "no parameter 'bitz' \\(parameters: bits\\)");
}

TEST(PolicyRegistryDeath, OutOfRangeValueShowsBounds)
{
    EXPECT_EXIT(reg().parse("SRRIP(bits=9)"),
                ::testing::ExitedWithCode(1),
                "out of range: 9 not in \\[1, 8\\]");
}

TEST(PolicyRegistryDeath, MalformedSpecsRejected)
{
    EXPECT_EXIT(reg().parse("SRRIP(bits=2"),
                ::testing::ExitedWithCode(1), "malformed");
    EXPECT_EXIT(reg().parse("SRRIP(bits)"),
                ::testing::ExitedWithCode(1), "not key=value");
    EXPECT_EXIT(reg().parse("SRRIP(bits=two)"),
                ::testing::ExitedWithCode(1), "malformed value");
    EXPECT_EXIT(reg().parse("SRRIP(bits=2.5)"),
                ::testing::ExitedWithCode(1), "must be an integer");
    EXPECT_EXIT(reg().parse("SRRIP(bits=2,bits=3)"),
                ::testing::ExitedWithCode(1), "duplicate parameter");
    EXPECT_EXIT(reg().parse(""), ::testing::ExitedWithCode(1),
                "empty policy spec");
}

TEST(PolicyRegistryTryParse, ReportsWithoutDying)
{
    EXPECT_FALSE(reg().tryParse("Bogus").has_value());
    EXPECT_FALSE(reg().tryParse("SRRIP(bits=9)").has_value());
    EXPECT_EQ(reg().tryParse("CLIP(psel_bits=12)"),
              PolicySpec("CLIP(psel_bits=12)"));
    // Non-policy labels pass through canonicalLabel untouched.
    EXPECT_EQ(reg().canonicalLabel("mcpat-row"), "mcpat-row");
    EXPECT_EQ(reg().canonicalLabel("CLIP"),
              "CLIP(bits=2,leader_sets=32,psel_bits=10)");
}

// ------------------------- per-level specs --------------------------

TEST(PerLevelPolicies, HierarchyBuildsEveryLevelFromSpecs)
{
    HierarchyParams hp;
    hp.l1i = CacheGeometry{"L1I", 2 * 1024, 2, 64};
    hp.l1d = CacheGeometry{"L1D", 2 * 1024, 2, 64};
    hp.l2 = CacheGeometry{"L2", 8 * 1024, 4, 64};
    hp.slc = CacheGeometry{"SLC", 16 * 1024, 4, 64};
    hp.l1iPolicy = "TRRIP-1(bits=3)";
    hp.l1dPolicy = "Random";
    hp.l2Policy = "TRRIP-2";
    hp.slcPolicy = "SRRIP";
    CacheHierarchy h(hp);
    EXPECT_EQ(h.l1i().policy().describe(), "TRRIP-1(bits=3)");
    EXPECT_EQ(h.l1d().policy().describe(), "Random(seed=3737844653)");
    EXPECT_EQ(h.l2().policy().describe(), "TRRIP-2(bits=2)");
    EXPECT_EQ(h.slc().policy().describe(), "SRRIP(bits=2)");
}

TEST(PerLevelPolicies, RunWorkloadRecordsResolvedPolicies)
{
    WorkloadParams params;
    params.name = "tiny";
    params.numHandlers = 16;
    params.numHelpers = 8;
    params.regions = {DataRegionSpec{"heap", 256 * 1024}};
    const auto wl = buildWorkload(params);
    SimOptions opts;
    opts.maxInstructions = 100000;
    opts.profileInstructions = 50000;
    opts.hier.l1iPolicy = "TRRIP-1";
    opts.hier.l2Policy = "TRRIP-2(bits=3)";
    const auto art = runWorkload(wl, opts);
    ASSERT_EQ(art.resolvedPolicies.size(), 4u);
    EXPECT_EQ(art.resolvedPolicies[0].first, "L1I");
    EXPECT_EQ(art.resolvedPolicies[0].second, "TRRIP-1(bits=2)");
    EXPECT_EQ(art.resolvedPolicies[2].first, "L2");
    EXPECT_EQ(art.resolvedPolicies[2].second, "TRRIP-2(bits=3)");
}

// --------------------- sink label determinism -----------------------

TEST(RegistryDeterminism, CollidingAxisSpellingsRejected)
{
    // "SRRIP" and "SRRIP(bits=2)" are the same policy; as two axis
    // entries their canonical sink rows would be indistinguishable.
    exp::ExperimentSpec spec;
    spec.name = "collide";
    spec.workloads = {"python"};
    spec.policies = {"SRRIP", "SRRIP(bits=2)"};
    spec.options.maxInstructions = 100000;
    exp::ExperimentRunner runner(1);
    EXPECT_EXIT(runner.run(spec), ::testing::ExitedWithCode(1),
                "resolve to the same policy");
}

TEST(RegistryDeterminism, BareAndExplicitSpecEmitIdenticalJson)
{
    // Acceptance check: "SRRIP" and "SRRIP(bits=2)" must produce a
    // byte-identical BENCH_fig6_speedup.json.
    const auto run_grid = [](const std::string &policy,
                             const std::string &path) {
        exp::ExperimentSpec spec;
        spec.name = "fig6_speedup";
        spec.workloads = {"python"};
        spec.policies = {policy};
        spec.options.maxInstructions = 150000;
        exp::ExperimentRunner runner(2);
        exp::JsonSink sink(path);
        runner.run(spec, {&sink});
        std::ifstream in(path);
        std::stringstream content;
        content << in.rdbuf();
        std::remove(path.c_str());
        return content.str();
    };
    const std::string bare =
        run_grid("SRRIP", "test_registry_bare.json");
    const std::string full =
        run_grid("SRRIP(bits=2)", "test_registry_full.json");
    EXPECT_FALSE(bare.empty());
    EXPECT_EQ(bare, full);
}

} // namespace
} // namespace trrip
