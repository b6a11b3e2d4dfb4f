/**
 * @file
 * Multi-tenant batched/scalar equivalence suite.
 *
 * TraceEngine::runSchedule — the batched multi-tenant loop that
 * hoists dispatch, cursors and pull buffers outside the quantum
 * loop — must be indistinguishable from the scalar reference loop
 * (selectBucket + selectTenant + run per quantum). These tests drive
 * both paths over identical tenant sets and schedules — static and
 * churn-driven, on- and off-dispatch geometries, shared and
 * partitioned signature caches, 2 to 1024 tenants — and compare
 * every per-bucket counter and both caches exactly.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/ltcords.hh"
#include "sim/experiment.hh"
#include "sim/multiprog.hh"
#include "sim/trace_engine.hh"
#include "trace/primitives.hh"
#include "trace/trace.hh"

namespace ltc
{
namespace
{

/**
 * Cheap per-tenant sources: small pointer chases with distinct
 * layouts, shifted into disjoint address ranges (what runMultiProg's
 * ShiftSource wrapping does). Small enough that 1024 of them build in
 * milliseconds, miss-heavy enough to exercise the predictors.
 */
std::vector<std::unique_ptr<TraceSource>>
makeTenants(std::uint32_t n)
{
    std::vector<std::unique_ptr<TraceSource>> apps;
    for (std::uint32_t i = 0; i < n; i++) {
        PointerChaseParams p;
        p.nodes = 256 + (i & 3) * 128;
        p.seed = i + 1;
        p.mutateEveryIters = 2;
        p.mutateFraction = 0.05;
        apps.push_back(std::make_unique<ShiftSource>(
            std::make_unique<PointerChaseSource>(p),
            static_cast<Addr>(i) << 28));
    }
    return apps;
}

/** A schedule from the production generator (static or churn). */
std::vector<TraceEngine::ScheduleQuantum>
makeSchedule(std::uint32_t tenants, std::uint64_t quantum,
             std::uint64_t switches, std::uint64_t churn_seed)
{
    MultiProgConfig cfg;
    cfg.quantumRefs.assign(tenants, quantum);
    cfg.switches = switches;
    cfg.churnSeed = churn_seed;
    return buildMultiProgSchedule(cfg);
}

void
expectSameCoverage(const CoverageStats &a, const CoverageStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.uselessPrefetches, b.uselessPrefetches);
    EXPECT_EQ(a.early, b.early);
    for (unsigned t = 0;
         t < static_cast<unsigned>(Traffic::NumClasses); t++) {
        EXPECT_EQ(a.traffic.bytes(static_cast<Traffic>(t)),
                  b.traffic.bytes(static_cast<Traffic>(t)))
            << "traffic class " << t;
    }
}

/**
 * The property itself: runSchedule over @p schedule must produce the
 * same per-bucket stats and cache counters as the scalar loop it
 * documents itself against.
 */
void
checkSchedule(const std::string &pred_name, std::uint32_t tenants,
              const std::vector<TraceEngine::ScheduleQuantum> &schedule,
              const HierarchyConfig &hc,
              std::uint32_t partitions = 1)
{
    SCOPED_TRACE(pred_name + " x " + std::to_string(tenants) +
                 " tenants, " + std::to_string(partitions) +
                 " partitions");

    const auto make_pred =
        [&]() -> std::unique_ptr<Prefetcher> {
        if (pred_name == "none")
            return nullptr;
        if (partitions > 1) {
            LtcordsConfig lc = paperLtcords(hc, false);
            lc.sigCachePartitions = partitions;
            return std::make_unique<LtCords>(lc);
        }
        return makePredictor(pred_name, hc);
    };

    // Batched path.
    auto apps_b = makeTenants(tenants);
    auto pred_b = make_pred();
    TraceEngine batched(hc, pred_b.get(), tenants);
    std::vector<TraceEngine::TenantSlot> slots(tenants);
    for (std::uint32_t i = 0; i < tenants; i++) {
        slots[i].src = apps_b[i].get();
        slots[i].bucket = i;
    }
    const std::uint64_t done_b = batched.runSchedule(slots, schedule);

    // Scalar oracle.
    auto apps_s = makeTenants(tenants);
    auto pred_s = make_pred();
    TraceEngine scalar(hc, pred_s.get(), tenants);
    std::uint64_t done_s = 0;
    for (const TraceEngine::ScheduleQuantum &q : schedule) {
        scalar.selectBucket(q.tenant);
        if (pred_s)
            pred_s->selectTenant(q.tenant);
        done_s += scalar.run(*apps_s[q.tenant], q.refs);
    }

    EXPECT_EQ(done_b, done_s);
    for (std::uint32_t i = 0; i < tenants; i++) {
        SCOPED_TRACE("bucket " + std::to_string(i));
        expectSameCoverage(batched.stats(i), scalar.stats(i));
    }
    EXPECT_EQ(batched.hierarchy().l1d().accesses(),
              scalar.hierarchy().l1d().accesses());
    EXPECT_EQ(batched.hierarchy().l1d().misses(),
              scalar.hierarchy().l1d().misses());
    EXPECT_EQ(batched.hierarchy().l1d().evictions(),
              scalar.hierarchy().l1d().evictions());
    EXPECT_EQ(batched.hierarchy().l2().accesses(),
              scalar.hierarchy().l2().accesses());
    EXPECT_EQ(batched.hierarchy().l2().misses(),
              scalar.hierarchy().l2().misses());
}

TEST(MultiProgEquivalence, StaticScheduleAcrossTenantCounts)
{
    for (const std::uint32_t tenants : {2u, 4u, 33u}) {
        const auto schedule = makeSchedule(
            tenants, /*quantum=*/700,
            /*switches=*/static_cast<std::uint64_t>(tenants) * 3 + 1,
            /*churn_seed=*/0);
        for (const char *pred : {"none", "lt-cords", "ghb"})
            checkSchedule(pred, tenants, schedule, paperHierarchy());
    }
}

TEST(MultiProgEquivalence, ChurnSchedule)
{
    for (const std::uint32_t tenants : {4u, 33u}) {
        const auto schedule = makeSchedule(
            tenants, /*quantum=*/500,
            /*switches=*/static_cast<std::uint64_t>(tenants) * 4,
            /*churn_seed=*/0xC0FFEE + tenants);
        for (const char *pred : {"none", "lt-cords"})
            checkSchedule(pred, tenants, schedule, paperHierarchy());
    }
}

TEST(MultiProgEquivalence, ThousandTenants)
{
    // Fig. 11 at scale: 1024 tenants with churn, ~150 refs per
    // quantum — the regime where the scalar loop's per-quantum
    // re-entry cost dominates and the batched loop must still match
    // it event-for-event.
    const std::uint32_t tenants = 1024;
    const auto schedule =
        makeSchedule(tenants, /*quantum=*/150, /*switches=*/1500,
                     /*churn_seed=*/99);
    checkSchedule("lt-cords", tenants, schedule, paperHierarchy());
}

TEST(MultiProgEquivalence, ReplacementPolicySweep)
{
    // Every policy plugin through the hoisted multi-tenant kernels —
    // the schedule kernels dispatch on (assoc, policy) exactly like
    // run(), so Random's draw order and DeadBlock's mark wiring must
    // survive the quantum hoisting too.
    const auto schedule =
        makeSchedule(4, /*quantum=*/600, /*switches=*/17,
                     /*churn_seed=*/3);
    for (const ReplPolicy p : allReplPolicies) {
        SCOPED_TRACE(replPolicyName(p));
        HierarchyConfig hc = paperHierarchy();
        hc.l1d.policy = p;
        hc.l2.policy = p;
        checkSchedule("none", 4, schedule, hc);
        checkSchedule("lt-cords", 4, schedule, hc);
    }
}

TEST(MultiProgEquivalence, WritebackModelling)
{
    // modelWritebacks forces the schedule kernels off the trimmed
    // baseline path; both predictor-less and predicted runs must
    // still match the scalar loop event-for-event.
    HierarchyConfig hc = paperHierarchy();
    hc.modelWritebacks = true;
    const auto schedule =
        makeSchedule(4, /*quantum=*/600, /*switches=*/17,
                     /*churn_seed=*/0);
    checkSchedule("none", 4, schedule, hc);
    checkSchedule("lt-cords", 4, schedule, hc);
}

TEST(MultiProgEquivalence, PerfectL1)
{
    // Perfect L1 keeps predictor-less schedules off the trimmed
    // baseline path, like modelWritebacks above.
    HierarchyConfig hc = paperHierarchy();
    hc.perfectL1 = true;
    const auto schedule =
        makeSchedule(4, /*quantum=*/600, /*switches=*/17,
                     /*churn_seed=*/0);
    checkSchedule("none", 4, schedule, hc);
    checkSchedule("lt-cords", 4, schedule, hc);
}

TEST(MultiProgEquivalence, OffDispatchGeometry)
{
    // Associativities outside the static dispatch table take the
    // runtime-assoc kernel instantiation; it must agree too.
    HierarchyConfig hc = paperHierarchy();
    hc.l1d.assoc = 8;
    hc.l2.assoc = 4;
    const auto schedule =
        makeSchedule(4, /*quantum=*/600, /*switches=*/17,
                     /*churn_seed=*/0);
    checkSchedule("none", 4, schedule, hc);
    checkSchedule("lt-cords", 4, schedule, hc);
}

TEST(MultiProgEquivalence, PartitionedSignatureCache)
{
    const std::uint32_t tenants = 8;
    const auto schedule =
        makeSchedule(tenants, /*quantum=*/500,
                     /*switches=*/tenants * 4, /*churn_seed=*/5);
    checkSchedule("lt-cords", tenants, schedule, paperHierarchy(),
                  /*partitions=*/tenants);
}

TEST(MultiProgEquivalence, SharedModeMatchesTenantObliviousLoop)
{
    // Backward compatibility: with an unpartitioned signature cache,
    // selectTenant must not perturb a single stat — the batched loop
    // must match the historical scalar loop that never called it.
    const std::uint32_t tenants = 4;
    const auto schedule =
        makeSchedule(tenants, /*quantum=*/800,
                     /*switches=*/tenants * 5, /*churn_seed=*/0);
    const HierarchyConfig hc = paperHierarchy();

    auto apps_b = makeTenants(tenants);
    auto pred_b = makePredictor("lt-cords", hc);
    TraceEngine batched(hc, pred_b.get(), tenants);
    std::vector<TraceEngine::TenantSlot> slots(tenants);
    for (std::uint32_t i = 0; i < tenants; i++) {
        slots[i].src = apps_b[i].get();
        slots[i].bucket = i;
    }
    batched.runSchedule(slots, schedule);

    auto apps_s = makeTenants(tenants);
    auto pred_s = makePredictor("lt-cords", hc);
    TraceEngine scalar(hc, pred_s.get(), tenants);
    for (const TraceEngine::ScheduleQuantum &q : schedule) {
        scalar.selectBucket(q.tenant);
        scalar.run(*apps_s[q.tenant], q.refs); // no selectTenant
    }

    for (std::uint32_t i = 0; i < tenants; i++) {
        SCOPED_TRACE("bucket " + std::to_string(i));
        expectSameCoverage(batched.stats(i), scalar.stats(i));
    }
}

TEST(MultiProgEquivalence, ScheduleGeneratorIsDeterministic)
{
    MultiProgConfig cfg;
    cfg.quantumRefs.assign(16, 250);
    cfg.switches = 200;
    cfg.churnSeed = 1234;
    const auto a = buildMultiProgSchedule(cfg);
    const auto b = buildMultiProgSchedule(cfg);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), cfg.switches);
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].tenant, b[i].tenant) << "quantum " << i;
        EXPECT_EQ(a[i].refs, b[i].refs) << "quantum " << i;
        ASSERT_LT(a[i].tenant, 16u);
    }

    // Static mode reproduces the historical round-robin exactly.
    cfg.churnSeed = 0;
    const auto s = buildMultiProgSchedule(cfg);
    for (std::size_t i = 0; i < s.size(); i++)
        EXPECT_EQ(s[i].tenant, i % 16) << "quantum " << i;
}

} // namespace
} // namespace ltc
