/**
 * @file
 * Cross-cutting property tests: randomised workload mixes and
 * configurations driven through both engines, checking the global
 * invariants that must hold for *any* input:
 *
 *  - engines never crash and their counters stay consistent,
 *  - identical (seed, config) runs are bit-identical,
 *  - IPC is bounded by issue width and positive,
 *  - coverage is a fraction of opportunity,
 *  - prefetching never changes the demand reference stream's
 *    functional footprint (same blocks touched),
 *  - every predictor obeys the drain/feedback protocol under fuzzed
 *    streams,
 *  - the open-addressed AddrMap agrees with std::unordered_map under
 *    any operation sequence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "cache/mshr.hh"
#include "core/ltcords.hh"
#include "mem/bus.hh"
#include "sim/experiment.hh"
#include "sim/timing_engine.hh"
#include "sim/trace_engine.hh"
#include "trace/primitives.hh"
#include "util/flat_map.hh"
#include "util/random.hh"

namespace ltc
{
namespace
{

/** Randomised composite workload built from a seed. */
std::unique_ptr<TraceSource>
fuzzWorkload(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::unique_ptr<TraceSource>> kids;
    std::vector<std::uint32_t> chunks;
    const int n = static_cast<int>(rng.range(1, 3));
    for (int i = 0; i < n; i++) {
        const Addr base = 0x10000000 + static_cast<Addr>(i) * 0x4000000;
        switch (rng.below(4)) {
          case 0: {
            ScanArray a;
            a.base = base;
            a.blocks = rng.range(64, 8192);
            a.accessesPerBlock =
                static_cast<std::uint32_t>(rng.range(1, 4));
            kids.push_back(std::make_unique<StridedScanSource>(
                std::vector<ScanArray>{a},
                static_cast<std::uint32_t>(rng.below(8))));
            break;
          }
          case 1: {
            PointerChaseParams p;
            p.base = base;
            p.nodes = rng.range(16, 8192);
            p.accessesPerNode =
                static_cast<std::uint32_t>(rng.range(1, 4));
            p.seed = rng.next();
            p.mutateEveryIters = rng.below(3);
            p.mutateFraction = rng.uniform() * 0.3;
            kids.push_back(std::make_unique<PointerChaseSource>(p));
            break;
          }
          case 2: {
            TreeWalkParams p;
            p.base = base;
            p.nodes = rng.range(15, 4095);
            p.regularLayout = rng.chance(0.5);
            p.seed = rng.next();
            kids.push_back(std::make_unique<TreeWalkSource>(p));
            break;
          }
          default: {
            HashProbeParams p;
            p.base = base;
            p.blocks = rng.range(64, 16384);
            p.hotFraction = rng.uniform();
            p.hotBlocks = rng.range(1, 64);
            p.seed = rng.next();
            kids.push_back(std::make_unique<HashProbeSource>(p));
            break;
          }
        }
        chunks.push_back(static_cast<std::uint32_t>(rng.range(1, 8)));
    }
    if (kids.size() == 1)
        return std::move(kids[0]);
    return std::make_unique<InterleaveSource>(std::move(kids),
                                              std::move(chunks));
}

class FuzzProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzProperty, TraceEngineInvariants)
{
    auto src = fuzzWorkload(GetParam());
    auto pred = makePredictor("lt-cords", paperHierarchy());
    TraceEngine engine(paperHierarchy(), pred.get());
    engine.run(*src, 100'000);
    engine.auditInvariants(); // full structural sweep on fuzzed state
    const auto &s = engine.stats();
    EXPECT_EQ(s.accesses, 100'000u);
    EXPECT_LE(s.l1Misses, s.accesses);
    EXPECT_LE(s.l2Misses, s.l1Misses);
    EXPECT_LE(s.correct, s.accesses);
    EXPECT_LE(s.incorrect() + s.train(), s.l1Misses);
    EXPECT_GE(s.instructions, s.accesses);
}

TEST_P(FuzzProperty, TimingEngineInvariants)
{
    auto src = fuzzWorkload(GetParam());
    TimingConfig cfg;
    auto pred = makePredictor("lt-cords", cfg.hier, true);
    TimingSim sim(cfg, pred.get());
    sim.run(*src, 60'000);
    sim.auditInvariants(); // full structural sweep on fuzzed state
    const auto s = sim.stats();
    EXPECT_GT(s.cycles, 0u);
    EXPECT_GT(s.ipc, 0.0);
    EXPECT_LE(s.ipc, static_cast<double>(cfg.core.width) + 1e-9);
    EXPECT_LE(s.l2Misses, s.l1Misses);
}

TEST_P(FuzzProperty, RunsAreDeterministic)
{
    auto run = [&](const char *pred_name) {
        auto src = fuzzWorkload(GetParam());
        auto pred = makePredictor(pred_name, paperHierarchy());
        TraceEngine engine(paperHierarchy(), pred.get());
        engine.run(*src, 50'000);
        const auto &s = engine.stats();
        return std::tuple(s.l1Misses, s.l2Misses, s.correct,
                          s.uselessPrefetches, s.early);
    };
    for (const char *name : {"lt-cords", "dbcp", "ghb", "markov"})
        EXPECT_EQ(run(name), run(name)) << name;
}

TEST_P(FuzzProperty, PrefetchingPreservesDemandFootprint)
{
    // The set of blocks demand-touched must not depend on the
    // predictor (prefetching changes timing and residency, never the
    // reference stream).
    auto touched = [&](const char *pred_name) {
        auto src = fuzzWorkload(GetParam());
        auto pred = makePredictor(pred_name, paperHierarchy());
        TraceEngine engine(paperHierarchy(), pred.get());
        MemRef ref;
        std::set<Addr> blocks;
        for (int i = 0; i < 30'000 && src->next(ref); i++) {
            blocks.insert(ref.addr & ~63ull);
            engine.step(ref);
        }
        return blocks;
    };
    EXPECT_EQ(touched("none"), touched("lt-cords"));
}

TEST_P(FuzzProperty, EveryPredictorSurvivesTheStream)
{
    for (const auto &name : predictorNames()) {
        if (name == "none")
            continue;
        auto src = fuzzWorkload(GetParam());
        auto pred = makePredictor(name, paperHierarchy());
        TraceEngine engine(paperHierarchy(), pred.get());
        engine.run(*src, 40'000);
        SUCCEED() << name;
    }
}

TEST_P(FuzzProperty, LtCordsPointersStayValid)
{
    // Stress frame conflicts: a tiny off-chip storage forces constant
    // re-recording; stale on-chip pointers must be detected, never
    // followed into freed fragments.
    LtcordsConfig cfg = paperLtcords(paperHierarchy());
    cfg.numFrames = 8;
    cfg.fragmentSignatures = 64;
    cfg.sigCacheEntries = 256;
    cfg.sigCacheAssoc = 2;
    LtCords ltc(cfg);
    auto src = fuzzWorkload(GetParam());
    TraceEngine engine(paperHierarchy(), &ltc);
    engine.run(*src, 80'000);
    ltc.auditInvariants(); // frame links survive constant conflicts
    EXPECT_GT(ltc.storage().frameConflicts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

/** Hierarchy geometry sweep through the trace engine. */
struct HierGeom
{
    std::uint64_t l1_kb;
    std::uint32_t l1_assoc;
    std::uint64_t l2_kb;
    std::uint32_t l2_assoc;
};

class GeometryProperty : public ::testing::TestWithParam<HierGeom>
{
};

TEST_P(GeometryProperty, LtCordsAdaptsToGeometry)
{
    const auto g = GetParam();
    HierarchyConfig hier;
    hier.l1d.sizeBytes = g.l1_kb * 1024;
    hier.l1d.assoc = g.l1_assoc;
    hier.l2.sizeBytes = g.l2_kb * 1024;
    hier.l2.assoc = g.l2_assoc;

    ScanArray a;
    a.base = 0x10000000;
    a.blocks = 4 * hier.l1d.numLines(); // 4x whatever L1 holds
    a.accessesPerBlock = 2;
    StridedScanSource src({a}, 1);

    LtCords ltc(paperLtcords(hier));
    auto stats = runWithOpportunity(hier, &ltc, src,
                                    10 * a.blocks * 2);
    EXPECT_GT(stats.coverage(), 0.5)
        << g.l1_kb << "KB/" << g.l1_assoc << "-way";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometryProperty,
    ::testing::Values(HierGeom{16, 1, 256, 4}, HierGeom{32, 2, 512, 8},
                      HierGeom{64, 2, 1024, 8},
                      HierGeom{64, 4, 1024, 8},
                      HierGeom{128, 8, 2048, 16}));

//
// MSHR file: randomized sequences against a naive reference model.
//
// MshrFile short-circuits its per-reference retire() with a cached
// earliest-completion and screens lookup() with a presence filter;
// both are pure optimizations, so the file must stay observably
// identical to the obvious implementation (eager scans everywhere)
// at EVERY step of any allocate/lookup/retire schedule.
//

/** The obvious MSHR implementation: no caches, no filters. */
class NaiveMshr
{
  public:
    explicit NaiveMshr(std::uint32_t capacity) : capacity_(capacity) {}

    Cycle
    allocReadyAt(Cycle now) const
    {
        if (entries_.size() < capacity_)
            return now;
        Cycle earliest = entries_.front().second;
        for (const auto &e : entries_)
            earliest = std::min(earliest, e.second);
        return std::max(now, earliest);
    }

    void
    allocate(Addr block, Cycle start, Cycle completion)
    {
        retire(start);
        ASSERT_LT(entries_.size(), capacity_);
        entries_.emplace_back(block, completion);
        peak_ = std::max<std::uint32_t>(
            peak_, static_cast<std::uint32_t>(entries_.size()));
    }

    std::optional<Cycle>
    lookup(Addr block) const
    {
        for (const auto &e : entries_)
            if (e.first == block)
                return e.second;
        return std::nullopt;
    }

    void
    retire(Cycle now)
    {
        std::erase_if(entries_,
                      [now](const auto &e) { return e.second <= now; });
    }

    std::uint32_t
    outstanding() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }
    std::uint32_t peakOccupancy() const { return peak_; }

  private:
    std::uint32_t capacity_;
    std::vector<std::pair<Addr, Cycle>> entries_;
    std::uint32_t peak_ = 0;
};

class MshrProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MshrProperty, RandomScheduleMatchesNaiveModelExactly)
{
    Rng rng(GetParam());
    const std::uint32_t capacity =
        static_cast<std::uint32_t>(rng.range(1, 16));
    MshrFile file(capacity);
    NaiveMshr naive(capacity);

    Cycle now = 0;
    for (int op = 0; op < 20'000; op++) {
        now += rng.below(40); // time may stall, never reverses
        const Addr block = (rng.below(24)) * 64;

        // Retire ticks arrive in bursts, as in the batched kernel.
        if (rng.chance(0.6)) {
            file.retire(now);
            naive.retire(now);
        }

        const auto got = file.lookup(block);
        const auto want = naive.lookup(block);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
        if (got) {
            ASSERT_EQ(*got, *want) << "op " << op;
            file.noteMerge();
        } else {
            // A pending miss must never be lost: allocate and check
            // it is findable with the exact completion time.
            const Cycle ready = file.allocReadyAt(now);
            ASSERT_EQ(ready, naive.allocReadyAt(now)) << "op " << op;
            const Cycle completion = ready + 1 + rng.below(400);
            file.allocate(block, ready, completion);
            naive.allocate(block, ready, completion);
            ASSERT_EQ(file.lookup(block), std::optional(completion));
        }

        // Occupancy trajectory identical, capacity never exceeded.
        ASSERT_EQ(file.outstanding(), naive.outstanding())
            << "op " << op;
        ASSERT_LE(file.outstanding(), capacity);
        ASSERT_EQ(file.peakOccupancy(), naive.peakOccupancy());

        // Representation invariants (presence filter, cached
        // earliest) hold at every point of the random schedule, not
        // just when the behaviour happens to match the naive model.
        if (op % 256 == 0)
            file.auditInvariants();
    }
    file.auditInvariants();
}

TEST_P(MshrProperty, BurstRetireEqualsSingleStepping)
{
    // The event-granular property the batched timing kernel leans on:
    // retiring once at time T releases exactly the entries that
    // stepping retire() through every intermediate time would have
    // released, so skipped no-op ticks cannot change the occupancy
    // trace.
    Rng rng(GetParam() * 7919 + 1);
    const std::uint32_t capacity = 8;
    MshrFile burst(capacity);
    MshrFile stepped(capacity);

    Cycle now = 0;
    for (int round = 0; round < 500; round++) {
        const std::uint32_t n =
            static_cast<std::uint32_t>(rng.range(1, capacity));
        for (std::uint32_t i = 0; i < n; i++) {
            const Addr block =
                (static_cast<Addr>(round) * capacity + i) * 64;
            const Cycle ready = burst.allocReadyAt(now);
            const Cycle completion = ready + 1 + rng.below(300);
            burst.allocate(block, ready, completion);
            stepped.allocate(block, ready, completion);
        }
        const Cycle target = now + rng.below(500);
        for (Cycle t = now; t <= target; t += 1 + rng.below(60))
            stepped.retire(t);
        stepped.retire(target);
        burst.retire(target);
        now = target;
        ASSERT_EQ(burst.outstanding(), stepped.outstanding())
            << "round " << round;
        ASSERT_EQ(burst.allocReadyAt(now), stepped.allocReadyAt(now));
        burst.auditInvariants();
        stepped.auditInvariants();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MshrProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

//
// Bus: randomized transfer schedules against the occupancy algebra.
//

class BusProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BusProperty, RandomScheduleObeysOccupancyAlgebra)
{
    Rng rng(GetParam() * 31 + 5);
    BusConfig cfg;
    cfg.requestCycles = rng.below(3);
    cfg.bytesPerCycle = 1u << rng.range(0, 6);
    cfg.coreCyclesPerBusCycle =
        static_cast<std::uint32_t>(rng.range(1, 4));
    Bus bus(cfg);

    Cycle busy_until = 0; // reference horizon
    Cycle busy_sum = 0;
    Cycle queue_sum = 0;
    std::uint64_t bytes_sum = 0;
    Cycle ready = 0;
    for (int i = 0; i < 10'000; i++) {
        ready += rng.below(20);
        const std::uint32_t bytes =
            static_cast<std::uint32_t>(rng.below(256));

        ASSERT_EQ(bus.freeAt(ready), std::max(ready, busy_until));
        ASSERT_EQ(bus.isFree(ready), busy_until <= ready);

        const Cycle done = bus.transfer(ready, bytes);
        const Cycle start = std::max(ready, busy_until);
        const Cycle occ = cfg.occupancy(bytes);
        ASSERT_EQ(done, start + occ) << "transfer " << i;
        queue_sum += start - ready;
        busy_until = start + occ;
        busy_sum += occ;
        bytes_sum += bytes;

        ASSERT_EQ(bus.busyCycles(), busy_sum);
        ASSERT_EQ(bus.queueCycles(), queue_sum);
        ASSERT_EQ(bus.bytesMoved(), bytes_sum);
        ASSERT_LE(bus.utilization(busy_until), 1.0);
        if (i % 256 == 0)
            bus.auditInvariants();
    }
    EXPECT_EQ(bus.transfers(), 10'000u);
    bus.auditInvariants();
}

TEST_P(BusProperty, PrecomputedOccupancyPathIsIdentical)
{
    // transferPrecomputed(ready, bytes, occupancy(bytes)) is the
    // timing engine's hoisted-division fast path; it must be
    // indistinguishable from transfer() for any schedule.
    Rng rng(GetParam() * 131 + 17);
    BusConfig cfg = BusConfig::memory();
    Bus plain(cfg);
    Bus pre(cfg);

    Cycle ready = 0;
    for (int i = 0; i < 10'000; i++) {
        ready += rng.below(12);
        const std::uint32_t bytes =
            rng.chance(0.5) ? 0u : cfg.bytesPerCycle * 2;
        const Cycle a = plain.transfer(ready, bytes);
        const Cycle b = pre.transferPrecomputed(ready, bytes,
                                                cfg.occupancy(bytes));
        ASSERT_EQ(a, b) << "transfer " << i;
    }
    EXPECT_EQ(plain.busyCycles(), pre.busyCycles());
    EXPECT_EQ(plain.queueCycles(), pre.queueCycles());
    EXPECT_EQ(plain.bytesMoved(), pre.bytesMoved());
    EXPECT_EQ(plain.transfers(), pre.transfers());
    plain.auditInvariants();
    pre.auditInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

//
// AddrMap: random operation sequences against std::unordered_map.
//

class AddrMapProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

/** Assert @p map holds exactly the entries of @p oracle. */
void
expectSameContents(const AddrMap<std::uint64_t> &map,
                   const std::unordered_map<Addr, std::uint64_t> &oracle)
{
    map.auditInvariants();
    ASSERT_EQ(map.size(), oracle.size());
    std::size_t visited = 0;
    map.forEach([&](Addr k, std::uint64_t v) {
        const auto it = oracle.find(k);
        ASSERT_NE(it, oracle.end()) << "stray key " << k;
        EXPECT_EQ(v, it->second) << "key " << k;
        visited++;
    });
    EXPECT_EQ(visited, oracle.size());
}

TEST_P(AddrMapProperty, RandomOperationsMatchUnorderedMap)
{
    Rng rng(GetParam() * 977 + 3);
    // A small key universe makes overwrites, erase hits and long
    // probe chains common; it still outgrows the initial capacity.
    const std::uint64_t universe = 64 + rng.below(2048);
    AddrMap<std::uint64_t> map;
    std::unordered_map<Addr, std::uint64_t> oracle;

    for (int batch = 0; batch < 80; batch++) {
        for (int op = 0; op < 64; op++) {
            const Addr key = rng.below(universe) * 64;
            const std::uint64_t roll = rng.below(100);
            if (roll < 50) {
                const std::uint64_t value = rng.next();
                map.insert(key, value);
                oracle[key] = value;
            } else if (roll < 80) {
                ASSERT_EQ(map.erase(key), oracle.erase(key) == 1);
            } else {
                const std::uint64_t *v = map.find(key);
                const auto it = oracle.find(key);
                ASSERT_EQ(v != nullptr, it != oracle.end());
                if (v) {
                    ASSERT_EQ(*v, it->second);
                }
            }
        }
        if (batch % 16 == 7) {
            const std::uint64_t bit = std::uint64_t{1} << rng.below(8);
            const auto drop = [bit](Addr, std::uint64_t v) {
                return (v & bit) != 0;
            };
            map.eraseIf(drop);
            std::erase_if(oracle, [&drop](const auto &e) {
                return drop(e.first, e.second);
            });
        }
        if (batch == 50) {
            map.clear();
            oracle.clear();
        }
        expectSameContents(map, oracle);
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddrMapProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace ltc
