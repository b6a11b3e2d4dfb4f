/**
 * @file
 * Invariant-audit death tests.
 *
 * Each hand-rolled hot-path structure exposes auditInvariants()
 * (util/check.hh); this suite proves the audits actually fire by
 * corrupting private state through the TestPeer friend hook and
 * expecting the audit to panic, and — just as important — that
 * legitimately exercised state passes every audit cleanly. The
 * corruption classes cover the silent-failure modes the packed
 * representations are exposed to: a clobbered tag word, a dropped
 * MSHR presence bit, reversed ring order, a rewound bus horizon, a
 * broken sequence-storage frame link and an eviction mark on a block
 * that is still resident.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/cache_config.hh"
#include "cache/mshr.hh"
#include "core/ltcords_config.hh"
#include "core/sequence_storage.hh"
#include "cpu/core_config.hh"
#include "cpu/ooo_core.hh"
#include "mem/bus.hh"
#include "sim/experiment.hh"
#include "sim/timing_engine.hh"
#include "sim/trace_engine.hh"
#include "trace/primitives.hh"
#include "trace/workloads.hh"
#include "util/check.hh"

namespace ltc
{

/**
 * The corruption hook: every audited structure befriends TestPeer, so
 * the death tests below can reach into private state and break
 * exactly one representation invariant at a time. Each mutator
 * documents the invariant it violates.
 */
struct TestPeer
{
    // ----------------------------------------------------- Cache

    /** Set a foreign-policy tag-word bit on the first valid line. */
    static void
    clobberTagWord(Cache &c)
    {
        for (std::uint64_t &tf : c.tagFlags_) {
            if (tf & lineValid) {
                // Bit 5 is the bottom of the policy field — an RRPV
                // bit, forbidden under the LRU default.
                tf |= std::uint64_t{1} << 5;
                return;
            }
        }
        FAIL() << "no valid line to clobber";
    }

    /** Flip the low tag bit so the line maps to a foreign set. */
    static void
    migrateLineToForeignSet(Cache &c)
    {
        for (std::uint64_t &tf : c.tagFlags_) {
            if (tf & lineValid) {
                tf ^= std::uint64_t{1} << tagShift;
                return;
            }
        }
        FAIL() << "no valid line to migrate";
    }

    /** Run a line's replacement stamp ahead of the global counter. */
    static void
    runawayStamp(Cache &c)
    {
        for (std::size_t i = 0; i < c.tagFlags_.size(); i++) {
            if (c.tagFlags_[i] & lineValid) {
                c.stamps_[i] = c.stamp_ + 1;
                return;
            }
        }
        FAIL() << "no valid line to stamp";
    }

    // ----------------------------------------------- TraceEngine

    /** Live eviction marks (blocks a prefetch evicted while live). */
    static std::size_t
    evictionMarks(const TraceEngine &e)
    {
        return e.evictMarks_.size();
    }

    /** Mark a block that is resident in L1D as evicted. */
    static void
    markResidentBlock(TraceEngine &e)
    {
        const Cache &l1 = e.hier_.l1d();
        for (std::uint64_t tf : l1.tagFlags_) {
            if (tf & lineValid) {
                e.evictMarks_.insert(l1.lineAddr(tf));
                return;
            }
        }
        FAIL() << "no resident L1D block to mark";
    }

    // -------------------------------------------------- MshrFile

    /** Zero the presence filter under live entries (false negative). */
    static void
    dropPresenceBits(MshrFile &m)
    {
        ASSERT_FALSE(m.entries_.empty());
        m.present_.fill(0);
    }

    /** Desynchronise the cached earliest-completion time. */
    static void
    staleEarliest(MshrFile &m)
    {
        ASSERT_FALSE(m.entries_.empty());
        m.earliest_ += 1;
    }

    /** Duplicate an outstanding entry (a merge that allocated). */
    static void
    duplicateEntry(MshrFile &m)
    {
        ASSERT_FALSE(m.entries_.empty());
        m.entries_.push_back(m.entries_.front());
    }

    // --------------------------------------------------- OooCore

    /** Swap the oldest and newest ROB entries (reversed order). */
    static void
    reverseRobOrder(OooCore &c)
    {
        const std::size_t newest =
            (c.robHead_ + c.robRing_.size() - 1) % c.robRing_.size();
        ASSERT_NE(c.robRing_[c.robHead_], c.robRing_[newest])
            << "exercise the core until retire slots differ";
        std::swap(c.robRing_[c.robHead_], c.robRing_[newest]);
    }

    /** Push the ROB head index past the ring. */
    static void
    robHeadOutOfRange(OooCore &c)
    {
        c.robHead_ = c.robRing_.size();
    }

    // ------------------------------------------------------- Bus

    /** Rewind the busy horizon behind the accumulated occupancy. */
    static void
    rewindBusyHorizon(Bus &b)
    {
        ASSERT_GT(b.transfers_, 0u);
        b.busyUntil_ = 0;
    }

    /** Account moved bytes on a bus that never transferred. */
    static void
    phantomWork(Bus &b)
    {
        ASSERT_EQ(b.transfers_, 0u);
        b.bytesMoved_ = 64;
    }

    // --------------------------------------- SequenceStorage

    /** Break a valid frame's direct-mapped head-key link. */
    static void
    breakFrameLink(SequenceStorage &s)
    {
        for (auto &frame : s.frames_) {
            if (frame.valid) {
                frame.headKey ^= 1;
                return;
            }
        }
        FAIL() << "no valid frame to corrupt";
    }

    /** Overfill a fragment past the configured length. */
    static void
    overfillFragment(SequenceStorage &s)
    {
        for (auto &frame : s.frames_) {
            if (!frame.valid)
                continue;
            frame.sigs.resize(s.config_.fragmentSignatures + 1);
            return;
        }
        FAIL() << "no valid frame to overfill";
    }
};

namespace
{

// ------------------------------------------------- exercised state
//
// Each helper drives the structure through its normal API far enough
// that every audited invariant is load-bearing (valid lines, live
// MSHR entries, differing retire slots, accounted transfers, valid
// frames), then the positive tests check the audit passes and the
// death tests corrupt from there.

CacheConfig
tinyCacheConfig()
{
    CacheConfig c;
    c.name = "tiny";
    c.sizeBytes = 8 * 64 * 2; // 8 sets, 2-way
    c.assoc = 2;
    c.lineBytes = 64;
    return c;
}

void
exerciseCache(Cache &c)
{
    // Touch more blocks than lines so hits, misses and evictions all
    // occur.
    for (Addr a = 0; a < 40 * 64; a += 64)
        c.access(a, (a / 64) % 3 ? MemOp::Load : MemOp::Store);
    c.fill(0x100000);
    c.fillReplacing(0x200000, 0x100000);
}

MshrFile
exercisedMshrs()
{
    MshrFile m(8);
    m.allocate(0x1000, 0, 120);
    m.allocate(0x2000, 5, 90);
    m.allocate(0x3000, 10, 300);
    return m;
}

void
exerciseCore(OooCore &c)
{
    c.issueNonMem(50);
    for (int i = 0; i < 8; i++) {
        const Cycle issue = c.beginMem();
        c.completeMem(issue + 200); // long misses spread the slots
        c.issueNonMem(10);
    }
}

Bus
exercisedBus()
{
    Bus b(BusConfig::memory());
    b.transfer(0, 64);
    b.transfer(10, 8);
    b.transfer(5, 64); // queues behind the second transfer
    return b;
}

LtcordsConfig
tinyStorageConfig()
{
    LtcordsConfig cfg;
    cfg.numFrames = 8;
    cfg.fragmentSignatures = 4;
    return cfg;
}

void
exerciseStorage(SequenceStorage &s)
{
    // Spread keys across frames; enough records to fill several
    // fragments and force at least one frame conflict.
    for (std::uint64_t i = 0; i < 64; i++) {
        const std::uint64_t key = i * 0x9e3779b97f4a7c15ull;
        s.record(key, 0x1000 + i * 64, 0x8000 + i * 64);
    }
}

// ------------------------------------------------- positive audits

TEST(InvariantAudit, ExercisedCachePasses)
{
    Cache c(tinyCacheConfig());
    c.auditInvariants(); // fresh
    exerciseCache(c);
    c.auditInvariants(); // exercised
    c.flush();
    c.auditInvariants(); // flushed
}

TEST(InvariantAudit, ExercisedMshrFilePasses)
{
    MshrFile m = exercisedMshrs();
    m.auditInvariants();
    m.retire(150); // partial drain recomputes earliest_
    m.auditInvariants();
    m.clear();
    m.auditInvariants();
}

TEST(InvariantAudit, ExercisedCorePasses)
{
    OooCore c(CoreConfig{});
    c.auditInvariants();
    exerciseCore(c);
    c.auditInvariants();
}

TEST(InvariantAudit, ExercisedBusPasses)
{
    Bus b(BusConfig::l1l2());
    b.auditInvariants();
    b.transfer(0, 64);
    b.auditInvariants();
    b.reset();
    b.auditInvariants();
}

TEST(InvariantAudit, ExercisedStoragePasses)
{
    SequenceStorage s(tinyStorageConfig());
    s.auditInvariants();
    exerciseStorage(s);
    s.auditInvariants();
    s.clear();
    s.auditInvariants();
}

TEST(InvariantAudit, TraceEngineAuditPassesAfterRun)
{
    ScanArray a;
    a.base = 0x10000000;
    a.blocks = 4096;
    StridedScanSource src({a}, 2);
    auto pred = makePredictor("lt-cords", paperHierarchy());
    TraceEngine engine(paperHierarchy(), pred.get());
    engine.run(src, 50'000);
    engine.auditInvariants();
}

TEST(InvariantAudit, TraceEngineAuditPassesWithEvictionMarks)
{
    // Past training, lt-cords prefetch fills on em3d evict live
    // blocks, and some of them are still marked when the run ends.
    auto src = makeWorkload("em3d", 1);
    auto pred = makePredictor("lt-cords", paperHierarchy());
    TraceEngine engine(paperHierarchy(), pred.get());
    engine.run(*src, 300'000);
    EXPECT_GT(TestPeer::evictionMarks(engine), 0u);
    engine.auditInvariants();
}

TEST(InvariantAudit, TimingEngineAuditPassesAfterRun)
{
    ScanArray a;
    a.base = 0x10000000;
    a.blocks = 4096;
    StridedScanSource src({a}, 2);
    TimingConfig cfg;
    auto pred = makePredictor("lt-cords", cfg.hier, true);
    TimingSim sim(cfg, pred.get());
    sim.run(src, 50'000);
    sim.auditInvariants();
}

TEST(InvariantAudit, CheckMacroPassesOnTrueCondition)
{
    LTC_CHECK(1 + 1 == 2, "arithmetic holds");
    LTC_DCHECK(1 + 1 == 2, "arithmetic holds");
    SUCCEED();
}

// --------------------------------------------------- death tests
//
// Every EXPECT_DEATH matches "invariant": LTC_CHECK failures panic
// with "invariant '<cond>' violated: <context>", distinct from
// ltc_assert precondition failures.

class CacheAuditDeathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }
};

TEST_F(CacheAuditDeathTest, ClobberedTagWordIsCaught)
{
    Cache c(tinyCacheConfig());
    exerciseCache(c);
    TestPeer::clobberTagWord(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

TEST_F(CacheAuditDeathTest, LineMappedToForeignSetIsCaught)
{
    Cache c(tinyCacheConfig());
    exerciseCache(c);
    TestPeer::migrateLineToForeignSet(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

TEST_F(CacheAuditDeathTest, RunawayStampIsCaught)
{
    Cache c(tinyCacheConfig());
    exerciseCache(c);
    TestPeer::runawayStamp(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

class MshrAuditDeathTest : public CacheAuditDeathTest
{
};

TEST_F(MshrAuditDeathTest, DroppedPresenceBitIsCaught)
{
    MshrFile m = exercisedMshrs();
    TestPeer::dropPresenceBits(m);
    EXPECT_DEATH(m.auditInvariants(), "invariant");
}

TEST_F(MshrAuditDeathTest, StaleEarliestCompletionIsCaught)
{
    MshrFile m = exercisedMshrs();
    TestPeer::staleEarliest(m);
    EXPECT_DEATH(m.auditInvariants(), "invariant");
}

TEST_F(MshrAuditDeathTest, DuplicateEntryIsCaught)
{
    MshrFile m = exercisedMshrs();
    TestPeer::duplicateEntry(m);
    EXPECT_DEATH(m.auditInvariants(), "invariant");
}

class CoreAuditDeathTest : public CacheAuditDeathTest
{
};

TEST_F(CoreAuditDeathTest, ReversedRingOrderIsCaught)
{
    OooCore c(CoreConfig{});
    exerciseCore(c);
    TestPeer::reverseRobOrder(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

TEST_F(CoreAuditDeathTest, RingHeadOutOfRangeIsCaught)
{
    OooCore c(CoreConfig{});
    exerciseCore(c);
    TestPeer::robHeadOutOfRange(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

class BusAuditDeathTest : public CacheAuditDeathTest
{
};

TEST_F(BusAuditDeathTest, RewoundBusyHorizonIsCaught)
{
    Bus b = exercisedBus();
    TestPeer::rewindBusyHorizon(b);
    EXPECT_DEATH(b.auditInvariants(), "invariant");
}

TEST_F(BusAuditDeathTest, PhantomWorkOnIdleBusIsCaught)
{
    Bus b(BusConfig::l1l2());
    TestPeer::phantomWork(b);
    EXPECT_DEATH(b.auditInvariants(), "invariant");
}

class StorageAuditDeathTest : public CacheAuditDeathTest
{
};

TEST_F(StorageAuditDeathTest, BrokenFrameLinkIsCaught)
{
    SequenceStorage s(tinyStorageConfig());
    exerciseStorage(s);
    TestPeer::breakFrameLink(s);
    EXPECT_DEATH(s.auditInvariants(), "invariant");
}

TEST_F(StorageAuditDeathTest, OverfilledFragmentIsCaught)
{
    SequenceStorage s(tinyStorageConfig());
    exerciseStorage(s);
    TestPeer::overfillFragment(s);
    EXPECT_DEATH(s.auditInvariants(), "invariant");
}

class TraceEngineAuditDeathTest : public CacheAuditDeathTest
{
};

TEST_F(TraceEngineAuditDeathTest, EvictionMarkOnResidentBlockIsCaught)
{
    auto src = makeWorkload("swim", 1);
    auto pred = makePredictor("lt-cords", paperHierarchy());
    TraceEngine engine(paperHierarchy(), pred.get());
    engine.run(*src, 50'000);
    TestPeer::markResidentBlock(engine);
    EXPECT_DEATH(engine.auditInvariants(), "invariant.*resident in L1D");
}

} // namespace
} // namespace ltc
