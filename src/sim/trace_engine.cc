#include "sim/trace_engine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ltc
{

/**
 * How many references runKernel() pulls per fill() call. Large
 * enough to amortize the per-batch virtual hop to nothing, small
 * enough that the buffer stays L1-resident (256 records = 6KB): the
 * batch is written by the generator and immediately re-read by the
 * engine, so spilling it to L2 costs more than the dispatch it saves.
 */
constexpr std::size_t engineBatchRefs = 256;

/**
 * L2 eviction listener: when a block prefetched into L2 (GHB/stride
 * style) dies unused, classify its off-chip transfer as incorrect-
 * prediction traffic and tell the predictor.
 */
class TraceEngine::L2Listener : public CacheListener
{
  public:
    explicit L2Listener(TraceEngine &owner) : owner_(owner) {}

    void
    onEviction(Addr victim_addr, Addr incoming_addr, std::uint32_t set,
               bool by_prefetch, bool victim_was_untouched_prefetch,
               bool victim_dirty, std::uint8_t victim_meta) override
    {
        (void)incoming_addr;
        (void)set;
        (void)by_prefetch;
        if (victim_dirty && owner_.hierConfig_.modelWritebacks) {
            // A dirty L2 victim crosses the chip boundary on its way
            // out. No early return: an L1 writeback (setDirty) can
            // land on a still-untouched prefetched L2 line, and such
            // a victim is both a writeback and a useless prefetch.
            owner_.buckets_[owner_.current_].traffic.add(
                Traffic::Writeback, owner_.hierConfig_.l2.lineBytes);
        }
        if (!victim_was_untouched_prefetch)
            return;
        CoverageStats &s = owner_.buckets_[owner_.current_];
        // The classification entry rides on the victim line; if a
        // later prefetch moved the block's entry to L1D, consume it
        // there (at most one entry exists per block).
        std::uint8_t meta = victim_meta;
        if (!(meta & LineMetaFetched))
            meta = owner_.hier_.l1d().takeMeta(victim_addr);
        if (meta & LineMetaFetched) {
            if (meta & LineMetaOffChip) {
                s.traffic.add(Traffic::IncorrectPrefetch,
                              owner_.hierConfig_.l2.lineBytes);
            }
        }
        s.uselessPrefetches++;
        if (owner_.pred_)
            owner_.bufferFeedback(victim_addr, true);
    }

  private:
    TraceEngine &owner_;
};

TraceEngine::TraceEngine(const HierarchyConfig &hier_config,
                         Prefetcher *pred, std::uint32_t buckets)
    : hierConfig_(hier_config), hier_(hier_config), pred_(pred),
      buckets_(buckets == 0 ? 1 : buckets),
      l2Listener_(std::make_unique<L2Listener>(*this))
{
    hier_.l1d().setListener(this);
    hier_.l2().setListener(l2Listener_.get());
}

TraceEngine::~TraceEngine()
{
    hier_.l1d().setListener(nullptr);
    hier_.l2().setListener(nullptr);
}

void
TraceEngine::selectBucket(std::uint32_t bucket)
{
    ltc_assert(bucket < buckets_.size(), "bucket out of range: ", bucket);
    current_ = bucket;
}

const CoverageStats &
TraceEngine::stats(std::uint32_t bucket) const
{
    ltc_assert(bucket < buckets_.size(), "bucket out of range: ", bucket);
    return buckets_[bucket];
}

CoverageStats &
TraceEngine::stats(std::uint32_t bucket)
{
    ltc_assert(bucket < buckets_.size(), "bucket out of range: ", bucket);
    return buckets_[bucket];
}

void
TraceEngine::onEviction(Addr victim_addr, Addr incoming_addr,
                        std::uint32_t set, bool by_prefetch,
                        bool victim_was_untouched_prefetch,
                        bool victim_dirty, std::uint8_t victim_meta)
{
    (void)incoming_addr;
    (void)set;
    CoverageStats &s = buckets_[current_];

    if (victim_dirty && hierConfig_.modelWritebacks) {
        // The dirty L1 victim writes back into L2 (on-chip, free);
        // only when L2 no longer holds the block does the writeback
        // go off chip. Dirty victims are never untouched prefetches
        // (prefetches fill clean), so the classification below is
        // unaffected.
        if (!hier_.l2().setDirty(victim_addr)) {
            s.traffic.add(Traffic::Writeback,
                          hierConfig_.l1d.lineBytes);
        }
    }

    if (victim_was_untouched_prefetch) {
        // A prefetched block died unused: wrong replacement address.
        s.uselessPrefetches++;
        std::uint8_t meta = victim_meta;
        if (!(meta & LineMetaFetched))
            meta = hier_.l2().takeMeta(victim_addr);
        if (meta & LineMetaFetched) {
            if (meta & LineMetaOffChip) {
                s.traffic.add(Traffic::IncorrectPrefetch,
                              hierConfig_.l1d.lineBytes);
            }
        }
        if (pred_)
            bufferFeedback(victim_addr, true);
        return;
    }

    if (by_prefetch) {
        // A live block evicted by a prefetch fill: if it misses again
        // later, that miss is a premature ("early") eviction.
        hier_.l1d().markEvicted(victim_addr);
    }
}

void
TraceEngine::issuePrefetch(const PrefetchRequest &req)
{
    CoverageStats &s = buckets_[current_];
    const Addr block = hier_.l1d().blockAlign(req.target);

    // Under the dead-block-aware policy the prediction also feeds
    // replacement: mark the predicted victim dead so LRU prefers it.
    // (Both the scalar and batched paths issue through here, so the
    // equivalence suites cover the mark by construction.) In this
    // engine mark and fill are atomic — predictions drain every
    // reference and LT-cords' (victim, replacement) pairs are
    // same-set by construction — so the directed fill consumes the
    // L1 mark immediately and L1 DeadBlock degenerates to LRU; the
    // timing engine's enqueue->issue delay is where the L1 marks
    // earn their keep (see TimingSim::issuePrefetch). The L2 mark
    // below persists in both engines: a last touch is program-wide,
    // so the victim's L2 copy is just as dead, and L2 recency (only
    // updated on L1 misses) tracks death order poorly enough that
    // the mark genuinely reorders L2 evictions.
    if (req.predictedVictim != invalidAddr) {
        if (hierConfig_.l1d.policy == ReplPolicy::DeadBlock)
            hier_.l1d().markDead(req.predictedVictim);
        if (hierConfig_.l2.policy == ReplPolicy::DeadBlock)
            hier_.l2().markDead(req.predictedVictim);
    }

    if (req.intoL1) {
        const PrefetchOutcome out =
            hier_.prefetch(req.target, req.predictedVictim);
        if (out.alreadyInL1) {
            if (pred_)
                bufferFeedback(req.target, true);
            return;
        }
        // At most one classification entry per block: retire any
        // stale L2-side entry before writing the L1 line's.
        hier_.l2().takeMeta(block);
        hier_.l1d().setMeta(block,
                            LineMetaFetched |
                                (out.l2Hit ? 0 : LineMetaOffChip));
        // The prefetch restored the block in time.
        hier_.l1d().clearEvictedMark(block);
        if (out.l1Evicted && pred_)
            pred_->onPrefetchEviction(out.l1VictimAddr, req.target);
    } else {
        // Conventional prefetch: install into L2 only.
        if (hier_.l2().probe(block))
            return;
        hier_.l2().fill(block);
        hier_.l1d().takeMeta(block);
        hier_.l2().setMeta(block, LineMetaFetched | LineMetaOffChip);
        s.traffic.add(Traffic::BaseData, 0); // classified on outcome
    }
}

void
TraceEngine::drainPredictor()
{
    if (!pred_)
        return;
    pred_->drainRequestsInto(reqBuf_);
    for (const PrefetchRequest &req : reqBuf_)
        issuePrefetch(req);
    // Issue-time feedback (filtered prefetches, fills evicting
    // untouched prefetches) writes confidence bytes the metadata
    // drain below accounts.
    flushFeedback();
    const auto [write_bytes, read_bytes] = pred_->drainMetaTraffic();
    CoverageStats &s = buckets_[current_];
    s.traffic.add(Traffic::SequenceCreate, write_bytes);
    s.traffic.add(Traffic::SequenceFetch, read_bytes);
}

void
TraceEngine::commit(std::uint32_t bucket, StepCounters n)
{
    CoverageStats &s = buckets_[bucket];
    s.accesses += n.accesses;
    s.instructions += n.instructions;
    s.l1Misses += n.l1Misses;
    s.l2Misses += n.l2Misses;
    s.correct += n.correct;
    s.early += n.early;
    s.traffic.add(Traffic::BaseData, n.baseBytes);
}

// LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
// operator and virtual declarations between these markers.

template <std::uint32_t L1Assoc, std::uint32_t L2Assoc, typename Policy>
void
TraceEngine::stepImpl(const MemRef &ref, StepCounters &n)
{
    n.accesses++;
    n.instructions += 1 + ref.nonMemGap;

    const HierOutcome out =
        hier_.access<L1Assoc, L2Assoc, Policy>(ref.addr, ref.op);
    const Addr block = hier_.l1d().blockAlign(ref.addr);
    const std::uint32_t line_bytes = hierConfig_.l1d.lineBytes;

    if (out.l1Hit()) {
        if (out.l1HitOnPrefetch) {
            // A miss eliminated by the predictor.
            n.correct++;
            // Charge the block transfer the demand fetch would have
            // performed anyway. The access consumed the L1 line's
            // classification entry; fall back to an L2-side entry.
            std::uint8_t meta = out.l1Meta;
            if (!(meta & LineMetaFetched))
                meta = hier_.l2().takeMeta(block);
            if ((meta & LineMetaFetched) && (meta & LineMetaOffChip))
                n.baseBytes += line_bytes;
            if (pred_)
                bufferFeedback(ref.addr, false);
        }
    } else {
        n.l1Misses++;
        if (hier_.l1d().clearEvictedMark(block))
            n.early++;
        if (out.level == HitLevel::Memory) {
            n.l2Misses++;
            n.baseBytes += line_bytes;
        } else if (out.l2HitOnPrefetch) {
            // L2 prefetch (GHB-style) turned an off-chip miss into an
            // L2 hit: account its off-chip transfer as base data.
            if ((out.l2Meta & LineMetaFetched) &&
                (out.l2Meta & LineMetaOffChip)) {
                n.baseBytes += line_bytes;
            }
            if (pred_)
                bufferFeedback(ref.addr, false);
        }
    }

    if (pred_) {
        // Access-time feedback must be visible before the predictor
        // reads confidences in observe().
        flushFeedback();
        pred_->observe(ref, out);
        drainPredictor();
    }
}

template <std::uint32_t L1Assoc, std::uint32_t L2Assoc, typename Policy,
          bool Trimmed>
std::uint64_t
TraceEngine::runKernel(std::span<const TenantSlot> tenants,
                       std::span<const ScheduleQuantum> schedule,
                       bool select_tenants)
{
    // The trimmed body keeps the caches' counters in these cursors
    // for the whole schedule; the full body leaves them unused.
    Cache &l1 = hier_.l1d();
    Cache &l2 = hier_.l2();
    [[maybe_unused]] Cache::BaselineCursor c1 = l1.baselineCursor();
    [[maybe_unused]] Cache::BaselineCursor c2 = l2.baselineCursor();
    [[maybe_unused]] const std::uint32_t line_bytes =
        hierConfig_.l1d.lineBytes;
    MemRef *buf = batch_.data();
    std::uint64_t done = 0;

    for (const ScheduleQuantum &q : schedule) {
        const TenantSlot &t = tenants[q.tenant];
        current_ = t.bucket;
        if (select_tenants && pred_)
            pred_->selectTenant(q.tenant);
        StepCounters n;
        std::uint64_t remaining = q.refs;
        while (remaining) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(remaining, engineBatchRefs));
            const std::size_t got = t.src->fill({buf, want});
            for (std::size_t i = 0; i < got; i++) {
                const MemRef &ref = buf[i];
                if constexpr (Trimmed) {
                    // step() with no prefetch state anywhere: count
                    // hits and misses, nothing else can happen.
                    n.accesses++;
                    n.instructions += 1 + ref.nonMemGap;
                    if (!l1.accessBaseline<L1Assoc, Policy>(
                            ref.addr, ref.op, c1)) {
                        n.l1Misses++;
                        if (!l2.accessBaseline<L2Assoc, Policy>(
                                ref.addr, ref.op, c2)) {
                            n.l2Misses++;
                            n.baseBytes += line_bytes;
                        }
                    }
                } else {
                    stepImpl<L1Assoc, L2Assoc, Policy>(ref, n);
                }
            }
            remaining -= got;
            if (got < want)
                break; // end of this tenant's trace
        }
        commit(t.bucket, n);
        if constexpr (Trimmed)
            hier_.noteBaselineBatch(n.accesses, n.l1Misses, n.l2Misses);
        done += n.accesses;
    }

    if constexpr (Trimmed) {
        l1.commitBaseline(c1);
        l2.commitBaseline(c2);
    }
    return done;
}

// LTC_HOT_END

void
TraceEngine::step(const MemRef &ref)
{
    StepCounters n;
    stepImpl<0, 0, PolicyAuto>(ref, n);
    commit(current_, n);
}

std::uint64_t
TraceEngine::runQuanta(std::span<const TenantSlot> tenants,
                       std::span<const ScheduleQuantum> schedule,
                       bool select_tenants)
{
    if (batch_.size() < engineBatchRefs)
        batch_.resize(engineBatchRefs);

    // The trimmed body only when nothing it skips can happen: no
    // predictor, no perfect L1, no writeback charges (it bypasses the
    // eviction listeners) and no prefetch state in either cache (a
    // caller may inject fills by hand). Everything else, predictor or
    // not, takes the full body.
    const bool trimmed = pred_ == nullptr && !hierConfig_.perfectL1 &&
        !hierConfig_.modelWritebacks &&
        hier_.l1d().prefetchFills() == 0 &&
        hier_.l2().prefetchFills() == 0;
    const std::uint64_t done = dispatchHierarchyKernel(
        hier_.l1d().config(), hier_.l2().config(),
        [&](auto a1, auto a2, auto pol) {
            using P = decltype(pol);
            return trimmed
                ? runKernel<a1(), a2(), P, true>(tenants, schedule,
                                                 select_tenants)
                : runKernel<a1(), a2(), P, false>(tenants, schedule,
                                                  select_tenants);
        });
    maybeAudit();
    return done;
}

std::uint64_t
TraceEngine::runSchedule(std::span<TenantSlot> tenants,
                         std::span<const ScheduleQuantum> schedule)
{
    ltc_assert(!tenants.empty(), "schedule needs at least one tenant");
    for (const TenantSlot &slot : tenants) {
        ltc_assert(slot.src != nullptr, "tenant without a trace source");
        ltc_assert(slot.bucket < buckets_.size(),
                   "tenant bucket out of range: ", slot.bucket);
    }
    for (const ScheduleQuantum &q : schedule)
        ltc_assert(q.tenant < tenants.size(), "quantum names tenant ",
                   q.tenant, " of ", tenants.size());
    return runQuanta(tenants, schedule, /*select_tenants=*/true);
}

std::uint64_t
TraceEngine::run(TraceSource &src, std::uint64_t refs)
{
    const TenantSlot slot{&src, current_};
    const ScheduleQuantum quantum{0, refs};
    return runQuanta({&slot, 1}, {&quantum, 1}, /*select_tenants=*/false);
}

void
TraceEngine::auditInvariants() const
{
    hier_.l1d().auditInvariants();
    hier_.l2().auditInvariants();
    if (pred_)
        pred_->auditInvariants();
}

CoverageStats
runWithOpportunity(const HierarchyConfig &hier_config, Prefetcher *pred,
                   TraceSource &workload, std::uint64_t refs)
{
    // Baseline pass: measures prediction opportunity.
    workload.reset();
    std::uint64_t opportunity = 0;
    {
        TraceEngine base(hier_config, nullptr);
        base.run(workload, refs);
        opportunity = base.stats().l1Misses;
    }

    // Predictor pass over the identical stream.
    workload.reset();
    TraceEngine engine(hier_config, pred);
    engine.run(workload, refs);
    CoverageStats stats = engine.stats();
    stats.opportunity = opportunity;
    return stats;
}

} // namespace ltc
