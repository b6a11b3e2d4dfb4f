/**
 * @file
 * Two-level cache hierarchy (functional).
 *
 * L1D backed by a unified L2 backed by memory (Table 1 geometry by
 * default). The hierarchy reports, for every demand access, where the
 * data came from and what the L1D replacement evicted — the inputs
 * the last-touch predictors consume. Prefetches install into both
 * levels (data returning from memory passes through L2) and into L1D
 * by replacing the predicted dead block.
 */

#ifndef LTC_CACHE_HIERARCHY_HH
#define LTC_CACHE_HIERARCHY_HH

#include <cstdint>
#include <type_traits>
#include <utility>

#include "cache/cache.hh"
#include "cache/cache_config.hh"
#include "util/types.hh"

namespace ltc
{

/**
 * The engines' static-associativity dispatch table, in one place:
 * invoke @p f with two std::integral_constant associativities — a
 * way-scan-unrolled instantiation for the (L1, L2) geometries the
 * experiments actually sweep, or (0, 0) (read the configuration at
 * runtime) for anything else. Both engines route their batched
 * kernels through this, so adding a geometry here extends every
 * kernel at once.
 */
template <typename F>
auto
dispatchByAssociativity(std::uint32_t l1_assoc, std::uint32_t l2_assoc,
                        F &&f)
{
    using std::integral_constant;
    if (l1_assoc == 2 && l2_assoc == 8) {
        return std::forward<F>(f)(
            integral_constant<std::uint32_t, 2>{},
            integral_constant<std::uint32_t, 8>{});
    }
    if (l1_assoc == 2 && l2_assoc == 16) {
        return std::forward<F>(f)(
            integral_constant<std::uint32_t, 2>{},
            integral_constant<std::uint32_t, 16>{});
    }
    if (l1_assoc == 4 && l2_assoc == 8) {
        return std::forward<F>(f)(
            integral_constant<std::uint32_t, 4>{},
            integral_constant<std::uint32_t, 8>{});
    }
    return std::forward<F>(f)(integral_constant<std::uint32_t, 0>{},
                              integral_constant<std::uint32_t, 0>{});
}

/**
 * The full static dispatch for a batched engine kernel: associativity
 * pair (dispatchByAssociativity) × replacement policy
 * (dispatchReplPolicy, cache/repl_policy.hh). Invokes @p f with two
 * std::integral_constant associativities and a policy tag — concrete
 * when both levels share one policy, PolicyAuto otherwise — so a
 * kernel instantiated through here devirtualizes the whole
 * per-reference decision chain.
 */
template <typename F>
auto
dispatchHierarchyKernel(const CacheConfig &l1, const CacheConfig &l2,
                        F &&f)
{
    return dispatchByAssociativity(
        l1.assoc, l2.assoc, [&](auto a1, auto a2) {
            return dispatchReplPolicy(
                l1.policy, l2.policy,
                [&](auto pol) { return f(a1, a2, pol); });
        });
}

/** Configuration for the two-level hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1d = CacheConfig::l1d();
    CacheConfig l2 = CacheConfig::l2();
    /**
     * Perfect L1D: every access hits (the paper's upper-bound
     * configuration in Table 3).
     */
    bool perfectL1 = false;
    /**
     * Model writeback traffic: dirty victims propagate to the next
     * level (L1 -> L2 via Cache::setDirty, L2 -> memory as Writeback
     * bus bytes). Off by default — the committed goldens predate the
     * dirty-bit fix, and the paper's Figure 12 decomposition counts
     * fetch traffic only. When on, the engines run the full
     * per-reference body, whose eviction listeners charge the
     * writebacks.
     */
    bool modelWritebacks = false;
};

/** Where a demand access was satisfied. */
enum class HitLevel
{
    L1,
    L2,
    Memory,
};

const char *hitLevelName(HitLevel level);

/** Result of one demand access through the hierarchy. */
struct HierOutcome
{
    HitLevel level = HitLevel::L1;
    /** The L1 hit consumed an untouched prefetched block. */
    bool l1HitOnPrefetch = false;
    /** The L2 hit consumed an untouched prefetched block. */
    bool l2HitOnPrefetch = false;
    /** L1D eviction caused by this access (fodder for last touches). */
    bool l1Evicted = false;
    /** Engine metadata bits consumed from the hitting L1 line. */
    std::uint8_t l1Meta = 0;
    /** Engine metadata bits consumed from the hitting L2 line. */
    std::uint8_t l2Meta = 0;
    Addr l1VictimAddr = invalidAddr;
    std::uint32_t l1Set = 0;
    bool l1Hit() const { return level == HitLevel::L1; }
};

/** Result of a prefetch insertion. */
struct PrefetchOutcome
{
    /** Block already resident in L1D: the prefetch was useless. */
    bool alreadyInL1 = false;
    /** Data found in L2 (fill is cheap); otherwise fetched off chip. */
    bool l2Hit = false;
    /** L1D eviction caused by the fill. */
    bool l1Evicted = false;
    Addr l1VictimAddr = invalidAddr;
};

class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyConfig &config);

    /**
     * Demand access from the core. Defined inline below — together
     * with the inline Cache::access it forms the engines' tight
     * per-reference inner loop.
     *
     * @tparam L1Assoc,L2Assoc Compile-time associativities for the
     *         way scans, or 0 (the default) to read them from the
     *         configurations. The engines' batched kernels dispatch
     *         to matching non-zero instantiations (the same contract
     *         as Cache::access / Cache::accessBaseline).
     * @tparam Policy Replacement-policy plugin shared by both levels,
     *         or PolicyAuto (the default) for per-call dispatch; the
     *         engines obtain a concrete tag via
     *         dispatchHierarchyKernel only when the two levels'
     *         configured policies agree.
     */
    template <std::uint32_t L1Assoc = 0, std::uint32_t L2Assoc = 0,
              typename Policy = PolicyAuto>
    HierOutcome access(Addr addr, MemOp op);

    /**
     * Reconcile the hierarchy-level counters after a baseline batch
     * (TraceEngine's predictor-less kernel drives the member caches
     * through Cache::accessBaseline and reports the totals here).
     */
    void
    noteBaselineBatch(std::uint64_t accesses, std::uint64_t l1_misses,
                      std::uint64_t l2_misses)
    {
        accesses_ += accesses;
        l1Misses_ += l1_misses;
        l2Misses_ += l2_misses;
    }

    /**
     * Prefetch @p addr into L1D replacing @p predicted_victim, and
     * install into L2 on the way.
     */
    PrefetchOutcome prefetch(Addr addr, Addr predicted_victim);

    /** Drop all cached state (used to model loss of cache contents). */
    void flush();

    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const HierarchyConfig &config() const { return config_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t l1Misses() const { return l1Misses_; }
    std::uint64_t l2Misses() const { return l2Misses_; }

  private:
    HierarchyConfig config_;
    Cache l1d_;
    Cache l2_;
    std::uint64_t accesses_ = 0;
    std::uint64_t l1Misses_ = 0;
    std::uint64_t l2Misses_ = 0;
};

template <std::uint32_t L1Assoc, std::uint32_t L2Assoc, typename Policy>
inline HierOutcome
CacheHierarchy::access(Addr addr, MemOp op)
{
    accesses_++;
    HierOutcome out;

    if (config_.perfectL1) {
        out.level = HitLevel::L1;
        return out;
    }

    const CacheOutcome l1 = l1d_.access<L1Assoc, Policy>(addr, op);
    out.l1Set = l1.set;
    if (l1.hit) {
        out.level = HitLevel::L1;
        out.l1HitOnPrefetch = l1.hitUntouchedPrefetch;
        out.l1Meta = l1.meta;
        return out;
    }

    out.l1Evicted = l1.evicted;
    out.l1VictimAddr = l1.victimAddr;
    l1Misses_++;

    const CacheOutcome l2 = l2_.access<L2Assoc, Policy>(addr, op);
    if (l2.hit) {
        out.level = HitLevel::L2;
        out.l2HitOnPrefetch = l2.hitUntouchedPrefetch;
        out.l2Meta = l2.meta;
        return out;
    }

    l2Misses_++;
    out.level = HitLevel::Memory;
    return out;
}

} // namespace ltc

#endif // LTC_CACHE_HIERARCHY_HH
