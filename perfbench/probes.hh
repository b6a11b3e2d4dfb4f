/**
 * @file
 * Probes the benchmark wraps around the simulator's public interfaces.
 *
 * Both forward every call unchanged, so a traced round simulates the
 * identical event sequence (and yields the identical statistics
 * digest) as an untraced one:
 *
 *  - TimedSource times each TraceSource::fill() batch, which is the
 *    whole of trace generation: the engines pull references only
 *    through fill();
 *  - CountingPrefetcher counts predictor calls and never reads the
 *    clock, because a clock read per predictor call would cost more
 *    than many of the calls it measures.
 */

#ifndef LTC_PERFBENCH_PROBES_HH
#define LTC_PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "pred/prefetcher.hh"
#include "trace/trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Forwards a TraceSource and adds the host time spent in fill() to a
 * tally that several sources may share.
 */
class TimedSource final : public ltc::TraceSource
{
  public:
    TimedSource(ltc::TraceSource &inner, double &fill_secs)
        : inner_(inner), fillSecs_(fill_secs)
    {
    }

    /** Untimed: the engines' batched kernels pull only through fill(). */
    bool next(ltc::MemRef &out) override { return inner_.next(out); }
    std::size_t fill(std::span<ltc::MemRef> out) override;
    void reset() override { inner_.reset(); }
    std::string name() const override { return inner_.name(); }

  private:
    ltc::TraceSource &inner_;
    double &fillSecs_;
};

/** Calls a CountingPrefetcher has forwarded, by kind. */
struct PredictorCalls
{
    std::uint64_t observes = 0;
    std::uint64_t requests = 0; //!< prefetch requests handed to the engine
    std::uint64_t prefetchEvictions = 0;
    std::uint64_t feedbackEvents = 0;
};

/**
 * Forwards a Prefetcher and counts its calls. Requests the inner
 * predictor enqueues are moved into this object's queue after every
 * forwarded call, in order, so the engine drains exactly what it
 * would have drained from the inner predictor.
 */
class CountingPrefetcher final : public ltc::Prefetcher
{
  public:
    explicit CountingPrefetcher(ltc::Prefetcher &inner) : inner_(inner) {}

    void observe(const ltc::MemRef &ref,
                 const ltc::HierOutcome &out) override;
    void onPrefetchEviction(ltc::Addr victim_addr,
                            ltc::Addr incoming_addr) override;
    void feedback(const ltc::PrefetchFeedback &fb) override;
    void feedbackBatch(const ltc::PrefetchFeedback *fbs,
                       std::size_t n) override;
    void setNow(ltc::Cycle now) override;
    void selectTenant(std::uint32_t tenant) override;
    std::string name() const override { return inner_.name(); }
    void exportStats(ltc::StatSet &set) const override
    {
        inner_.exportStats(set);
    }
    void auditInvariants() const override { inner_.auditInvariants(); }
    std::pair<std::uint64_t, std::uint64_t> drainMetaTraffic() override;

    const PredictorCalls &calls() const { return calls_; }

  private:
    /** Move the inner predictor's pending requests into our queue. */
    void takeRequests();

    ltc::Prefetcher &inner_;
    std::vector<ltc::PrefetchRequest> taken_;
    PredictorCalls calls_;
};

} // namespace perfbench

#endif // LTC_PERFBENCH_PROBES_HH
