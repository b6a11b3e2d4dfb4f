#include "probes.hh"

namespace perfbench
{

std::size_t
TimedSource::fill(std::span<ltc::MemRef> out)
{
    const Clock::time_point t0 = Clock::now();
    const std::size_t n = inner_.fill(out);
    fillSecs_ += since(t0);
    return n;
}

void
CountingPrefetcher::takeRequests()
{
    if (!inner_.hasRequests())
        return;
    inner_.drainRequestsInto(taken_);
    for (const ltc::PrefetchRequest &req : taken_)
        enqueue(req);
    calls_.requests += taken_.size();
}

void
CountingPrefetcher::observe(const ltc::MemRef &ref,
                            const ltc::HierOutcome &out)
{
    calls_.observes++;
    inner_.observe(ref, out);
    takeRequests();
}

void
CountingPrefetcher::onPrefetchEviction(ltc::Addr victim_addr,
                                       ltc::Addr incoming_addr)
{
    calls_.prefetchEvictions++;
    inner_.onPrefetchEviction(victim_addr, incoming_addr);
    takeRequests();
}

void
CountingPrefetcher::feedback(const ltc::PrefetchFeedback &fb)
{
    calls_.feedbackEvents++;
    inner_.feedback(fb);
    takeRequests();
}

void
CountingPrefetcher::feedbackBatch(const ltc::PrefetchFeedback *fbs,
                                  std::size_t n)
{
    calls_.feedbackEvents += n;
    inner_.feedbackBatch(fbs, n);
    takeRequests();
}

void
CountingPrefetcher::setNow(ltc::Cycle now)
{
    inner_.setNow(now);
    takeRequests();
}

void
CountingPrefetcher::selectTenant(std::uint32_t tenant)
{
    inner_.selectTenant(tenant);
    takeRequests();
}

std::pair<std::uint64_t, std::uint64_t>
CountingPrefetcher::drainMetaTraffic()
{
    const auto traffic = inner_.drainMetaTraffic();
    takeRequests();
    return traffic;
}

} // namespace perfbench
