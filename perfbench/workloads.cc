#include "workloads.hh"

#include <array>
#include <cstdio>
#include <memory>
#include <span>

#include "probes.hh"
#include "sim/experiment.hh"
#include "sim/multiprog.hh"
#include "sim/timing_engine.hh"
#include "sim/trace_engine.hh"
#include "trace/workloads.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace perfbench
{

namespace
{

using ltc::CoverageStats;
using ltc::TimingStats;
using ltc::TraceEngine;
using ltc::TraceSource;

/** Timed slices per engine run; a multiple of 4, so quarters align. */
constexpr unsigned kSlices = 256;

/** References per engine run (trace pass or timing cell). */
struct Budget
{
    std::uint64_t fig8Refs;       //!< per pass, per application
    std::uint64_t table3Refs;     //!< per cell
    std::uint64_t tenantQuantum;  //!< multiprog refs per quantum
    std::uint64_t tenantRounds;   //!< multiprog quanta per tenant
};

constexpr Budget kFull = {4'000'000, 1'000'000, 512, 16};
constexpr Budget kTiny = {100'000, 50'000, 64, 2};

/** Slice @p i's share of @p total references. */
std::uint64_t
sliceRefs(std::uint64_t total, unsigned i)
{
    return total * (i + 1) / kSlices - total * i / kSlices;
}

/**
 * Collects a round's digest text and per-layer counters. Statistics
 * enter the digest as text with every digit, so two rounds agree only
 * if every statistic is bit-identical.
 */
class Recorder
{
  public:
    explicit Recorder(Round &round) : round_(round) {}

    void
    stat(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "=%.17g\n", value);
        text_ += key;
        text_ += buf;
    }

    void count(const std::string &key, double value)
    {
        round_.counters[key] += value;
    }

    void
    finish()
    {
        round_.digest = ltc::fnv1a64(
            reinterpret_cast<const unsigned char *>(text_.data()),
            text_.size());
    }

  private:
    Round &round_;
    std::string text_;
};

/** Record a failed output check against @p run. */
void
check(EngineRun &run, bool ok, const std::string &what)
{
    if (!ok)
        run.errors.push_back(what);
}

/** A generator and, in traced rounds, the probe timing its fills. */
struct Stream
{
    std::unique_ptr<TraceSource> gen;
    std::unique_ptr<TimedSource> probe;

    Stream(std::unique_ptr<TraceSource> g, double *fill_secs)
        : gen(std::move(g)),
          probe(fill_secs ? std::make_unique<TimedSource>(*gen, *fill_secs)
                          : nullptr)
    {
    }

    TraceSource &src() { return probe ? *probe : *gen; }
};

/** A predictor ("none" = null) and, in traced rounds, its counter. */
struct Predictor
{
    std::string label;
    std::unique_ptr<ltc::Prefetcher> inner;
    std::unique_ptr<CountingPrefetcher> probe;

    Predictor(std::string name, const ltc::HierarchyConfig &hier,
              bool timing, bool traced)
        : label(std::move(name)),
          inner(ltc::makePredictor(label, hier, timing)),
          probe(traced && inner
                    ? std::make_unique<CountingPrefetcher>(*inner)
                    : nullptr)
    {
    }

    ltc::Prefetcher *
    get() const
    {
        return probe ? probe.get() : inner.get();
    }
};

/** Build a workload's state, timing the build into round.setupSecs. */
template <typename Build>
auto
timedSetup(Round &round, Build &&build)
{
    const Clock::time_point t0 = Clock::now();
    auto state = build();
    round.setupSecs = since(t0);
    return state;
}

/**
 * Run @p run's slices: @p step(i) runs slice i through the engine's
 * public entry point and returns the references it consumed. Only
 * the engine call is inside the timed region.
 */
template <typename Step>
void
timeSlices(EngineRun &run, const double &fill_secs, Step &&step)
{
    std::uint64_t done = 0;
    for (unsigned i = 0; i < kSlices; i++) {
        const double fill0 = fill_secs;
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t refs = step(i);
        const double secs = since(t0);
        run.slices.push_back({refs, secs, fill_secs - fill0});
        done += refs;
    }
    check(run, done == run.requested,
          "engine consumed " + std::to_string(done) + " of " +
              std::to_string(run.requested) + " references");
}

EngineRun
newRun(std::string name, std::string engine, std::string base,
       std::uint64_t requested)
{
    EngineRun run;
    run.name = std::move(name);
    run.engine = std::move(engine);
    run.base = std::move(base);
    run.requested = requested;
    return run;
}

void
recordTraffic(Recorder &rec, const std::string &key,
              const ltc::BandwidthAccount &traffic)
{
    for (unsigned t = 0;
         t < static_cast<unsigned>(ltc::Traffic::NumClasses); t++) {
        const auto cls = static_cast<ltc::Traffic>(t);
        rec.stat(key + ".bytes." + ltc::trafficName(cls),
                 static_cast<double>(traffic.bytes(cls)));
    }
}

void
recordCoverage(Recorder &rec, const std::string &key,
               const CoverageStats &s)
{
    rec.stat(key + ".accesses", static_cast<double>(s.accesses));
    rec.stat(key + ".l1_misses", static_cast<double>(s.l1Misses));
    rec.stat(key + ".l2_misses", static_cast<double>(s.l2Misses));
    rec.stat(key + ".correct", static_cast<double>(s.correct));
    rec.stat(key + ".useless", static_cast<double>(s.uselessPrefetches));
    rec.stat(key + ".early", static_cast<double>(s.early));
    rec.stat(key + ".opportunity", static_cast<double>(s.opportunity));
    rec.stat(key + ".instructions", static_cast<double>(s.instructions));
    recordTraffic(rec, key, s.traffic);
}

/** Cache-layer statistics of @p hier: digest and cache.* counters. */
void
recordCaches(Recorder &rec, const std::string &key,
             const ltc::CacheHierarchy &hier)
{
    const ltc::Cache &l1 = hier.l1d();
    const ltc::Cache &l2 = hier.l2();
    const double l1_accesses = static_cast<double>(l1.accesses());
    const double l1_misses = static_cast<double>(l1.misses());
    const double l1_fills = static_cast<double>(l1.prefetchFills());
    const double l1_evictions = static_cast<double>(l1.evictions());
    const double l2_misses = static_cast<double>(l2.misses());
    rec.stat(key + ".l1.accesses", l1_accesses);
    rec.stat(key + ".l1.misses", l1_misses);
    rec.stat(key + ".l1.prefetch_fills", l1_fills);
    rec.stat(key + ".l1.evictions", l1_evictions);
    rec.stat(key + ".l2.accesses", static_cast<double>(l2.accesses()));
    rec.stat(key + ".l2.misses", l2_misses);
    rec.stat(key + ".l2.prefetch_fills",
             static_cast<double>(l2.prefetchFills()));
    rec.stat(key + ".l2.evictions", static_cast<double>(l2.evictions()));
    rec.count("cache.l1_accesses", l1_accesses);
    rec.count("cache.l1_misses", l1_misses);
    rec.count("cache.l2_misses", l2_misses);
    rec.count("cache.l1_prefetch_fills", l1_fills);
    rec.count("cache.l1_evictions", l1_evictions);
}

/**
 * Predictor statistics: every exported value into the digest, the
 * predictor's own counters and (traced rounds) its call counts.
 */
void
recordPredictor(Recorder &rec, const std::string &key,
                const Predictor &pred, std::uint64_t correct)
{
    if (!pred.inner)
        return;
    ltc::StatSet set(pred.label);
    pred.inner->exportStats(set);
    for (const auto &[name, value] : set.values())
        rec.stat(key + ".pred." + name, value);

    rec.count("pred.correct", static_cast<double>(correct));
    if (pred.label == "lt-cords") {
        for (const char *name : {"predictions", "signatures_streamed",
                                 "frames_in_use", "sigcache_hits",
                                 "sigcache_lookups"})
            rec.count(std::string("ltc.") + name, set.get(name));
    } else if (pred.label == "ghb") {
        for (const char *name :
             {"misses_observed", "delta_matches", "prefetches_issued"})
            rec.count(std::string("ghb.") + name, set.get(name));
    }
    if (pred.probe) {
        const PredictorCalls &calls = pred.probe->calls();
        rec.count("pred.observes", static_cast<double>(calls.observes));
        rec.count("pred.requests", static_cast<double>(calls.requests));
        rec.count("pred.prefetch_evictions",
                  static_cast<double>(calls.prefetchEvictions));
        rec.count("pred.feedback_events",
                  static_cast<double>(calls.feedbackEvents));
    }
}

// ------------------------------------------------------- fig8-ltcords

/**
 * Fig. 8's recipe for swim, then mcf: a predictor-less opportunity
 * pass, then an lt-cords pass over the identical stream.
 */
Round
fig8Round(const Options &opt, bool traced)
{
    const std::uint64_t refs = (opt.tiny ? kTiny : kFull).fig8Refs;
    const ltc::HierarchyConfig hier = ltc::paperHierarchy();

    struct App
    {
        std::string name;
        Stream stream;
        TraceEngine baseline;
        Predictor pred;
        TraceEngine engine;
    };
    struct State
    {
        double fillSecs = 0.0;
        std::vector<std::unique_ptr<App>> apps;
    };

    Round round;
    const auto state = timedSetup(round, [&] {
        auto st = std::make_unique<State>();
        for (const char *name : {"swim", "mcf"}) {
            Stream stream(ltc::makeWorkload(name, opt.seed),
                          traced ? &st->fillSecs : nullptr);
            Predictor pred("lt-cords", hier, /*timing=*/false, traced);
            ltc::Prefetcher *p = pred.get();
            st->apps.push_back(std::unique_ptr<App>(new App{
                name, std::move(stream), {hier, nullptr},
                std::move(pred), {hier, p}}));
        }
        return st;
    });
    if (opt.setupOnly)
        return round;

    Recorder rec(round);
    for (const std::unique_ptr<App> &app : state->apps) {
        TraceSource &src = app->stream.src();

        EngineRun opp = newRun(app->name + "/none", "trace", "", refs);
        timeSlices(opp, state->fillSecs, [&](unsigned i) {
            return app->baseline.run(src, sliceRefs(refs, i));
        });
        app->baseline.auditInvariants();
        const CoverageStats &base = app->baseline.stats();
        check(opp, base.accesses == refs,
              "accesses != references requested");
        recordCoverage(rec, opp.name, base);
        recordCaches(rec, opp.name, app->baseline.hierarchy());

        src.reset();
        EngineRun run = newRun(app->name + "/lt-cords", "trace",
                               opp.name, refs);
        timeSlices(run, state->fillSecs, [&](unsigned i) {
            return app->engine.run(src, sliceRefs(refs, i));
        });
        app->engine.auditInvariants();
        CoverageStats stats = app->engine.stats();
        stats.opportunity = base.l1Misses;
        check(run, stats.accesses == refs,
              "accesses != references requested");
        check(run, stats.correct <= stats.opportunity,
              "correct > opportunity");
        recordCoverage(rec, run.name, stats);
        recordCaches(rec, run.name, app->engine.hierarchy());
        recordPredictor(rec, run.name, app->pred, stats.correct);

        round.runs.push_back(std::move(opp));
        round.runs.push_back(std::move(run));
    }
    rec.finish();
    return round;
}

// ------------------------------------------------------ table3-timing

void
recordTiming(Recorder &rec, const std::string &key, const TimingStats &s)
{
    rec.stat(key + ".cycles", static_cast<double>(s.cycles));
    rec.stat(key + ".instructions", static_cast<double>(s.instructions));
    rec.stat(key + ".accesses", static_cast<double>(s.accesses));
    rec.stat(key + ".l1_misses", static_cast<double>(s.l1Misses));
    rec.stat(key + ".l2_misses", static_cast<double>(s.l2Misses));
    rec.stat(key + ".correct", static_cast<double>(s.correct));
    rec.stat(key + ".partial", static_cast<double>(s.partial));
    rec.stat(key + ".useless", static_cast<double>(s.useless));
    rec.stat(key + ".dropped", static_cast<double>(s.dropped));
    rec.stat(key + ".mem_bus_busy", static_cast<double>(s.memBusBusy));
    rec.stat(key + ".l1l2_bus_busy", static_cast<double>(s.l1l2BusBusy));
    rec.stat(key + ".l1l2_req_queue", static_cast<double>(s.l1l2ReqQueue));
    rec.stat(key + ".l1l2_data_queue",
             static_cast<double>(s.l1l2DataQueue));
    rec.stat(key + ".mem_req_queue", static_cast<double>(s.memReqQueue));
    rec.stat(key + ".mem_data_queue", static_cast<double>(s.memDataQueue));
    rec.stat(key + ".miss_latency_total",
             static_cast<double>(s.missLatencyTotal));
    recordTraffic(rec, key, s.traffic);
    rec.stat(key + ".ipc", s.ipc);

    rec.count("timing.cycles", static_cast<double>(s.cycles));
    rec.count("timing.mem_bus_busy", static_cast<double>(s.memBusBusy));
    rec.count("timing.mem_queue_cycles",
              static_cast<double>(s.memReqQueue + s.memDataQueue));
    rec.count("timing.l1l2_queue_cycles",
              static_cast<double>(s.l1l2ReqQueue + s.l1l2DataQueue));
    rec.count("timing.miss_latency_total",
              static_cast<double>(s.missLatencyTotal));
    rec.count("timing.l1_misses", static_cast<double>(s.l1Misses));
    rec.count("timing.prefetch_dropped", static_cast<double>(s.dropped));
    rec.count("timing.prefetch_partial", static_cast<double>(s.partial));
}

/**
 * Table 3's recipe: TimingSim::run over {none, lt-cords, ghb} for
 * mcf, then swim, one cell after another.
 */
Round
table3Round(const Options &opt, bool traced)
{
    const std::uint64_t refs = (opt.tiny ? kTiny : kFull).table3Refs;
    const ltc::TimingConfig config = ltc::paperTiming();

    struct Cell
    {
        std::string app;
        Stream stream;
        Predictor pred;
        ltc::TimingSim sim;
    };
    struct State
    {
        double fillSecs = 0.0;
        std::vector<std::unique_ptr<Cell>> cells;
    };

    Round round;
    const auto state = timedSetup(round, [&] {
        auto st = std::make_unique<State>();
        for (const char *app : {"mcf", "swim"}) {
            for (const char *pred_name : {"none", "lt-cords", "ghb"}) {
                Stream stream(ltc::makeWorkload(app, opt.seed),
                              traced ? &st->fillSecs : nullptr);
                Predictor pred(pred_name, config.hier, /*timing=*/true,
                               traced);
                ltc::Prefetcher *p = pred.get();
                st->cells.push_back(std::unique_ptr<Cell>(new Cell{
                    app, std::move(stream), std::move(pred),
                    {config, p}}));
            }
        }
        return st;
    });
    if (opt.setupOnly)
        return round;

    Recorder rec(round);
    for (const std::unique_ptr<Cell> &cell : state->cells) {
        const bool predicted = cell->pred.inner != nullptr;
        EngineRun run = newRun(cell->app + "/" + cell->pred.label,
                               "timing",
                               predicted ? cell->app + "/none" : "",
                               refs);
        TraceSource &src = cell->stream.src();
        timeSlices(run, state->fillSecs, [&](unsigned i) {
            return cell->sim.run(src, sliceRefs(refs, i));
        });
        cell->sim.auditInvariants();
        const TimingStats s = cell->sim.stats();
        check(run, s.accesses == refs, "accesses != references requested");
        check(run,
              s.cycles > 0 && s.ipc == static_cast<double>(s.instructions) /
                                           static_cast<double>(s.cycles),
              "ipc != instructions / cycles");
        recordTiming(rec, run.name, s);
        recordCaches(rec, run.name, cell->sim.hierarchy());
        recordPredictor(rec, run.name, cell->pred, s.correct);
        round.runs.push_back(std::move(run));
    }
    rec.finish();
    return round;
}

// ----------------------------------------------------- multiprog-1024

/**
 * Fig. 11's scale path: predictor-less TraceEngine::runSchedule over
 * 1024 tenants (an mcf/em3d/gcc/swim mix at scale 0.25, each in its
 * own address range) under buildMultiProgSchedule's static
 * round-robin. The schedule is run in kSlices contiguous pieces.
 */
Round
multiprogRound(const Options &opt, bool traced)
{
    constexpr std::uint32_t kTenants = 1024;
    static constexpr std::array<const char *, 4> kMix = {
        "mcf", "em3d", "gcc", "swim"};
    const Budget &budget = opt.tiny ? kTiny : kFull;

    struct State
    {
        double fillSecs = 0.0;
        ltc::MultiProgConfig cfg;
        std::vector<TraceEngine::ScheduleQuantum> schedule;
        std::vector<Stream> streams;
        std::vector<TraceEngine::TenantSlot> tenants;
        std::unique_ptr<TraceEngine> engine;
    };

    Round round;
    const auto state = timedSetup(round, [&] {
        auto st = std::make_unique<State>();
        st->cfg.hier = ltc::paperHierarchy();
        st->cfg.switches = std::uint64_t{kTenants} * budget.tenantRounds;
        st->cfg.quantumRefs.assign(kTenants, budget.tenantQuantum);
        st->schedule = ltc::buildMultiProgSchedule(st->cfg);
        st->streams.reserve(kTenants);
        st->tenants.resize(kTenants);
        for (std::uint32_t i = 0; i < kTenants; i++) {
            st->streams.emplace_back(
                std::make_unique<ltc::ShiftSource>(
                    ltc::makeWorkload(kMix[i & 3], opt.seed + i, 0.25),
                    st->cfg.addressStride * static_cast<ltc::Addr>(i)),
                traced ? &st->fillSecs : nullptr);
            st->tenants[i].src = &st->streams[i].src();
            st->tenants[i].bucket = i;
        }
        st->engine =
            std::make_unique<TraceEngine>(st->cfg.hier, nullptr, kTenants);
        return st;
    });
    if (opt.setupOnly)
        return round;
    TraceEngine &engine = *state->engine;

    std::uint64_t total = 0;
    std::vector<std::uint64_t> expected(kTenants, 0);
    for (const TraceEngine::ScheduleQuantum &q : state->schedule) {
        total += q.refs;
        expected[q.tenant] += q.refs;
    }

    EngineRun run = newRun("mix1024/none", "schedule", "", total);
    const std::span<const TraceEngine::ScheduleQuantum> quanta(
        state->schedule);
    timeSlices(run, state->fillSecs, [&](unsigned i) {
        const std::size_t lo = quanta.size() * i / kSlices;
        const std::size_t hi = quanta.size() * (i + 1) / kSlices;
        return engine.runSchedule(state->tenants,
                                  quanta.subspan(lo, hi - lo));
    });
    engine.auditInvariants();

    Recorder rec(round);
    std::uint64_t bad_tenants = 0;
    for (std::uint32_t i = 0; i < kTenants; i++) {
        const CoverageStats &s = engine.stats(i);
        bad_tenants += s.accesses != expected[i] ? 1 : 0;
        recordCoverage(rec, "tenant" + std::to_string(i), s);
    }
    check(run, bad_tenants == 0,
          std::to_string(bad_tenants) +
              " tenants' accesses != their scheduled refs");
    recordCaches(rec, run.name, engine.hierarchy());
    rec.count("sched.quanta", static_cast<double>(quanta.size()));
    rec.count("sched.refs", static_cast<double>(total));
    round.runs.push_back(std::move(run));
    rec.finish();
    return round;
}

} // namespace

Round
runRound(const std::string &workload, const Options &opt, bool traced)
{
    if (workload == "fig8-ltcords")
        return fig8Round(opt, traced);
    if (workload == "table3-timing")
        return table3Round(opt, traced);
    if (workload == "multiprog-1024")
        return multiprogRound(opt, traced);
    ltc_fatal("unknown workload '", workload, "'");
}

} // namespace perfbench
