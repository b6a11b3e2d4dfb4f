/**
 * @file
 * Simulator throughput: references per second through each engine.
 *
 * Unlike every other bench in this directory, this one measures the
 * simulator itself, not the simulated machine: how many trace
 * references per wall-clock second the trace engine (coverage
 * taxonomy) and the timing engine (IPC) retire, per workload and
 * predictor. The paper's coverage/ordering results (Figs. 6-8) only
 * stabilize over tens of millions of references, so refs/sec is the
 * quantity that bounds every experiment's turnaround; CI uploads this
 * bench's JSON as BENCH_perf.json to track the trajectory.
 *
 * Measurement hygiene: cells run serially (one worker) regardless of
 * LTC_JOBS, so cells never compete for cores; each cell is timed
 * around engine.run() only (workload and predictor construction are
 * excluded); LTC_PERF_REPS (default 1) repeats each cell and keeps
 * the fastest repetition, squeezing out scheduler noise on shared
 * hosts. The exported numbers are wall-clock and therefore
 * machine-dependent - compare runs on one host only.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>

#include "bench_common.hh"
#include "sim/experiment.hh"
#include "sim/multiprog.hh"
#include "sim/timing_engine.hh"
#include "sim/trace_engine.hh"

using namespace ltc;

namespace
{

/** One engine x predictor configuration of the sweep. */
struct EngineConfig
{
    const char *label;     //!< config label in tables and JSON
    const char *predictor; //!< predictor name ("none" = baseline)
    bool timing;           //!< cycle engine instead of trace engine
};

/**
 * The acceptance path ("trace/none": the predictor-less per-reference
 * pipeline) first, then the predictor-heavy trace runs, then the
 * cycle engine.
 */
const EngineConfig kConfigs[] = {
    {"trace/none", "none", false},
    {"trace/lt-cords", "lt-cords", false},
    {"trace/ghb", "ghb", false},
    {"timing/none", "none", true},
    {"timing/lt-cords", "lt-cords", true},
};

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Repetitions per cell (fastest kept); LTC_PERF_REPS, default 1. */
unsigned
perfReps()
{
    const char *env = std::getenv("LTC_PERF_REPS");
    if (!env)
        return 1;
    const long v = std::strtol(env, nullptr, 10);
    return v >= 1 ? static_cast<unsigned>(v) : 1;
}

/**
 * One multi-tenant throughput cell: the Fig. 11 scheduling regime
 * (n tenants, ~4 rounds each, so quanta shrink as tenants multiply)
 * timed two ways over the identical static round-robin schedule —
 * one TraceEngine::runSchedule call ("refs_per_sec") and a loop that
 * re-enters run() per quantum ("scalar_refs_per_sec", the loop below).
 * The ratio is the cost of re-entering the kernel per quantum; at
 * 1024 tenants each quantum is only a few hundred references.
 */
void
runMultiProgCell(std::uint32_t n, RunResult &r)
{
    static constexpr std::array<const char *, 4> mix = {
        "mcf", "em3d", "gcc", "swim"};
    const double scale = n <= 8 ? 1.0 : (n <= 64 ? 0.5 : 0.25);
    std::vector<std::unique_ptr<TraceSource>> apps;
    for (std::uint32_t i = 0; i < n; i++)
        apps.push_back(makeWorkload(mix[i & 3], /*seed=*/i + 1, scale));

    MultiProgConfig cfg;
    const std::uint64_t total = refBudget(2'000'000);
    cfg.switches = static_cast<std::uint64_t>(n) * 4;
    cfg.quantumRefs.assign(
        n, std::max<std::uint64_t>(64, total / cfg.switches));
    const auto schedule = buildMultiProgSchedule(cfg);

    std::uint64_t done = 0;
    double best_batched = 0.0;
    double best_scalar = 0.0;
    {
        // Untimed warmup: touch every tenant's generator state once
        // so neither timed path pays the first-touch cost of the
        // other's measurement order.
        TraceEngine engine(paperHierarchy(), nullptr, n);
        std::vector<TraceEngine::TenantSlot> tenants(n);
        for (std::uint32_t i = 0; i < n; i++) {
            tenants[i].src = apps[i].get();
            tenants[i].bucket = i;
        }
        engine.runSchedule(tenants, schedule);
    }
    for (unsigned rep = 0; rep < perfReps(); rep++) {
        {
            for (auto &app : apps)
                app->reset();
            TraceEngine engine(paperHierarchy(), nullptr, n);
            std::vector<TraceEngine::TenantSlot> tenants(n);
            for (std::uint32_t i = 0; i < n; i++) {
                tenants[i].src = apps[i].get();
                tenants[i].bucket = i;
            }
            const auto t0 = std::chrono::steady_clock::now();
            done = engine.runSchedule(tenants, schedule);
            const double secs =
                seconds(t0, std::chrono::steady_clock::now());
            if (secs > 0.0)
                best_batched = std::max(
                    best_batched, static_cast<double>(done) / secs);
        }
        {
            for (auto &app : apps)
                app->reset();
            TraceEngine engine(paperHierarchy(), nullptr, n);
            std::uint64_t scalar_done = 0;
            const auto t0 = std::chrono::steady_clock::now();
            for (const TraceEngine::ScheduleQuantum &q : schedule) {
                engine.selectBucket(q.tenant);
                scalar_done += engine.run(*apps[q.tenant], q.refs);
            }
            const double secs =
                seconds(t0, std::chrono::steady_clock::now());
            if (secs > 0.0)
                best_scalar = std::max(
                    best_scalar,
                    static_cast<double>(scalar_done) / secs);
        }
    }

    r.set("refs", static_cast<double>(done));
    r.set("refs_per_sec", best_batched);
    r.set("scalar_refs_per_sec", best_scalar);
    r.set("speedup",
          best_scalar > 0.0 ? best_batched / best_scalar : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    ResultSink sink("perf_throughput", argc, argv);
    // Serial on purpose: parallel cells would share cores and corrupt
    // every cell's wall-clock measurement (see file comment).
    ExperimentRunner runner(1);

    std::vector<std::string> config_names;
    for (const EngineConfig &c : kConfigs)
        config_names.emplace_back(c.label);

    const std::vector<std::string> workloads =
        benchWorkloads({"swim", "mcf", "em3d", "gzip"});
    const auto cells = ExperimentRunner::cross(workloads, config_names);

    // Deliberately NOT sink.run(): refs_per_sec is a host-dependent
    // self-timed metric, so caching or resuming it across runs would
    // serve stale timings as fresh measurements.
    auto results = runner.run(cells, [](const RunCell &cell,
                                        RunResult &r) {
        const EngineConfig &cfg =
            kConfigs[ExperimentRunner::configIndex(cell,
                                                   std::size(kConfigs))];
        // The cycle engine models per-reference queue/bus state and
        // is an order of magnitude heavier; give it a smaller default
        // budget so the sweep stays in seconds.
        const std::uint64_t refs =
            refBudget(cfg.timing ? 1'000'000 : 4'000'000);

        std::uint64_t done = 0;
        double best = 0.0;
        for (unsigned rep = 0; rep < perfReps(); rep++) {
            // Fresh engine and stream per repetition: every rep
            // simulates the identical work from cold caches.
            auto src = makeWorkload(cell.workload);
            auto pred =
                makePredictor(cfg.predictor, paperHierarchy(),
                              /*model_stream_latency=*/cfg.timing);
            double secs = 0.0;
            if (cfg.timing) {
                TimingSim sim(paperTiming(), pred.get());
                const auto t0 = std::chrono::steady_clock::now();
                done = sim.run(*src, refs);
                secs = seconds(t0, std::chrono::steady_clock::now());
            } else {
                TraceEngine engine(paperHierarchy(), pred.get());
                const auto t0 = std::chrono::steady_clock::now();
                done = engine.run(*src, refs);
                secs = seconds(t0, std::chrono::steady_clock::now());
            }
            if (secs > 0.0)
                best = std::max(best,
                                static_cast<double>(done) / secs);
        }

        r.set("refs", static_cast<double>(done));
        r.set("refs_per_sec", best);
    });

    Table table("Simulator throughput (Mrefs/s of wall clock;"
                " higher is faster)");
    std::vector<std::string> header = {"benchmark"};
    header.insert(header.end(), config_names.begin(),
                  config_names.end());
    table.setHeader(header);

    const std::size_t stride = std::size(kConfigs);
    std::vector<double> base_mrps; // trace/none, the acceptance path
    for (std::size_t w = 0; w < workloads.size(); w++) {
        std::vector<std::string> row = {workloads[w]};
        for (std::size_t c = 0; c < stride; c++) {
            const double mrps =
                ExperimentRunner::at(results, w, c, stride)
                    .get("refs_per_sec") /
                1e6;
            if (c == 0)
                base_mrps.push_back(mrps);
            row.push_back(Table::num(mrps, 2));
        }
        table.addRow(row);
    }
    sink.table(table);

    // Multi-tenant engine cells: the batched schedule loop vs the
    // scalar per-quantum reference path, at 2 / 64 / 1024 tenants.
    const std::vector<std::uint32_t> tenant_counts = {2, 64, 1024};
    std::vector<RunCell> mp_cells;
    for (std::uint32_t n : tenant_counts) {
        RunCell cell;
        cell.workload = "multiprog";
        cell.config = "t";
        cell.config += std::to_string(n);
        mp_cells.push_back(cell);
    }
    ExperimentRunner::assignSeeds(mp_cells);

    auto mp_results = runner.run(
        mp_cells, [&tenant_counts](const RunCell &cell, RunResult &r) {
            runMultiProgCell(tenant_counts[cell.index], r);
        });

    Table mp_table("Multi-tenant engine throughput (Mrefs/s;"
                   " batched runSchedule vs scalar per-quantum)");
    mp_table.setHeader(
        {"tenants", "batched", "scalar", "speedup"});
    double speedup64 = 0.0;
    for (const auto &r : mp_results) {
        mp_table.addRow(
            {r.cell.config.substr(1),
             Table::num(r.get("refs_per_sec") / 1e6, 2),
             Table::num(r.get("scalar_refs_per_sec") / 1e6, 2),
             Table::num(r.get("speedup"), 2) + "x"});
        if (r.cell.config == "t64")
            speedup64 = r.get("speedup");
    }
    sink.table(mp_table);
    std::string mp_note =
        "multiprog at 64 tenants: batched schedule loop is ";
    mp_note += Table::num(speedup64, 2);
    mp_note += "x the scalar per-quantum path on the identical "
               "interleaving";
    sink.note(mp_note);
    sink.add(std::move(mp_results));

    sink.add(std::move(results));
    sink.note("trace/none (predictor-less trace engine, the batched-"
              "kernel acceptance path): " +
              Table::num(amean(base_mrps), 2) +
              " Mrefs/s mean over " +
              std::to_string(workloads.size()) +
              " workloads; wall-clock numbers, compare on one host "
              "only");
    return sink.finish();
}
