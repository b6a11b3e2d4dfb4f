/**
 * @file
 * The benchmark's workloads and the records one round of each leaves.
 *
 * A round builds every generator, predictor and engine of its
 * workload (timed as set-up), then drives the engines through their
 * public entry points in slices, timing each slice. After each
 * engine run, outside the timed region, it audits the engine and
 * checks the run's conservation laws. Each round simulates the
 * identical work, so every round of a workload must produce the same
 * statistics digest.
 */

#ifndef LTC_PERFBENCH_WORKLOADS_HH
#define LTC_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** What a round simulates. */
struct Options
{
    /** Seed for makeWorkload and the multiprog tenant generators. */
    std::uint64_t seed = 1;
    /** Small budgets for the self-test (not for measurement). */
    bool tiny = false;
    /** Build the workload's state, time it, and run nothing. */
    bool setupOnly = false;
};

/** One timed slice of an engine run. */
struct Slice
{
    std::uint64_t refs = 0;
    double secs = 0.0;     //!< host time inside the engine call
    double fillSecs = 0.0; //!< part of secs spent in TraceSource::fill
};

/** One engine run: a trace pass, a timing cell or a schedule. */
struct EngineRun
{
    std::string name;   //!< e.g. "swim/lt-cords"
    std::string engine; //!< "trace", "timing" or "schedule"
    /**
     * The predictor-less run over the identical stream in the same
     * round, or empty when this run has no predictor.
     */
    std::string base;
    std::uint64_t requested = 0; //!< references asked for
    std::vector<Slice> slices;
    /** Failed output checks; empty when the run passed. */
    std::vector<std::string> errors;
};

/** Everything one round measured and simulated. */
struct Round
{
    /** Host seconds the round took to build its workload's state. */
    double setupSecs = 0.0;
    std::vector<EngineRun> runs;
    /** Per-layer work counts, summed over the round's runs. */
    std::map<std::string, double> counters;
    /** Digest of every simulated statistic of the round. */
    std::uint64_t digest = 0;
};

/**
 * Run one round of @p workload (fig8-ltcords, table3-timing or
 * multiprog-1024). With @p traced, generators are timed per fill()
 * batch and predictors' calls are counted (probes.hh).
 */
Round runRound(const std::string &workload, const Options &opt,
               bool traced);

} // namespace perfbench

#endif // LTC_PERFBENCH_WORKLOADS_HH
