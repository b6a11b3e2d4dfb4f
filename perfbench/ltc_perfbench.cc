/**
 * @file
 * The benchmark's measuring process (run it through perfbench/run.py).
 *
 *     ltc_perfbench --workload <name> [--seed N] [--seconds S]
 *                   [--trace 0|1] [--tiny] [--setup-only]
 *
 * Runs rounds of one workload (workloads.hh) back to back, single
 * threaded, as many as fit in --seconds (at least one round; with
 * --trace 1 at least one untraced and one traced round, alternating).
 * Each round is printed as one JSON line with its set-up time, every
 * timed slice, its per-layer counters, its check failures and its
 * statistics digest; run.py turns the lines into metrics. With
 * --setup-only the process builds the workload's state once, in a
 * fresh heap as a user's run does, and prints only that round's
 * set-up time.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "probes.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ltc_perfbench: %s\n"
                 "usage: ltc_perfbench --workload <name> [--seed N]"
                 " [--seconds S] [--trace 0|1] [--tiny] [--setup-only]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

/** @p s as a JSON string literal (names here need no escapes). */
std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
object(const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (const auto &[key, value] : values) {
        out += out.size() > 1 ? "," : "";
        out += quoted(key) + ":" + number(value);
    }
    return out + "}";
}

void
printRound(unsigned index, bool traced, const Round &round)
{
    std::string out = "{\"round\":" + std::to_string(index) +
        ",\"traced\":" + (traced ? "true" : "false") +
        ",\"setup_s\":" + number(round.setupSecs);
    char digest[24];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(round.digest));
    out += ",\"digest\":" + quoted(digest) + ",\"runs\":[";
    for (std::size_t r = 0; r < round.runs.size(); r++) {
        const EngineRun &run = round.runs[r];
        out += r ? ",{" : "{";
        out += "\"name\":" + quoted(run.name) +
            ",\"engine\":" + quoted(run.engine) +
            ",\"base\":" + quoted(run.base) +
            ",\"requested\":" + std::to_string(run.requested) +
            ",\"errors\":[";
        for (std::size_t e = 0; e < run.errors.size(); e++) {
            out += e ? "," : "";
            out += quoted(run.errors[e]);
        }
        out += "],\"slices\":[";
        for (std::size_t s = 0; s < run.slices.size(); s++) {
            const Slice &sl = run.slices[s];
            out += s ? ",[" : "[";
            out += std::to_string(sl.refs);
            out += ',';
            out += number(sl.secs);
            out += ',';
            out += number(sl.fillSecs);
            out += ']';
        }
        out += "]}";
    }
    out += "],\"counters\":" + object(round.counters) + "}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    Options opt;
    double seconds = 10.0;
    bool trace = false;
    for (int i = 1; i < argc; i++) {
        const char *flag = argv[i];
        if (std::strcmp(flag, "--tiny") == 0) {
            opt.tiny = true;
            continue;
        }
        if (std::strcmp(flag, "--setup-only") == 0) {
            opt.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value");
        const char *value = argv[++i];
        if (std::strcmp(flag, "--workload") == 0)
            workload = value;
        else if (std::strcmp(flag, "--seed") == 0)
            opt.seed = parseCount(flag, value);
        else if (std::strcmp(flag, "--seconds") == 0)
            seconds = static_cast<double>(parseCount(flag, value));
        else if (std::strcmp(flag, "--trace") == 0)
            trace = parseCount(flag, value) != 0;
        else
            usage("unknown flag");
    }
    if (workload.empty())
        usage("--workload is required");
    if (opt.setupOnly) {
        printRound(0, false, runRound(workload, opt, false));
        return 0;
    }

    const Clock::time_point start = Clock::now();
    const unsigned min_rounds = trace ? 2 : 1;
    // A round starts only if it should end within --seconds, judged
    // by the longest round so far, so a run does not overrun by most
    // of a round.
    double longest = 0.0;
    for (unsigned i = 0;
         i < min_rounds || since(start) + longest <= seconds; i++) {
        // Traced runs alternate untraced and traced rounds, so the
        // tracing overhead is measured under the same host conditions.
        const bool traced = trace && (i % 2 == 1);
        const Clock::time_point t0 = Clock::now();
        printRound(i, traced, runRound(workload, opt, traced));
        longest = std::max(longest, since(t0));
    }
    return 0;
}
