/**
 * @file
 * Shared main() body for the google-benchmark binaries: runs every
 * registered benchmark with the repo's repetition policy
 * (--repetitions / TDP_BENCH_REPS, see bench_stats.hh) and writes the
 * per-repetition series as BENCH_<bench>.json so the perf trajectory
 * covers the microbenchmarks too.
 *
 * Header-only because each bench binary is its own translation unit
 * and the helper needs benchmark.h, which the tdp_bench_stats library
 * deliberately does not link.
 */

#ifndef TDP_BENCH_GBENCH_JSON_HH
#define TDP_BENCH_GBENCH_JSON_HH

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "bench_stats.hh"
#include "common/logging.hh"

namespace tdp {
namespace bench {

/** Marks one gbench counter as gated by the CI perf gate. */
struct GbenchGate
{
    /** Counter name as registered on the benchmark state. */
    std::string counter;

    /** "higher", "lower" or "exact" (see MetricSeries). */
    std::string direction = "lower";
};

namespace gbench_detail {

/** Collects per-repetition runs, then prints the console report. */
class SeriesReporter : public benchmark::ConsoleReporter
{
  public:
    /** name -> counter ("" = per-iteration seconds) -> series. */
    using Series =
        std::map<std::string, std::map<std::string, std::vector<double>>>;

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration)
                continue; // aggregates are recomputed by the writer
            auto &by_counter = series_[run.benchmark_name()];
            if (run.iterations > 0) {
                by_counter[""].push_back(
                    run.real_accumulated_time /
                    static_cast<double>(run.iterations));
            }
            for (const auto &[name, counter] : run.counters)
                by_counter[name].push_back(counter.value);
            if (order_.empty() ||
                order_.back() != run.benchmark_name())
                order_.push_back(run.benchmark_name());
        }
        benchmark::ConsoleReporter::ReportRuns(reports);
    }

    const Series &series() const { return series_; }

    /** Benchmark names in first-reported order. */
    const std::vector<std::string> &order() const { return order_; }

  private:
    Series series_;
    std::vector<std::string> order_;
};

} // namespace gbench_detail

/**
 * The shared main body: parse --repetitions, run all benchmarks with
 * that many repetitions, print the usual console report and write
 * BENCH_<bench>.json. Counters named in `gates` are marked for the
 * CI perf gate; timing metrics never are (machine-dependent).
 */
inline int
runGbenchMain(const std::string &bench, int argc, char **argv,
              const std::vector<GbenchGate> &gates)
{
    setLogLevelFromEnvironment();
    argc = applyRepetitionsFlag(argc, argv);

    // Re-pack argv with the repetition flags up front; later
    // user-provided --benchmark_* flags still win (last wins).
    std::vector<std::string> args;
    args.push_back(argc > 0 ? argv[0] : bench.c_str());
    args.push_back(formatString("--benchmark_repetitions=%d",
                                benchRepetitions()));
    args.push_back("--benchmark_report_aggregates_only=false");
    for (int i = 1; i < argc; ++i)
        args.push_back(argv[i]);
    std::vector<char *> cargs;
    for (std::string &arg : args)
        cargs.push_back(arg.data());
    int cargc = static_cast<int>(cargs.size());

    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;

    gbench_detail::SeriesReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    std::vector<MetricSeries> metrics;
    for (const std::string &name : reporter.order()) {
        const auto &by_counter = reporter.series().at(name);
        for (const auto &[counter, values] : by_counter) {
            MetricSeries m;
            // Appended in place and move-assigned: g++ 12 reports a
            // false -Wrestrict on `name + "." + counter` and on
            // assigning the unit literal directly.
            m.name = name;
            m.name += '.';
            m.name += counter.empty() ? "seconds_per_iter" : counter;
            m.values = values;
            m.unit = std::string(counter.empty() ? "s" : "");
            for (const GbenchGate &gate : gates) {
                if (gate.counter == counter) {
                    m.gate = true;
                    m.direction = gate.direction;
                }
            }
            metrics.push_back(std::move(m));
        }
    }
    if (!metrics.empty())
        writeBenchSeriesJson(bench, metrics);
    return 0;
}

} // namespace bench
} // namespace tdp

#endif // TDP_BENCH_GBENCH_JSON_HH
