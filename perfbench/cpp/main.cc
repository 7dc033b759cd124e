/**
 * @file
 * Benchmark program entry point. Normally started by perfbench/run.py,
 * which builds it, analyses the result file and prints the metrics:
 *
 *   perfbench --workload NAME --seed N --seconds S --jobs J
 *                    --trace 0|1 --out FILE --scratch DIR
 */

#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"
#include "common/logging.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            tdp::fatal("perfbench: %s expects a value", flag.c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value, nullptr, 0);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value, nullptr);
        else if (flag == "--jobs")
            options.jobs = std::atoi(value);
        else if (flag == "--trace")
            options.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--out")
            options.out = value;
        else if (flag == "--scratch")
            options.scratch = value;
        else
            tdp::fatal("perfbench: unknown flag %s", flag.c_str());
    }
    if (options.out.empty() || options.scratch.empty())
        tdp::fatal("perfbench: --out and --scratch are required");
    if (options.jobs < 1 || !(options.seconds > 0.0))
        tdp::fatal("perfbench: --jobs and --seconds must be positive");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    RunResult result;
    SpanLog log;
    if (options.workload == "repro_cold" ||
        options.workload == "repro_warm")
        runRepro(options, result, log);
    else if (options.workload == "stream_drift")
        runStream(options, result, log);
    else
        tdp::fatal("perfbench: unknown workload '%s'",
                   options.workload.c_str());

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    result.peakRssKb = static_cast<uint64_t>(usage.ru_maxrss);
    writeResult(options.out, options, result, log);
    return 0;
}
