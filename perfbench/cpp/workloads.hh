/**
 * @file
 * The benchmark's workloads. Each runs its set-up, measured passes
 * and, for a seed other than the paper's, one unmeasured pass at the
 * paper seed whose outputs are checked against the committed
 * reference.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "bench.hh"

namespace perfbench {

/** repro_cold and repro_warm: the Tables 1-4 pipeline. */
void runRepro(const Options &options, RunResult &result, SpanLog &log);

/** stream_drift: the streaming service. */
void runStream(const Options &options, RunResult &result, SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
