/**
 * @file
 * Retention of the measurement rig: alignment runs at every sync
 * pulse, so the DAQ's block and pulse queues hold about two sampling
 * periods whatever the run length, plus one period per measurement
 * fault in a row. The bounds are counts, not RSS readings.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "platform/server.hh"

namespace tdp {
namespace {

/** Largest queue lengths seen while a run progressed. */
struct Retention
{
    size_t blocks = 0;
    size_t pulses = 0;
    size_t alignedBeforeCollect = 0;
    size_t alignedAfterCollect = 0;
    size_t quantaPerPeriod = 0;
};

/** Run `seconds` of 2x gcc, sampling the DAQ queues every 0.1 s. */
Retention
measureRetention(const FaultPlan &faults, Seconds seconds)
{
    Server::Params params;
    params.rig.faults = faults;
    Server server(21, params);
    server.runner().launchStaggered("gcc", 2, 0.5, 0.25);

    Retention seen;
    seen.quantaPerPeriod = static_cast<size_t>(
        secondsToTicks(params.rig.sampler.period) / params.quantum);
    const int steps = static_cast<int>(seconds / 0.1 + 0.5);
    for (int i = 0; i < steps; ++i) {
        server.run(0.1);
        DataAcquisition &daq = server.rig().daq();
        seen.blocks = std::max(seen.blocks, daq.blocks().size());
        seen.pulses = std::max(seen.pulses, daq.pulses().size());
    }
    seen.alignedBeforeCollect = server.rig().trace().size();
    seen.alignedAfterCollect = server.rig().collect().size();
    return seen;
}

TEST(RigRetention, CleanRunHoldsTwoPeriods)
{
    // The window a pulse closes waits for its reading, which is queued
    // just after the pulse: at most two windows of blocks are held,
    // plus the sampling jitter (1% of a period covers it).
    const Retention seen = measureRetention(FaultPlan{}, 120.0);
    const size_t slack = seen.quantaPerPeriod / 100;
    EXPECT_LE(seen.blocks, 2 * seen.quantaPerPeriod + slack);
    EXPECT_GE(seen.blocks, seen.quantaPerPeriod);
    EXPECT_LE(seen.pulses, 3u);
    // Every window but the trailing one was aligned as the run went.
    EXPECT_GE(seen.alignedBeforeCollect, 115u);
    EXPECT_LE(seen.alignedAfterCollect, seen.alignedBeforeCollect + 1);
}

TEST(RigRetention, FaultedRunStaysBounded)
{
    // A missed pulse or a dropped reading keeps its window queued until
    // the next read, so each fault in a row holds one more period. At
    // the 5% rates of allFaults() this run's longest row is two, and a
    // run-length queue would hold ~120 periods.
    const Retention seen =
        measureRetention(FaultPlan::allFaults(), 120.0);
    const size_t slack = seen.quantaPerPeriod / 100;
    EXPECT_LE(seen.blocks, 4 * seen.quantaPerPeriod + slack);
    EXPECT_LE(seen.pulses, 6u);
    EXPECT_GE(seen.alignedBeforeCollect, 100u);
    EXPECT_LE(seen.alignedAfterCollect, seen.alignedBeforeCollect + 1);
}

} // namespace
} // namespace tdp
