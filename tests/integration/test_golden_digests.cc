/**
 * @file
 * Golden trace digests: short simulated runs whose serialised traces
 * are pinned to FNV-1a values. Any change to the simulated numbers -
 * a reordered floating-point expression in a hoisted constant, a
 * different random draw - changes a digest and fails here. A change
 * that moves the numbers on purpose must update the constants and
 * say why.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/checksum.hh"
#include "measure/trace_io.hh"
#include "platform/server.hh"

namespace tdp {
namespace {

/**
 * Simulate `seconds` of `instances` copies of a workload (0 = idle)
 * under a measurement fault plan (none by default) and return the
 * FNV-1a of the binary trace.
 */
uint64_t
traceDigest(const std::string &workload, int instances, uint64_t seed,
            Seconds seconds, const FaultPlan &faults = {})
{
    Server::Params params;
    params.rig.faults = faults;
    Server server(seed, params);
    if (instances > 0)
        server.runner().launchStaggered(workload, instances, 0.5, 0.25);
    server.run(seconds);
    std::ostringstream os(std::ios::binary);
    writeTraceBinary(os, server.rig().collect());
    const std::string bytes = os.str();
    return fnv1a64(bytes.data(), bytes.size());
}

TEST(GoldenTraceDigest, Idle)
{
    EXPECT_EQ(traceDigest("idle", 0, 11, 20.0), 0x2641a1b4b385ca77ull);
}

TEST(GoldenTraceDigest, Gcc)
{
    EXPECT_EQ(traceDigest("gcc", 2, 12, 20.0), 0x47bb4504e5f5213full);
}

TEST(GoldenTraceDigest, Mcf)
{
    EXPECT_EQ(traceDigest("mcf", 4, 13, 20.0), 0xf1b946c34757f09aull);
}

TEST(GoldenTraceDigest, DiskLoad)
{
    EXPECT_EQ(traceDigest("diskload", 1, 14, 20.0),
              0x8f69aaaf9d072139ull);
}

TEST(GoldenTraceDigest, GccAllFaults)
{
    // Every measurement fault at once: missed, duplicated and delayed
    // pulses, dropped readings, dropped and glitched blocks, counter
    // wrap and unavailable events. Pins the aligner's recovery path.
    EXPECT_EQ(traceDigest("gcc", 2, 15, 20.0, FaultPlan::allFaults()),
              0x2151909b6b9367b1ull);
}

} // namespace
} // namespace tdp
