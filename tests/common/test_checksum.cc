/**
 * @file
 * Pins the shared FNV-1a 64 hash and every value derived from it.
 *
 * Trace-cache keys and string-derived RNG seeds are all stored on
 * disk or baked into outputs, so they must never move: a changed
 * value here means existing cache entries and checkpoints would be
 * rejected or silently re-keyed. The derived values below were
 * recorded before the hash copies were folded into common/checksum;
 * a deliberate traceCacheCodeSalt bump is the one legitimate reason
 * to re-record the run fingerprint.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "common/bench_util.hh"
#include "common/checksum.hh"
#include "common/random.hh"
#include "trace/fingerprint.hh"

namespace tdp {
namespace {

TEST(Checksum, PublishedFnv1a64Vectors)
{
    EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST(Checksum, SeedChainsAcrossSplits)
{
    const uint64_t head = fnv1a64("foo", 3);
    EXPECT_EQ(fnv1a64("bar", 3, head), fnv1a64("foobar", 6));
}

TEST(Checksum, HashStringIsStable)
{
    EXPECT_EQ(hashString("gcc"), 0x8463db0117a46461ull);
}

TEST(Checksum, RunFingerprintIsStable)
{
    bench::RunSpec spec;
    spec.workload = "gcc";
    spec.instances = 4;
    spec.duration = 60.0;
    spec.skip = 10.0;
    spec.seed = 0x5eed;
    EXPECT_EQ(bench::runFingerprint(spec), 0x9907cdc557f11d97ull);
}

TEST(Checksum, FingerprintMixesAreStable)
{
    FaultPlan plan;
    plan.counterWidthBits = 32;
    plan.unavailableEvents = {PerfEvent::TlbMisses};
    Fingerprint fp;
    fp.mixString("gcc")
        .mixI64(-4)
        .mixDouble(-0.0)
        .mixU64(0x5eed)
        .mixBytes("xyz", 3)
        .mixFaultPlan(plan);
    EXPECT_EQ(fp.digest(), 0xe5ddf9098b6e2c9bull);
}

} // namespace
} // namespace tdp
