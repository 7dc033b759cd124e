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
#include <vector>

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

TEST(Checksum, TwoLaneMatchesTwoCalls)
{
    // Every tail length a byte loop can mishandle, then one buffer
    // the size of a stream_drift checkpoint.
    std::vector<unsigned char> bytes(391495);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (unsigned char &b : bytes) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        b = static_cast<unsigned char>(x >> 56);
    }
    const uint64_t seedA = 0x0123456789abcdefull;
    const uint64_t seedB = fnv1aBasis;
    for (size_t len = 0; len <= 257; ++len) {
        const auto [a, b] = fnv1a64Pair(bytes.data() + 3, len, seedA, seedB);
        EXPECT_EQ(a, fnv1a64(bytes.data() + 3, len, seedA)) << len;
        EXPECT_EQ(b, fnv1a64(bytes.data() + 3, len, seedB)) << len;
    }
    const auto [a, b] =
        fnv1a64Pair(bytes.data(), bytes.size(), seedB, 0x5eedull);
    EXPECT_EQ(a, fnv1a64(bytes.data(), bytes.size()));
    EXPECT_EQ(b, fnv1a64(bytes.data(), bytes.size(), 0x5eedull));
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
