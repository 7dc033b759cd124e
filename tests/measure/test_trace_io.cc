/**
 * @file
 * Binary trace serialisation tests: lossless round trips (including
 * the NaN/Inf samples of fault-injected runs), header validation and
 * corruption detection.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "measure/trace_io.hh"
#include "platform/server.hh"

namespace tdp {
namespace {

/** Build a double with an exact bit pattern (NaN payloads etc). */
double
fromBits(uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** A synthetic trace exercising every field and pathological value. */
SampleTrace
pathologicalTrace()
{
    SampleTrace trace;

    AlignedSample plain;
    plain.time = 1.0;
    plain.interval = 0.998;
    plain.osInterruptsTotal = 1234.0;
    plain.osDiskInterrupts = 56.0;
    plain.osDeviceInterrupts = 78.0;
    plain.perCpu.resize(4);
    for (size_t c = 0; c < plain.perCpu.size(); ++c)
        for (int e = 0; e < numPerfEvents; ++e)
            plain.perCpu[c].counts[static_cast<size_t>(e)] =
                static_cast<double>(c * 100 + e) + 0.25;
    for (int r = 0; r < numRails; ++r)
        plain.measuredWatts[static_cast<size_t>(r)] = 10.0 + r;
    trace.add(plain);

    // A glitched window: NaN/Inf watts, NaN-masked counters with a
    // distinctive payload, negative zero and a denormal.
    AlignedSample glitched;
    glitched.time = 2.0;
    glitched.interval = 1.002;
    glitched.perCpu.resize(2);
    glitched.perCpu[0][PerfEvent::Cycles] = 2.8e9;
    glitched.perCpu[0][PerfEvent::FetchedUops] =
        fromBits(0x7ff8dead'beef0001ull); // NaN with payload
    glitched.perCpu[1][PerfEvent::L3LoadMisses] =
        std::numeric_limits<double>::quiet_NaN();
    glitched.perCpu[1][PerfEvent::TlbMisses] = -0.0;
    glitched.perCpu[1][PerfEvent::BusTransactions] =
        std::numeric_limits<double>::denorm_min();
    glitched.measuredWatts[0] =
        std::numeric_limits<double>::quiet_NaN();
    glitched.measuredWatts[1] = std::numeric_limits<double>::infinity();
    glitched.measuredWatts[2] =
        -std::numeric_limits<double>::infinity();
    glitched.osInterruptsTotal =
        std::numeric_limits<double>::quiet_NaN();
    trace.add(glitched);

    // An orphan-adjacent window: zero CPUs recorded (the reading was
    // lost but the power window survived in some export paths).
    AlignedSample empty_cpus;
    empty_cpus.time = 3.0;
    empty_cpus.interval = 1.0;
    empty_cpus.measuredWatts[3] = 42.0;
    trace.add(empty_cpus);

    return trace;
}

std::string
serialize(const SampleTrace &trace, uint64_t fingerprint = 0)
{
    std::ostringstream os(std::ios::binary);
    writeTraceBinary(os, trace, fingerprint);
    return os.str();
}

TEST(TraceIo, RoundTripIsBitExact)
{
    const SampleTrace trace = pathologicalTrace();
    std::istringstream is(serialize(trace, 0xfeedface), std::ios::binary);

    SampleTrace loaded;
    uint64_t fingerprint = 0;
    std::string error;
    ASSERT_TRUE(tryReadTraceBinary(is, loaded, &fingerprint, &error))
        << error;
    EXPECT_EQ(fingerprint, 0xfeedfaceull);
    EXPECT_TRUE(traceBitIdentical(trace, loaded));

    // The NaN payload must survive exactly, not as a canonical NaN.
    uint64_t bits = 0;
    const double uops =
        loaded[1].perCpu[0][PerfEvent::FetchedUops];
    std::memcpy(&bits, &uops, sizeof(bits));
    EXPECT_EQ(bits, 0x7ff8dead'beef0001ull);
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    const std::string bytes = serialize(SampleTrace{});
    std::istringstream is(bytes, std::ios::binary);
    SampleTrace loaded;
    ASSERT_TRUE(tryReadTraceBinary(is, loaded));
    EXPECT_TRUE(loaded.empty());
}

TEST(TraceIo, FaultInjectedRunRoundTripsBitExact)
{
    // The real thing: a short run under every fault class, whose
    // trace carries NaN counters, glitched watts and wrapped-counter
    // reconstructions - exactly what the cache must preserve.
    Server::Params params;
    params.rig.faults = FaultPlan::allFaults();
    Server server(0x7e57, params);
    server.runner().launchStaggered("gcc", 2, 0.5, 0.0);
    server.run(30.0);
    const SampleTrace &trace = server.rig().collect();
    ASSERT_FALSE(trace.empty());

    std::istringstream is(serialize(trace), std::ios::binary);
    SampleTrace loaded;
    std::string error;
    ASSERT_TRUE(tryReadTraceBinary(is, loaded, nullptr, &error))
        << error;
    EXPECT_TRUE(traceBitIdentical(trace, loaded));
    EXPECT_EQ(trace.size(), loaded.size());
}

TEST(TraceIo, BitIdenticalDistinguishesNaNPayloads)
{
    SampleTrace a;
    AlignedSample s;
    s.measuredWatts[0] = fromBits(0x7ff8000000000001ull);
    a.add(s);

    SampleTrace b;
    s.measuredWatts[0] = fromBits(0x7ff8000000000002ull);
    b.add(s);

    EXPECT_TRUE(traceBitIdentical(a, a));
    EXPECT_FALSE(traceBitIdentical(a, b));
}

TEST(TraceIo, DetectsTruncation)
{
    const std::string bytes = serialize(pathologicalTrace());
    for (const size_t keep :
         {size_t{0}, size_t{3}, size_t{20}, bytes.size() - 1}) {
        std::istringstream is(bytes.substr(0, keep), std::ios::binary);
        SampleTrace loaded;
        std::string error;
        EXPECT_FALSE(
            tryReadTraceBinary(is, loaded, nullptr, &error))
            << "kept " << keep << " bytes";
        EXPECT_FALSE(error.empty());
    }
}

TEST(TraceIo, DetectsPayloadCorruption)
{
    std::string bytes = serialize(pathologicalTrace());
    bytes[bytes.size() - 5] ^= 0x40; // flip a payload bit
    std::istringstream is(bytes, std::ios::binary);
    SampleTrace loaded;
    std::string error;
    EXPECT_FALSE(tryReadTraceBinary(is, loaded, nullptr, &error));
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

/** Header length and payload offsets of the binary layout. */
constexpr size_t headerBytes = 48;
constexpr size_t payloadBytesField = 32;
constexpr size_t checksumField = 40;
/** Sample 0's CPU-count word: after its 5 + numRails doubles. */
constexpr size_t firstCpuCountWord = headerBytes + 8 * (5 + numRails);

/** Overwrite a little-endian u64 header field. */
void
putLe64(std::string &bytes, size_t offset, uint64_t value)
{
    for (size_t i = 0; i < 8; ++i)
        bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

/**
 * Read @p bytes into a reader target pre-filled with a sentinel
 * trace; the call must fail with @p reason and leave the target
 * untouched.
 */
void
expectRejectedUntouched(const std::string &bytes, const char *reason)
{
    SampleTrace sentinel;
    AlignedSample s;
    s.time = 99.0;
    s.measuredWatts[2] = 7.5;
    sentinel.add(s);

    SampleTrace out = sentinel;
    uint64_t fingerprint = 0x5151;
    std::string error;
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_FALSE(tryReadTraceBinary(is, out, &fingerprint, &error));
    EXPECT_NE(error.find(reason), std::string::npos) << error;
    EXPECT_TRUE(traceBitIdentical(out, sentinel));
    EXPECT_EQ(fingerprint, 0x5151u);
}

TEST(TraceIo, ChecksumOutranksDecodeErrorInCpuCountWord)
{
    // A flipped high bit makes sample 0 claim 2^31 CPUs, a decode
    // error on its own; the checksum mismatch must be what is
    // reported, since the payload is corrupt, not merely odd.
    std::string bytes = serialize(pathologicalTrace());
    bytes[firstCpuCountWord + 3] ^= char(0x80);
    expectRejectedUntouched(bytes, "checksum");
}

TEST(TraceIo, ChecksumCatchesMidPayloadDoubleFlip)
{
    std::string bytes = serialize(pathologicalTrace());
    const size_t mid = headerBytes + (bytes.size() - headerBytes) / 2;
    bytes[mid] ^= 0x01;
    expectRejectedUntouched(bytes, "checksum");
}

TEST(TraceIo, RejectsPayloadEndingInsideASample)
{
    // Cut inside the last sample. Once as a short stream, once as a
    // well-formed container (header length and checksum rewritten to
    // match) whose payload simply stops mid-sample.
    const std::string full = serialize(pathologicalTrace());
    const size_t cut = full.size() - 12;
    expectRejectedUntouched(full.substr(0, cut), "truncated");

    std::string consistent = full.substr(0, cut);
    const size_t payload = cut - headerBytes;
    putLe64(consistent, payloadBytesField, payload);
    putLe64(consistent, checksumField,
            fnv1a64(consistent.data() + headerBytes, payload));
    expectRejectedUntouched(consistent, "shorter than sample count");
}

TEST(TraceIo, DetectsVersionAndMagicMismatch)
{
    std::string bytes = serialize(pathologicalTrace());

    std::string wrong_version = bytes;
    wrong_version[4] = char(0x7f); // version field, LSB
    {
        std::istringstream is(wrong_version, std::ios::binary);
        SampleTrace loaded;
        std::string error;
        EXPECT_FALSE(tryReadTraceBinary(is, loaded, nullptr, &error));
        EXPECT_NE(error.find("version"), std::string::npos) << error;
    }

    std::string wrong_magic = bytes;
    wrong_magic[0] = 'X';
    {
        std::istringstream is(wrong_magic, std::ios::binary);
        SampleTrace loaded;
        std::string error;
        EXPECT_FALSE(tryReadTraceBinary(is, loaded, nullptr, &error));
        EXPECT_NE(error.find("magic"), std::string::npos) << error;
    }
}

TEST(TraceIo, StrictReaderThrowsOnCorruption)
{
    std::string bytes = serialize(pathologicalTrace());
    bytes.resize(bytes.size() - 1);
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(readTraceBinary(is), FatalError);
}

TEST(TraceIo, SniffsBinaryVersusCsvWithoutConsuming)
{
    std::istringstream bin(serialize(pathologicalTrace()),
                           std::ios::binary);
    EXPECT_TRUE(looksLikeTraceBinary(bin));
    // The sniff must leave the stream readable from the start.
    SampleTrace loaded;
    EXPECT_TRUE(tryReadTraceBinary(bin, loaded));

    std::istringstream csv("time,interval,whatever\n");
    EXPECT_FALSE(looksLikeTraceBinary(csv));
    std::string first_line;
    std::getline(csv, first_line);
    EXPECT_EQ(first_line, "time,interval,whatever");
}

} // namespace
} // namespace tdp
