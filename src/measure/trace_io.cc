/**
 * @file
 * Implementation of the binary trace serialisation.
 */

#include "measure/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>

#include "common/logging.hh"

namespace tdp {

namespace {

constexpr char traceMagic[4] = {'T', 'D', 'P', 'T'};

/** Append an integer LSB-first. */
template <typename T>
void
appendLe(std::string &out, T value)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

/** Append a double as its little-endian bit pattern. */
void
appendDouble(std::string &out, double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    appendLe(out, bits);
}

/**
 * Bounds-checked little-endian cursor over a byte buffer that folds
 * every byte it consumes into a running FNV-1a 64 hash, so a payload
 * is decoded and checksummed in one pass. The hash's serial multiply
 * chain is the slower half; the decode work hides behind it.
 */
class ByteReader
{
  public:
    ByteReader(const unsigned char *data, size_t size)
        : pos_(data), end_(data + size)
    {
    }

    bool
    ok() const
    {
        return ok_;
    }

    size_t
    remaining() const
    {
        return static_cast<size_t>(end_ - pos_);
    }

    /** FNV-1a 64 of every byte consumed so far. */
    uint64_t
    hash() const
    {
        return hash_;
    }

    template <typename T>
    T
    readLe()
    {
        if (remaining() < sizeof(T)) {
            ok_ = false;
            return T{};
        }
        T value{};
        uint64_t hash = hash_;
        for (size_t i = 0; i < sizeof(T); ++i) {
            const unsigned char byte = pos_[i];
            value |= static_cast<T>(byte) << (8 * i);
            hash = (hash ^ byte) * fnv1aPrime;
        }
        hash_ = hash;
        pos_ += sizeof(T);
        return value;
    }

    double
    readDouble()
    {
        const uint64_t bits = readLe<uint64_t>();
        double value;
        std::memcpy(&value, &bits, sizeof(value));
        return value;
    }

    /** Fold the bytes not yet consumed into the hash, undecoded. */
    void
    hashRest()
    {
        hash_ = fnv1a64(pos_, remaining(), hash_);
        pos_ = end_;
    }

  private:
    const unsigned char *pos_;
    const unsigned char *end_;
    uint64_t hash_ = fnv1aBasis;
    bool ok_ = true;
};

/** Smallest encoded sample: the fixed fields and a zero CPU count. */
constexpr size_t minSampleBytes = 8 * (5 + numRails) + 4;

/**
 * Decode one sample from the payload. Returns nullptr on success,
 * else the reason the payload cannot be a well-formed trace.
 */
const char *
decodeSample(ByteReader &body, AlignedSample &s)
{
    s.time = body.readDouble();
    s.interval = body.readDouble();
    s.osInterruptsTotal = body.readDouble();
    s.osDiskInterrupts = body.readDouble();
    s.osDeviceInterrupts = body.readDouble();
    for (int r = 0; r < numRails; ++r)
        s.measuredWatts[static_cast<size_t>(r)] = body.readDouble();
    const uint32_t cpu_count = body.readLe<uint32_t>();
    if (cpu_count > 4096)
        return "implausible per-sample CPU count";
    s.perCpu.resize(cpu_count);
    for (uint32_t c = 0; c < cpu_count; ++c)
        for (int e = 0; e < numPerfEvents; ++e)
            s.perCpu[c].counts[static_cast<size_t>(e)] =
                body.readDouble();
    return body.ok() ? nullptr : "payload shorter than sample count";
}

bool
fail(std::string *error, const std::string &reason)
{
    if (error)
        *error = reason;
    return false;
}

} // namespace

void
writeTraceBinary(std::ostream &os, const SampleTrace &trace,
                 uint64_t fingerprint)
{
    std::string payload;
    // header-less estimate: 10 doubles + rails + one 4-CPU PMU block.
    payload.reserve(trace.size() *
                    (8 * (5 + numRails) + 4 + 8 * 4 * numPerfEvents));
    for (const AlignedSample &s : trace.samples()) {
        appendDouble(payload, s.time);
        appendDouble(payload, s.interval);
        appendDouble(payload, s.osInterruptsTotal);
        appendDouble(payload, s.osDiskInterrupts);
        appendDouble(payload, s.osDeviceInterrupts);
        for (int r = 0; r < numRails; ++r)
            appendDouble(payload, s.measuredWatts[static_cast<size_t>(r)]);
        appendLe(payload, static_cast<uint32_t>(s.perCpu.size()));
        for (const CounterSnapshot &snap : s.perCpu)
            for (int e = 0; e < numPerfEvents; ++e)
                appendDouble(payload,
                             snap.counts[static_cast<size_t>(e)]);
    }

    std::string header;
    header.append(traceMagic, sizeof(traceMagic));
    appendLe(header, traceFormatVersion);
    appendLe(header, static_cast<uint32_t>(numPerfEvents));
    appendLe(header, static_cast<uint32_t>(numRails));
    appendLe(header, fingerprint);
    appendLe(header, static_cast<uint64_t>(trace.size()));
    appendLe(header, static_cast<uint64_t>(payload.size()));
    appendLe(header, fnv1a64(payload.data(), payload.size()));

    os.write(header.data(), static_cast<std::streamsize>(header.size()));
    os.write(payload.data(),
             static_cast<std::streamsize>(payload.size()));
    if (!os)
        fatal("writeTraceBinary: stream write failed");
}

bool
tryReadTraceBinary(std::istream &is, SampleTrace &out,
                   uint64_t *fingerprint, std::string *error)
{
    constexpr size_t headerSize = 4 + 4 * 3 + 8 * 4;
    std::string header(headerSize, '\0');
    is.read(&header[0], static_cast<std::streamsize>(headerSize));
    if (static_cast<size_t>(is.gcount()) != headerSize)
        return fail(error, "truncated header");
    if (std::memcmp(header.data(), traceMagic, sizeof(traceMagic)) != 0)
        return fail(error, "bad magic (not a binary trace)");

    ByteReader head(reinterpret_cast<const unsigned char *>(header.data()),
                    header.size());
    head.readLe<uint32_t>(); // magic, already checked
    const uint32_t version = head.readLe<uint32_t>();
    const uint32_t event_count = head.readLe<uint32_t>();
    const uint32_t rail_count = head.readLe<uint32_t>();
    const uint64_t key = head.readLe<uint64_t>();
    const uint64_t sample_count = head.readLe<uint64_t>();
    const uint64_t payload_bytes = head.readLe<uint64_t>();
    const uint64_t checksum = head.readLe<uint64_t>();

    if (version != traceFormatVersion) {
        return fail(error,
                    formatString("format version %u, expected %u",
                                 version, traceFormatVersion));
    }
    if (event_count != static_cast<uint32_t>(numPerfEvents) ||
        rail_count != static_cast<uint32_t>(numRails)) {
        return fail(error,
                    formatString("layout mismatch (%u events x %u "
                                 "rails, expected %d x %d)",
                                 event_count, rail_count,
                                 numPerfEvents, numRails));
    }
    // An absurd payload size (e.g. a bit flip in the length field)
    // must not drive a multi-gigabyte allocation; the per-sample
    // minimum of one cpuCount word bounds it instead.
    if (payload_bytes > (1ull << 32))
        return fail(error, "payload length implausibly large");

    const size_t payload_size = static_cast<size_t>(payload_bytes);
    const auto payload =
        std::make_unique_for_overwrite<unsigned char[]>(payload_size);
    is.read(reinterpret_cast<char *>(payload.get()),
            static_cast<std::streamsize>(payload_size));
    if (static_cast<uint64_t>(is.gcount()) != payload_bytes)
        return fail(error, "truncated payload");

    // One pass decodes and checksums. Decoding stops at the first
    // malformed field, but the checksum still covers every byte and
    // is checked first: a corrupted payload is reported as such,
    // never as whatever its flipped bits happened to decode to.
    SampleTrace trace;
    trace.reserve(static_cast<size_t>(
        std::min<uint64_t>(sample_count, payload_size / minSampleBytes)));
    ByteReader body(payload.get(), payload_size);
    const char *decode_error = nullptr;
    for (uint64_t i = 0; i < sample_count && !decode_error; ++i) {
        AlignedSample s;
        decode_error = decodeSample(body, s);
        if (!decode_error)
            trace.add(std::move(s));
    }
    if (!decode_error && body.remaining() != 0)
        decode_error = "payload longer than sample count";
    body.hashRest();
    if (body.hash() != checksum)
        return fail(error, "payload checksum mismatch");
    if (decode_error)
        return fail(error, decode_error);

    out = std::move(trace);
    if (fingerprint)
        *fingerprint = key;
    return true;
}

SampleTrace
readTraceBinary(std::istream &is, uint64_t *fingerprint)
{
    SampleTrace trace;
    std::string error;
    if (!tryReadTraceBinary(is, trace, fingerprint, &error))
        fatal("readTraceBinary: %s", error.c_str());
    return trace;
}

bool
looksLikeTraceBinary(std::istream &is)
{
    char probe[sizeof(traceMagic)] = {};
    const std::streampos start = is.tellg();
    is.read(probe, sizeof(probe));
    const bool complete =
        static_cast<size_t>(is.gcount()) == sizeof(probe);
    is.clear();
    is.seekg(start);
    return complete &&
           std::memcmp(probe, traceMagic, sizeof(traceMagic)) == 0;
}

bool
traceBitIdentical(const SampleTrace &a, const SampleTrace &b)
{
    auto same_bits = [](double x, double y) {
        uint64_t xb, yb;
        std::memcpy(&xb, &x, sizeof(xb));
        std::memcpy(&yb, &y, sizeof(yb));
        return xb == yb;
    };

    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const AlignedSample &sa = a[i];
        const AlignedSample &sb = b[i];
        if (!same_bits(sa.time, sb.time) ||
            !same_bits(sa.interval, sb.interval) ||
            !same_bits(sa.osInterruptsTotal, sb.osInterruptsTotal) ||
            !same_bits(sa.osDiskInterrupts, sb.osDiskInterrupts) ||
            !same_bits(sa.osDeviceInterrupts, sb.osDeviceInterrupts)) {
            return false;
        }
        for (int r = 0; r < numRails; ++r) {
            if (!same_bits(sa.measuredWatts[static_cast<size_t>(r)],
                           sb.measuredWatts[static_cast<size_t>(r)]))
                return false;
        }
        if (sa.perCpu.size() != sb.perCpu.size())
            return false;
        for (size_t c = 0; c < sa.perCpu.size(); ++c)
            for (int e = 0; e < numPerfEvents; ++e)
                if (!same_bits(
                        sa.perCpu[c].counts[static_cast<size_t>(e)],
                        sb.perCpu[c].counts[static_cast<size_t>(e)]))
                    return false;
    }
    return true;
}

} // namespace tdp
