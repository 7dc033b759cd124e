/**
 * @file
 * Crash-safe checkpointing of the streaming estimation service.
 *
 * A checkpoint is one binary file holding the *complete* mutable
 * state of a StreamService at a tick boundary: every shard's
 * SessionTable columns and queued ring samples, every rail's
 * WindowedRls block partials, stored window rows and DriftGuard
 * state, the primary-model coefficients, the cumulative
 * ingest/session/SLO counters, the latency histogram and the fold
 * digest itself. Restoring a checkpoint into a freshly constructed
 * service (same config, same trained estimator) and re-offering
 * every sample after the checkpoint tick therefore reproduces the
 * uninterrupted run bit for bit - verdicts, published watts, refits
 * and fold digest - at any `--jobs` count. That is the bounded-loss
 * contract: a crash forgets at most `everyTicks` ticks of input,
 * never any state.
 *
 * Format ("TDPC", version 1, little-endian - a checkpoint is a
 * crash-recovery artefact for the machine that wrote it, not an
 * interchange format):
 *
 *   magic[4] version:u32 fingerprint:u64 generation:u64 tick:u64
 *   digest:u64 sectionCount:u32
 *   { id:u32 length:u64 payload[length] crc:u64 } x sectionCount
 *
 * Every section carries its own FNV-1a checksum, so a torn write is
 * detected wherever it lands. The writer serializes the header and
 * every section in place into one reused buffer, patching each
 * section length in behind it, and one loop per section computes
 * both that section's checksum and the running whole-file checksum
 * (CheckpointInfo::crc); the loader checks both the same way over
 * one sized read of the file. Publication goes through
 * writeFileAtomic (temp + fsync + rename + directory fsync) into a
 * two-generation rotation - generation g lands in `<base>.gen<g%2>`
 * - so the previous complete checkpoint always survives the next
 * write. The loader validates both generations and falls back to
 * the older one with a warning when the newest is torn or corrupt;
 * only two unusable generations (or a config-fingerprint mismatch)
 * fail the restore.
 *
 * The fingerprint hashes every determinism-relevant config field
 * plus the (runtime-immutable) fallback-rung coefficients, so a
 * checkpoint from a different seed, topology or training run is
 * rejected instead of silently diverging.
 */

#ifndef TDP_STREAM_CHECKPOINT_HH
#define TDP_STREAM_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/byte_writer.hh"

namespace tdp {
namespace obs {
class RunManifest;
} // namespace obs

namespace stream {

class StreamService;

/** Checkpoint format version written by this build. */
constexpr uint32_t kCheckpointVersion = 1;

/** Section ids. @{ */
constexpr uint32_t kSecIngest = 1;  ///< ShardedIngest counters
constexpr uint32_t kSecService = 2; ///< rails, digest, counters, SLO
constexpr uint32_t kSecMeta = 3;    ///< opaque harness payload
constexpr uint32_t kSecShardBase = 100; ///< + shard: sessions + ring
/** @} */

/**
 * The serializer the checkpointed classes write themselves into:
 * the shared ByteWriter, under the name their savers declare.
 */
class CheckpointWriter : public ByteWriter
{
};

/**
 * Bounds-checked reader over one section payload. Corruption never
 * fatals: the first short or invalid read flips the reader into a
 * failed state (subsequent reads return zeros) and the restore path
 * degrades to the previous generation or a clean error.
 */
class CheckpointReader
{
  public:
    CheckpointReader(const void *data, size_t size)
        : data_(static_cast<const unsigned char *>(data)), size_(size)
    {
    }

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }

    /** Record the first failure; later reads keep returning zeros. */
    void fail(const std::string &why)
    {
        if (ok_) {
            ok_ = false;
            error_ = why;
        }
    }

    uint8_t u8() { return read<uint8_t>(); }
    uint32_t u32() { return read<uint32_t>(); }
    uint64_t u64() { return read<uint64_t>(); }
    double f64() { return read<double>(); }

    void bytes(void *out, size_t n);

    /** Unconsumed payload bytes (0 once failed). */
    size_t remaining() const { return ok_ ? size_ - pos_ : 0; }

  private:
    template <typename T>
    T read()
    {
        T v{};
        bytes(&v, sizeof v);
        return v;
    }

    const unsigned char *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

/** Identity of one written (or restored) checkpoint. */
struct CheckpointInfo
{
    uint64_t generation = 0;

    /** Service tick the checkpoint captured (ticks fully folded). */
    uint64_t tick = 0;

    /** Service fold digest at that tick. */
    uint64_t digest = 0;

    /** FNV-1a over the complete file bytes. */
    uint64_t crc = 0;

    std::string path;
};

/** Rotation slot of @p generation: `<base>.gen<generation % 2>`. */
std::string checkpointGenerationPath(const std::string &base,
                                     uint64_t generation);

/**
 * Serialize the full service state and atomically publish it as
 * generation @p generation of @p base. @p meta is an opaque payload
 * the restorer hands back (the sweep stores its phase identity
 * there). The file is built in @p buffer when given (its contents
 * are replaced, its allocation reused), else in a local one. False
 * on I/O failure with a one-line reason in *error; the previous
 * generation is never disturbed.
 */
bool writeStreamCheckpoint(const StreamService &service,
                           const std::string &base, uint64_t generation,
                           const std::string &meta, CheckpointInfo *info,
                           std::string *error,
                           CheckpointWriter *buffer = nullptr);

/** Outcome of one restore attempt. */
struct RestoreResult
{
    bool ok = false;

    /**
     * True when the newest on-disk generation was unusable (torn,
     * corrupt, wrong fingerprint) and an older one served instead.
     */
    bool usedFallback = false;

    /** The restored checkpoint (valid when ok). */
    CheckpointInfo info;

    /** The opaque meta payload stored at write time. */
    std::string meta;

    /** Human-readable fallback detail ("" when the newest served). */
    std::string warning;

    /** Failure reason ("" when ok). */
    std::string error;
};

/**
 * Restore the newest usable generation of @p base into @p service,
 * which must be freshly constructed (tick 0, no sessions) with the
 * same config and trained estimator as the writer - enforced via
 * the config fingerprint. On failure the service contents are
 * unspecified and must be discarded; nothing is ever fatal()ed for
 * on-disk corruption.
 */
RestoreResult restoreStreamCheckpoint(StreamService &service,
                                      const std::string &base);

/**
 * Read the opaque meta payload of the newest parseable generation
 * without restoring anything - the harness stores its run identity
 * there, and needs it *before* it can construct the matching
 * service. False with a reason when no generation parses.
 */
bool peekStreamCheckpointMeta(const std::string &base,
                              std::string *meta, std::string *error);

/**
 * Periodic checkpoint driver: call onTick() after every
 * service.tick() and a checkpoint is written whenever the tick
 * count crosses the cadence, in deterministic shard order, plus on
 * demand (writeNow(), e.g. from a SIGTERM drain). Failures are
 * counted and warned, never fatal - the service keeps running on
 * the previous generation.
 */
class StreamCheckpointer
{
  public:
    /**
     * @param startGeneration 0 starts a fresh rotation (both slots
     *        of @p base are deleted); pass a restored generation to
     *        continue its rotation instead.
     */
    StreamCheckpointer(StreamService &service, std::string base,
                       uint64_t everyTicks,
                       uint64_t startGeneration = 0);

    /** Opaque payload stored in every subsequent checkpoint. */
    void setMeta(std::string payload) { meta_ = std::move(payload); }

    /** Checkpoint when the service crossed the cadence boundary. */
    void onTick();

    /** Write generation last+1 immediately. */
    bool writeNow();

    const std::string &base() const { return base_; }
    uint64_t everyTicks() const { return every_; }

    /** Last generation written (0 before the first). */
    uint64_t generation() const { return generation_; }

    uint64_t written() const { return written_; }
    uint64_t failures() const { return failures_; }
    const CheckpointInfo &last() const { return last_; }

    /** Flatten into the "stream.checkpoint" manifest section. */
    void addManifestSections(obs::RunManifest &manifest) const;

  private:
    StreamService &service_;
    std::string base_;
    uint64_t every_;
    std::string meta_;
    uint64_t generation_ = 0;
    uint64_t written_ = 0;
    uint64_t failures_ = 0;
    CheckpointInfo last_;

    /** File bytes of the latest write, kept for the next one. */
    CheckpointWriter buffer_;
};

} // namespace stream
} // namespace tdp

#endif // TDP_STREAM_CHECKPOINT_HH
