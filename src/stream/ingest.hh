/**
 * @file
 * Bounded sharded ingest with deterministic load shedding.
 *
 * Clients hash to shards, each shard owns one fixed-capacity
 * SampleRing. Admission control degrades in two stages:
 *
 *  - above the high watermark, samples are *shed* with a probability
 *    that ramps linearly toward the ring capacity. The coin flip is
 *    hashUnit(seed, client, seq) - a pure function of the
 *    sample's identity - so the exact same samples are shed whatever
 *    the worker count or wall-clock interleaving, and an overload run
 *    reproduces bit for bit;
 *  - at capacity the push is refused outright (overflow). The ring
 *    never silently evicts, so backpressure is visible in the
 *    counters instead of corrupting history.
 */

#ifndef TDP_STREAM_INGEST_HH
#define TDP_STREAM_INGEST_HH

#include <cstdint>
#include <vector>

#include "stream/ring.hh"

namespace tdp {
namespace stream {

class CheckpointWriter;
class CheckpointReader;

/** Shard and queue-bound configuration. */
struct IngestConfig
{
    /** Shard count (>= 1); clients hash to a stable shard. */
    int shards = 4;

    /** Per-shard ring capacity (samples). */
    size_t ringCapacity = 256;

    /**
     * Occupancy at which probabilistic shedding starts; 0 disables
     * shedding (only hard overflow remains). Must be <= ringCapacity.
     */
    size_t highWatermark = 192;

    /** Salt for the deterministic shed coin flips. */
    uint64_t seed = 0;
};

/** Outcome of one offer. */
enum class Admission : uint8_t
{
    Admitted,    ///< queued in the client's shard ring
    Shed,        ///< deterministically dropped above the watermark
    Overflow,    ///< refused, ring at capacity
    Quarantined, ///< refused at the door, client is quarantined
};

/** Display name of an admission outcome. */
const char *admissionName(Admission admission);

/** Sharded bounded queues plus the admission decision. */
class ShardedIngest
{
  public:
    /** Deterministic ingest accounting. */
    struct Stats
    {
        uint64_t offered = 0;
        uint64_t admitted = 0;
        uint64_t shed = 0;
        uint64_t overflow = 0;

        /** Highest single-ring occupancy observed. */
        uint64_t highWater = 0;
    };

    /** fatal() on a malformed config. */
    explicit ShardedIngest(const IngestConfig &config);

    /** Stable shard of one client. */
    int shardOf(uint64_t client) const;

    /**
     * Admit, shed or refuse one sample. On admission the sample is
     * stamped with @p tick and queued on its client's shard.
     * Quarantine is decided by the session layer before offering;
     * this method never returns Admission::Quarantined.
     */
    Admission offer(uint64_t tick, const StreamSample &sample);

    /** One shard's ring (drain side). */
    SampleRing &shard(int index) { return rings_[index]; }

    /** One shard's ring, read-only. */
    const SampleRing &shard(int index) const { return rings_[index]; }

    const IngestConfig &config() const { return config_; }
    const Stats &stats() const { return stats_; }

    /**
     * Serialize the admission counters (checkpoint.hh). Ring
     * contents are serialized per shard by the service so each
     * shard section stays self-contained.
     */
    void checkpointSave(CheckpointWriter &w) const;

    /** Restore the admission counters. */
    bool checkpointRestore(CheckpointReader &r);

  private:
    IngestConfig config_;
    std::vector<SampleRing> rings_;
    Stats stats_;
};

} // namespace stream
} // namespace tdp

#endif // TDP_STREAM_INGEST_HH
