/**
 * @file
 * Implementation of the sharded ingest admission path.
 */

#include "stream/ingest.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/random.hh"
#include "stream/checkpoint.hh"

namespace tdp {
namespace stream {

namespace {

/** Domain salts keeping the shard and shed hash streams apart. */
constexpr uint64_t shardSalt = 0x5ead5a17u;
constexpr uint64_t shedSalt = 0x5eed0fedu;

} // namespace

const char *
admissionName(Admission admission)
{
    switch (admission) {
      case Admission::Admitted:
        return "admitted";
      case Admission::Shed:
        return "shed";
      case Admission::Overflow:
        return "overflow";
      case Admission::Quarantined:
        return "quarantined";
      default:
        return "unknown";
    }
}

ShardedIngest::ShardedIngest(const IngestConfig &config)
    : config_(config)
{
    if (config_.shards < 1)
        fatal("ShardedIngest: shards must be >= 1, got %d",
              config_.shards);
    if (config_.ringCapacity == 0)
        fatal("ShardedIngest: ringCapacity must be >= 1");
    if (config_.highWatermark > config_.ringCapacity)
        fatal("ShardedIngest: highWatermark %zu exceeds ring "
              "capacity %zu",
              config_.highWatermark, config_.ringCapacity);
    rings_.reserve(static_cast<size_t>(config_.shards));
    for (int i = 0; i < config_.shards; ++i)
        rings_.emplace_back(config_.ringCapacity);
}

int
ShardedIngest::shardOf(uint64_t client) const
{
    return static_cast<int>(
        mixHash(config_.seed, client, shardSalt) %
        static_cast<uint64_t>(config_.shards));
}

Admission
ShardedIngest::offer(uint64_t tick, const StreamSample &sample)
{
    ++stats_.offered;
    SampleRing &ring = rings_[shardOf(sample.client)];
    const size_t occupancy = ring.size();
    if (occupancy >= ring.capacity()) {
        ++stats_.overflow;
        return Admission::Overflow;
    }
    if (config_.highWatermark > 0 &&
        occupancy >= config_.highWatermark) {
        // Shed probability ramps linearly from just-above-nothing at
        // the watermark to (almost) certain at capacity; the hash
        // makes the decision a pure function of (seed, client, seq),
        // so overload runs replay identically at any --jobs.
        const double span = static_cast<double>(
            ring.capacity() - config_.highWatermark + 1);
        const double p =
            static_cast<double>(occupancy - config_.highWatermark + 1) /
            span;
        if (hashUnit(config_.seed ^ shedSalt, sample.client,
                     sample.seq) < p) {
            ++stats_.shed;
            return Admission::Shed;
        }
    }
    StreamSample stamped = sample;
    stamped.enqueueTick = tick;
    if (!ring.push(stamped)) {
        ++stats_.overflow;
        return Admission::Overflow;
    }
    ++stats_.admitted;
    stats_.highWater =
        std::max<uint64_t>(stats_.highWater, occupancy + 1);
    return Admission::Admitted;
}

void
ShardedIngest::checkpointSave(CheckpointWriter &w) const
{
    w.u64(stats_.offered);
    w.u64(stats_.admitted);
    w.u64(stats_.shed);
    w.u64(stats_.overflow);
    w.u64(stats_.highWater);
}

bool
ShardedIngest::checkpointRestore(CheckpointReader &r)
{
    stats_.offered = r.u64();
    stats_.admitted = r.u64();
    stats_.shed = r.u64();
    stats_.overflow = r.u64();
    stats_.highWater = r.u64();
    return r.ok();
}

} // namespace stream
} // namespace tdp
