/**
 * @file
 * Checkpoint serialization, rotation and restore for the streaming
 * service. The per-class column encoders live with their classes
 * (session.cc, rls.cc, drift.cc, ingest.cc); this file owns the
 * file format, the StreamService-level sections and the rotation
 * policy.
 */

#include "stream/checkpoint.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <vector>

#include "common/atomic_file.hh"
#include "common/checksum.hh"
#include "common/logging.hh"
#include "obs/run_manifest.hh"
#include "stream/service.hh"

namespace tdp {
namespace stream {

namespace {

constexpr char kMagic[4] = {'T', 'D', 'P', 'C'};

/** Fixed header preceding the section table. */
struct Header
{
    uint32_t version = 0;
    uint64_t fingerprint = 0;
    uint64_t generation = 0;
    uint64_t tick = 0;
    uint64_t digest = 0;
    uint32_t sectionCount = 0;
};

/**
 * One parsed, CRC-verified checkpoint file held in memory. Sections
 * are views into the file bytes, which move with the object.
 */
struct Parsed
{
    Header header;
    std::unique_ptr<char[]> bytes;
    std::vector<std::pair<uint32_t, std::string_view>> sections;
    uint64_t fileCrc = 0;
    std::string path;

    const std::string_view *
    section(uint32_t id) const
    {
        for (const auto &entry : sections) {
            if (entry.first == id)
                return &entry.second;
        }
        return nullptr;
    }
};

void
saveSample(CheckpointWriter &w, const StreamSample &sample)
{
    w.u64(sample.client);
    w.u64(sample.seq);
    w.f64(sample.time);
    w.f64(sample.interval);
    for (int e = 0; e < numPerfEvents; ++e)
        w.f64(sample.raw.counts[static_cast<size_t>(e)]);
    w.f64(sample.osDiskInterrupts);
    w.f64(sample.osDeviceInterrupts);
    for (int r = 0; r < numRails; ++r)
        w.f64(sample.measuredWatts[static_cast<size_t>(r)]);
    w.u32(static_cast<uint32_t>(sample.cpus));
    w.u64(sample.enqueueTick);
}

void
restoreSample(CheckpointReader &r, StreamSample &sample)
{
    sample.client = r.u64();
    sample.seq = r.u64();
    sample.time = r.f64();
    sample.interval = r.f64();
    for (int e = 0; e < numPerfEvents; ++e)
        sample.raw.counts[static_cast<size_t>(e)] = r.f64();
    sample.osDiskInterrupts = r.f64();
    sample.osDeviceInterrupts = r.f64();
    for (int rail = 0; rail < numRails; ++rail)
        sample.measuredWatts[static_cast<size_t>(rail)] = r.f64();
    sample.cpus = static_cast<int>(r.u32());
    sample.enqueueTick = r.u64();
}

/**
 * Read and validate one checkpoint file end to end (magic, version,
 * bounds, per-section CRC), computing the whole-file CRC alongside
 * the section CRCs in the same pass. Returns false with a one-line
 * reason; never fatals - a torn file is an expected input here.
 */
bool
parseCheckpointFile(const std::string &path, Parsed &out,
                    std::string &why)
{
    auto fail = [&why](std::string reason) {
        why = std::move(reason);
        return false;
    };
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return fail("cannot open");
    const std::streamoff end = in.tellg();
    const size_t size = end > 0 ? static_cast<size_t>(end) : 0;
    out.bytes = std::make_unique_for_overwrite<char[]>(size);
    const char *bytes = out.bytes.get();
    if (end < 0 || !in.seekg(0) ||
        !in.read(out.bytes.get(), static_cast<std::streamsize>(size)))
        return fail("read failed");

    size_t pos = 0;
    auto need = [&](size_t n) { return size - pos >= n; };
    auto take = [&](void *dst, size_t n) {
        std::memcpy(dst, bytes + pos, n);
        pos += n;
    };

    if (!need(sizeof kMagic))
        return fail("truncated before magic");
    if (std::memcmp(bytes, kMagic, sizeof kMagic) != 0)
        return fail("bad magic (not a TDPC checkpoint)");
    pos = sizeof kMagic;

    Header &h = out.header;
    if (!need(sizeof h.version + 4 * sizeof(uint64_t) +
              sizeof h.sectionCount))
        return fail("truncated header");
    take(&h.version, sizeof h.version);
    if (h.version != kCheckpointVersion)
        return fail("unsupported version " + std::to_string(h.version));
    take(&h.fingerprint, sizeof h.fingerprint);
    take(&h.generation, sizeof h.generation);
    take(&h.tick, sizeof h.tick);
    take(&h.digest, sizeof h.digest);
    take(&h.sectionCount, sizeof h.sectionCount);

    // The file CRC chains over every byte; `hashed` is how far.
    uint64_t fileCrc = fnv1aBasis;
    size_t hashed = 0;
    out.sections.clear();
    for (uint32_t s = 0; s < h.sectionCount; ++s) {
        uint32_t id;
        uint64_t length;
        if (!need(sizeof id + sizeof length))
            return fail("truncated section header");
        take(&id, sizeof id);
        take(&length, sizeof length);
        if (!need(sizeof(uint64_t)) ||
            length > size - pos - sizeof(uint64_t))
            return fail("truncated section " + std::to_string(id));
        const std::string_view payload(bytes + pos,
                                       static_cast<size_t>(length));
        fileCrc = fnv1a64(bytes + hashed, pos - hashed, fileCrc);
        const auto [crc, file] = fnv1a64Pair(
            payload.data(), payload.size(), fnv1aBasis, fileCrc);
        fileCrc = file;
        pos += payload.size();
        hashed = pos;
        uint64_t storedCrc;
        take(&storedCrc, sizeof storedCrc);
        if (crc != storedCrc)
            return fail("CRC mismatch in section " + std::to_string(id));
        out.sections.emplace_back(id, payload);
    }
    if (pos != size)
        return fail("trailing bytes after last section");

    out.fileCrc = fnv1a64(bytes + hashed, size - hashed, fileCrc);
    out.path = path;
    return true;
}

/** True when @p path exists (any kind of entry). */
bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return static_cast<bool>(in);
}

/**
 * Parse both rotation slots of @p base into @p slots and return the
 * newest usable generation, or nullptr. A slot that exists but fails
 * a check (torn write, CRC, a fingerprint other than *fingerprint
 * when given) is not fatal: its reason is appended to @p reasons.
 */
const Parsed *
newestUsable(const std::string &base, Parsed (&slots)[2],
             const uint64_t *fingerprint, std::string &reasons)
{
    const Parsed *best = nullptr;
    for (int slot = 0; slot < 2; ++slot) {
        const std::string path =
            checkpointGenerationPath(base, static_cast<uint64_t>(slot));
        if (!fileExists(path))
            continue;
        std::string why;
        Parsed &parsed = slots[slot];
        if (!parseCheckpointFile(path, parsed, why))
            reasons += (reasons.empty() ? "" : "; ") + path + ": " + why;
        else if (fingerprint != nullptr &&
                 parsed.header.fingerprint != *fingerprint)
            reasons += (reasons.empty() ? "" : "; ") + path +
                       ": config fingerprint mismatch";
        else if (best == nullptr ||
                 parsed.header.generation > best->header.generation)
            best = &parsed;
    }
    return best;
}

/** The error when no slot of @p base is usable. */
std::string
noUsableCheckpoint(const std::string &base, const std::string &reasons)
{
    return "no usable checkpoint at " + base +
           (reasons.empty() ? " (no generation files)"
                            : " (" + reasons + ")");
}

} // namespace

std::string
checkpointGenerationPath(const std::string &base, uint64_t generation)
{
    return base + (generation % 2 == 0 ? ".gen0" : ".gen1");
}

bool
writeStreamCheckpoint(const StreamService &service,
                      const std::string &base, uint64_t generation,
                      const std::string &meta, CheckpointInfo *info,
                      std::string *error, CheckpointWriter *buffer)
{
    CheckpointWriter local;
    CheckpointWriter &w = buffer != nullptr ? *buffer : local;
    w.clear();
    const uint64_t tick = service.now();
    const uint64_t digest = service.digest();
    const size_t shards =
        static_cast<size_t>(service.config().ingest.shards);
    w.bytes(kMagic, sizeof kMagic);
    w.u32(kCheckpointVersion);
    w.u64(service.checkpointFingerprint());
    w.u64(generation);
    w.u64(tick);
    w.u64(digest);
    w.u32(static_cast<uint32_t>(3 + shards));

    // Each section is serialized in place behind its id and a length
    // placeholder; one pass over its payload then yields the section
    // CRC (from the basis) and advances the whole-file CRC, which
    // chains over every byte and has reached offset `hashed`.
    uint64_t fileCrc = fnv1aBasis;
    size_t hashed = 0;
    auto section = [&](uint32_t id, auto &&save) {
        w.u32(id);
        const size_t lengthAt = w.size();
        w.u64(0);
        const size_t payloadAt = w.size();
        save();
        const size_t length = w.size() - payloadAt;
        w.patch(lengthAt, static_cast<uint64_t>(length));
        fileCrc = fnv1a64(w.data() + hashed, payloadAt - hashed, fileCrc);
        const auto [crc, file] = fnv1a64Pair(w.data() + payloadAt, length,
                                             fnv1aBasis, fileCrc);
        fileCrc = file;
        hashed = payloadAt + length;
        w.u64(crc);
    };
    section(kSecIngest, [&] { service.checkpointSaveIngest(w); });
    // Deterministic shard order: shard s is always section
    // kSecShardBase + s, whatever --jobs produced the state.
    for (size_t s = 0; s < shards; ++s)
        section(kSecShardBase + static_cast<uint32_t>(s),
                [&] { service.checkpointSaveShard(s, w); });
    section(kSecService, [&] { service.checkpointSaveService(w); });
    section(kSecMeta, [&] { w.bytes(meta.data(), meta.size()); });
    fileCrc = fnv1a64(w.data() + hashed, w.size() - hashed, fileCrc);

    const std::string path = checkpointGenerationPath(base, generation);
    const bool ok = writeFileAtomic(
        path,
        [&](std::ostream &os) {
            os.write(reinterpret_cast<const char *>(w.data()),
                     static_cast<std::streamsize>(w.size()));
            return os.good();
        },
        error);
    if (ok && info != nullptr) {
        info->generation = generation;
        info->tick = tick;
        info->digest = digest;
        info->crc = fileCrc;
        info->path = path;
    }
    return ok;
}

RestoreResult
restoreStreamCheckpoint(StreamService &service, const std::string &base)
{
    RestoreResult res;
    if (service.now() != 0 || service.activeSessions() != 0) {
        res.error = "restore requires a freshly constructed service";
        return res;
    }

    // Validate both rotation slots fully in memory, then take the
    // newest usable generation. A slot that exists but fails any
    // check (torn write, CRC, foreign fingerprint) is a fallback
    // event, not a fatal.
    const uint64_t fingerprint = service.checkpointFingerprint();
    Parsed slots[2];
    std::string reasons;
    const Parsed *best = newestUsable(base, slots, &fingerprint, reasons);
    if (best == nullptr) {
        res.error = noUsableCheckpoint(base, reasons);
        return res;
    }
    const Parsed &chosen = *best;
    res.usedFallback = !reasons.empty();
    if (res.usedFallback) {
        res.warning = "falling back to generation " +
                      std::to_string(chosen.header.generation) + " (" +
                      reasons + ")";
        warn("stream checkpoint: %s", res.warning.c_str());
    }

    const size_t shards =
        static_cast<size_t>(service.config().ingest.shards);
    auto restoreSection = [&](uint32_t id, const char *what,
                              auto &&fn) -> bool {
        const std::string_view *payload = chosen.section(id);
        if (payload == nullptr) {
            res.error = std::string("missing section: ") + what;
            return false;
        }
        CheckpointReader r(payload->data(), payload->size());
        if (!fn(r) || !r.ok()) {
            res.error = std::string(what) + ": " +
                        (r.ok() ? "restore failed" : r.error());
            return false;
        }
        if (r.remaining() != 0) {
            res.error = std::string(what) + ": trailing bytes";
            return false;
        }
        return true;
    };

    if (!restoreSection(kSecIngest, "ingest", [&](CheckpointReader &r) {
            return service.checkpointRestoreIngest(r);
        }))
        return res;
    for (size_t s = 0; s < shards; ++s) {
        const std::string what = "shard " + std::to_string(s);
        if (!restoreSection(
                kSecShardBase + static_cast<uint32_t>(s), what.c_str(),
                [&](CheckpointReader &r) {
                    return service.checkpointRestoreShard(s, r);
                }))
            return res;
    }
    if (!restoreSection(kSecService, "service",
                        [&](CheckpointReader &r) {
                            return service.checkpointRestoreService(r);
                        }))
        return res;

    if (service.digest() != chosen.header.digest ||
        service.now() != chosen.header.tick) {
        res.error = "restored state does not match checkpoint header "
                    "(digest/tick)";
        return res;
    }
    if (const std::string_view *meta = chosen.section(kSecMeta))
        res.meta = *meta;

    service.checkpointRestoreFinish(chosen.header.generation,
                                    res.usedFallback);
    res.info.generation = chosen.header.generation;
    res.info.tick = chosen.header.tick;
    res.info.digest = chosen.header.digest;
    res.info.crc = chosen.fileCrc;
    res.info.path = chosen.path;
    res.ok = true;
    return res;
}

bool
peekStreamCheckpointMeta(const std::string &base, std::string *meta,
                         std::string *error)
{
    Parsed slots[2];
    std::string reasons;
    const Parsed *best = newestUsable(base, slots, nullptr, reasons);
    if (best == nullptr) {
        if (error != nullptr)
            *error = noUsableCheckpoint(base, reasons);
        return false;
    }
    const std::string_view *payload = best->section(kSecMeta);
    if (meta != nullptr)
        *meta = payload != nullptr ? *payload : "";
    return true;
}

StreamCheckpointer::StreamCheckpointer(StreamService &service,
                                       std::string base,
                                       uint64_t everyTicks,
                                       uint64_t startGeneration)
    : service_(service), base_(std::move(base)), every_(everyTicks),
      generation_(startGeneration)
{
    if (every_ == 0)
        fatal("StreamCheckpointer: everyTicks must be >= 1");
    if (base_.empty())
        fatal("StreamCheckpointer: base path must not be empty");
    if (startGeneration == 0) {
        // Fresh rotation: stale generations from a previous run with
        // the same base must not shadow this run's checkpoints.
        std::remove(checkpointGenerationPath(base_, 0).c_str());
        std::remove(checkpointGenerationPath(base_, 1).c_str());
    }
}

void
StreamCheckpointer::onTick()
{
    const uint64_t now = service_.now();
    if (now == 0 || now % every_ != 0)
        return;
    writeNow();
}

bool
StreamCheckpointer::writeNow()
{
    const uint64_t generation = generation_ + 1;
    CheckpointInfo info;
    std::string error;
    if (!writeStreamCheckpoint(service_, base_, generation, meta_,
                               &info, &error, &buffer_)) {
        ++failures_;
        service_.noteCheckpointFailure(generation);
        warn("stream checkpoint: generation %llu failed: %s",
             static_cast<unsigned long long>(generation),
             error.c_str());
        return false;
    }
    generation_ = generation;
    ++written_;
    last_ = info;
    service_.noteCheckpoint(info.generation, info.crc);
    return true;
}

void
StreamCheckpointer::addManifestSections(
    obs::RunManifest &manifest) const
{
    const char *section = "stream.checkpoint";
    manifest.addSectionEntry(section, "enabled", uint64_t{1});
    manifest.addSectionEntry(section, "every_ticks", every_);
    manifest.addSectionEntry(section, "generation", last_.generation);
    manifest.addSectionEntry(section, "tick", last_.tick);
    manifest.addSectionEntry(section, "digest", last_.digest);
    manifest.addSectionEntry(section, "crc", last_.crc);
    manifest.addSectionEntry(section, "written", written_);
    manifest.addSectionEntry(section, "failures", failures_);
    manifest.addSectionEntry(section, "restores",
                             service_.stats().restores);
    manifest.addSectionEntry(section, "fallbacks",
                             service_.stats().restoreFallbacks);
}

void
CheckpointReader::bytes(void *out, size_t n)
{
    if (!ok_ || size_ - pos_ < n) {
        fail("short read");
        std::memset(out, 0, n);
        return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
}

// ---------------------------------------------------------------------
// StreamService checkpoint sections. These are members (declared in
// service.hh) so the format stays in one translation unit without
// widening the service's public state surface.

uint64_t
StreamService::checkpointFingerprint() const
{
    uint64_t h = fnv1aBasis;
    auto fold = [&h](uint64_t v) { h = fnv1a64(&v, sizeof v, h); };
    auto foldDouble = [&fold](double v) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        fold(bits);
    };

    fold(0x7d9c0001ull); // fingerprint format tag
    fold(static_cast<uint64_t>(kCheckpointVersion));
    fold(static_cast<uint64_t>(cfg_.ingest.shards));
    fold(cfg_.ingest.ringCapacity);
    fold(cfg_.ingest.highWatermark);
    fold(cfg_.ingest.seed);
    fold(static_cast<uint64_t>(cfg_.session.counterWidthBits));
    fold(cfg_.session.idleTimeoutTicks);
    fold(cfg_.session.quarantineThreshold);
    fold(cfg_.session.wattsWindow);
    fold(cfg_.drift.window);
    foldDouble(cfg_.drift.factor);
    foldDouble(cfg_.drift.floorWatts);
    fold(cfg_.drift.healthyWindows);
    fold(cfg_.refitBlockRows);
    fold(cfg_.refitWindowBlocks);
    fold(cfg_.drainBudget);
    fold(cfg_.evictEveryTicks);
    fold(cfg_.verifyRefits ? 1 : 0);

    // The fallback rungs never refit at runtime, so their trained
    // coefficients identify the training run: a checkpoint written
    // against a differently trained estimator must not restore.
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        fold(est_.model(rail).coefficients().size());
        for (const auto &rung : est_.fallbacks(rail)) {
            fold(rung->trained() ? 1 : 0);
            if (!rung->trained())
                continue;
            const std::vector<double> coefs = rung->coefficients();
            fold(coefs.size());
            for (const double c : coefs)
                foldDouble(c);
        }
    }
    return h;
}

void
StreamService::checkpointSaveIngest(CheckpointWriter &w) const
{
    ingest_.checkpointSave(w);
}

bool
StreamService::checkpointRestoreIngest(CheckpointReader &r)
{
    return ingest_.checkpointRestore(r);
}

void
StreamService::checkpointSaveShard(size_t shard,
                                   CheckpointWriter &w) const
{
    sessions_[shard].checkpointSave(w);
    const SampleRing &ring = ingest_.shard(static_cast<int>(shard));
    w.u64(ring.size());
    for (size_t i = 0; i < ring.size(); ++i)
        saveSample(w, ring.at(i));
}

bool
StreamService::checkpointRestoreShard(size_t shard,
                                      CheckpointReader &r)
{
    if (!sessions_[shard].checkpointRestore(r))
        return false;
    SampleRing &ring = ingest_.shard(static_cast<int>(shard));
    ring.clear();
    const uint64_t queued = r.u64();
    if (queued > ring.capacity()) {
        r.fail("ring occupancy exceeds capacity");
        return false;
    }
    StreamSample sample;
    for (uint64_t i = 0; i < queued; ++i) {
        restoreSample(r, sample);
        if (!r.ok())
            return false;
        ring.push(sample);
    }
    return r.ok();
}

void
StreamService::checkpointSaveService(CheckpointWriter &w) const
{
    w.u64(now_);
    w.u64(digest_);
    w.u64(stats_.ticks);
    w.u64(stats_.drained);
    w.u64(stats_.estimates);
    w.u64(stats_.quarantinedAtDoor);
    w.u64(stats_.evictionSweeps);
    w.u64(stats_.checkpoints);
    w.u64(stats_.checkpointFailures);
    w.u64(stats_.restores);
    w.u64(stats_.restoreFallbacks);
    for (int b = 0; b < obs::histogramBuckets; ++b)
        w.u64(latency_[static_cast<size_t>(b)]);
    w.u64(latencyCount_);
    w.u64(latencyMax_);

    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        const RailState &state = rails_[static_cast<size_t>(r)];
        w.u64(state.refits);
        w.u64(state.fullQrRefits);
        w.u64(state.verifiedRefits);
        w.u64(state.degradedPublishes);
        w.u64(state.unestimable);
        w.u64(state.blocksAtLastRefit);
        w.f64(state.lastRefitRmse);
        w.u8(state.publishingFallback ? 1 : 0);
        state.drift->checkpointSave(w);
        state.rls->checkpointSave(w);
        // The primary model refits at runtime; its live coefficients
        // are state. (The chipset's intercept-only fit included.)
        const std::vector<double> coefs =
            est_.model(rail).coefficients();
        w.u32(static_cast<uint32_t>(coefs.size()));
        for (const double c : coefs)
            w.f64(c);
    }
}

bool
StreamService::checkpointRestoreService(CheckpointReader &r)
{
    now_ = r.u64();
    digest_ = r.u64();
    stats_.ticks = r.u64();
    stats_.drained = r.u64();
    stats_.estimates = r.u64();
    stats_.quarantinedAtDoor = r.u64();
    stats_.evictionSweeps = r.u64();
    stats_.checkpoints = r.u64();
    stats_.checkpointFailures = r.u64();
    stats_.restores = r.u64();
    stats_.restoreFallbacks = r.u64();
    for (int b = 0; b < obs::histogramBuckets; ++b)
        latency_[static_cast<size_t>(b)] = r.u64();
    latencyCount_ = r.u64();
    latencyMax_ = r.u64();

    std::vector<double> coefs;
    for (int rail = 0; rail < numRails; ++rail) {
        RailState &state = rails_[static_cast<size_t>(rail)];
        state.refits = r.u64();
        state.fullQrRefits = r.u64();
        state.verifiedRefits = r.u64();
        state.degradedPublishes = r.u64();
        state.unestimable = r.u64();
        state.blocksAtLastRefit = r.u64();
        state.lastRefitRmse = r.f64();
        state.publishingFallback = r.u8() != 0;
        if (!state.drift->checkpointRestore(r))
            return false;
        if (!state.rls->checkpointRestore(r))
            return false;
        const uint32_t count = r.u32();
        SubsystemModel &model =
            est_.model(static_cast<Rail>(rail));
        if (count != model.coefficients().size()) {
            r.fail("primary coefficient count mismatch");
            return false;
        }
        coefs.resize(count);
        for (uint32_t c = 0; c < count; ++c)
            coefs[static_cast<size_t>(c)] = r.f64();
        if (!r.ok())
            return false;
        model.setCoefficients(coefs);
    }
    return r.ok();
}

void
StreamService::checkpointRestoreFinish(uint64_t generation,
                                       bool usedFallback)
{
    ++stats_.restores;
    if (usedFallback)
        ++stats_.restoreFallbacks;
    // Prime the timeline delta base with the restored cumulative
    // counters: the first window sealed after restore must report
    // the activity of that window, not of the whole previous life.
    telemetry_.primeDeltaBase(cumulativeTimelineCounters());
    telemetry_.flight(telemetry_.serviceRing(), FlightKind::Restore,
                      now_, generation, usedFallback ? 1 : 0);
}

void
StreamService::noteCheckpoint(uint64_t generation, uint64_t crc)
{
    ++stats_.checkpoints;
    telemetry_.flight(telemetry_.serviceRing(), FlightKind::Checkpoint,
                      now_, generation, crc);
}

void
StreamService::noteCheckpointFailure(uint64_t generation)
{
    ++stats_.checkpointFailures;
    telemetry_.flight(telemetry_.serviceRing(),
                      FlightKind::CheckpointFailed, now_, generation);
}

} // namespace stream
} // namespace tdp
