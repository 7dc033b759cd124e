/**
 * @file
 * The stream_drift workload: a synthetic client fleet streamed
 * through the estimation service. One pass builds a fresh service,
 * fleet and checkpointer (the set-up, which also offers every
 * client's baseline sample) and then streams 96 rounds, one sample
 * per client per round and one tick per round. The CPU rail's
 * measured power shifts mid-pass and a checkpoint is written every
 * eight ticks, so the fixed per-tick costs (pool dispatch, serial
 * fold, refits, checkpoint writes) dominate.
 */

#include "workloads.hh"

#include <filesystem>
#include <memory>

#include "exp/experiment_pool.hh"
#include "stream/checkpoint.hh"
#include "stream/service.hh"
#include "stream/synthetic.hh"

namespace perfbench {

namespace {

using namespace tdp;
using stream::StreamSample;
using stream::StreamService;

constexpr int clients = 2048;
constexpr int shards = 8;
/**
 * Samples drained per shard per tick: twice a shard's mean share of
 * a round, so hash imbalance never leaves a sample queued or shed.
 */
constexpr size_t drainBudget = 512;
/** Measured rounds per pass. */
constexpr int rounds = 96;
/** First round with the CPU rail's measured power shifted. */
constexpr int driftRound = 48;
constexpr double driftWatts = 35.0;
/** Checkpoint cadence (ticks). */
constexpr uint64_t checkpointEvery = 8;

stream::StreamConfig
streamConfig(uint64_t seed)
{
    stream::StreamConfig cfg;
    cfg.ingest.shards = shards;
    cfg.ingest.ringCapacity = 2 * drainBudget;
    cfg.ingest.highWatermark = 0;
    cfg.ingest.seed = seed;
    cfg.drainBudget = drainBudget;
    cfg.verifyRefits = false;
    // Detector and refit window small enough that the shift is
    // flagged, refitted and recovered within the pass.
    cfg.drift.window = 16;
    cfg.drift.factor = 3.0;
    cfg.drift.floorWatts = 0.5;
    cfg.drift.healthyWindows = 2;
    cfg.refitBlockRows = 8;
    cfg.refitWindowBlocks = 4;
    return cfg;
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Load of one client in one round: a triangle wave whose period and
 * phase the seed picks per client.
 */
double
loadOf(uint64_t seed, int client, int round)
{
    const uint64_t h = mix64(seed ^ mix64(static_cast<uint64_t>(client)));
    const int period = 5 + static_cast<int>(h % 7);
    const int phase =
        (round + static_cast<int>((h >> 8) % (2 * period))) % (2 * period);
    const double tri = phase < period
                           ? static_cast<double>(phase) / period
                           : static_cast<double>(2 * period - phase) / period;
    return 0.05 + 0.9 * tri;
}

/** Service, fleet and checkpointer of one pass. */
struct Stream
{
    Stream(uint64_t seed, const std::string &ckpt_dir)
        : service(streamConfig(seed),
                  stream::synthetic::trainedEstimator()),
          fleet(clients, 40)
    {
        resetDirectory(ckpt_dir);
        checkpointer = std::make_unique<stream::StreamCheckpointer>(
            service, ckpt_dir + "/service", checkpointEvery);
    }

    StreamService service;
    stream::synthetic::Fleet fleet;
    std::unique_ptr<stream::StreamCheckpointer> checkpointer;
};

/**
 * Stream one round: generate it, offer it, tick until it is drained.
 * @p pass, when given, receives the tick times.
 */
void
streamRound(uint64_t seed, const ExperimentPool &pool, Stream &st,
            int round, SpanLog &log, int64_t parent, int64_t run,
            PassRecord *pass, double *loadgen_s)
{
    std::vector<StreamSample> batch;
    batch.reserve(clients);
    const Clock::time_point start = Clock::now();
    {
        ScopedSpan span(log, "bench.loadgen", parent, run);
        const double shift = round >= driftRound ? driftWatts : 0.0;
        for (int c = 0; c < clients; ++c)
            batch.push_back(st.fleet.next(c, loadOf(seed, c, round), shift));
    }
    *loadgen_s += secondsSince(start);
    {
        ScopedSpan span(log, "stream.offer", parent, run);
        for (const StreamSample &sample : batch)
            st.service.offer(sample);
    }
    do {
        const Clock::time_point tickStart = Clock::now();
        {
            ScopedSpan span(log, "stream.tick", parent, run);
            st.service.tick(pool);
        }
        {
            ScopedSpan span(log, "stream.checkpoint", parent, run);
            st.checkpointer->onTick();
        }
        if (pass)
            pass->opsMs.push_back(1e3 * secondsSince(tickStart));
    } while (st.service.stats().drained <
             st.service.ingestStats().admitted);
}

/** Set up a fresh stream and measure one pass over it. */
PassRecord
streamPass(uint64_t seed, const ExperimentPool &pool,
           const std::string &ckpt_dir, SpanLog &log, int64_t run,
           double *setup_s)
{
    const bool traced = log.enabled();
    log.setEnabled(false);
    const Clock::time_point setupStart = Clock::now();
    Stream st(seed, ckpt_dir);
    double unused = 0.0;
    streamRound(seed, pool, st, 0, log, -1, -1, nullptr, &unused);
    *setup_s = secondsSince(setupStart);
    log.setEnabled(traced);

    PassRecord pass;
    pass.traced = traced;
    const uint64_t drainedBefore = st.service.stats().drained;
    double loadgenS = 0.0;
    const Clock::time_point start = Clock::now();
    {
        ScopedSpan root(log, "pass", -1, run);
        for (int round = 1; round <= rounds; ++round)
            streamRound(seed, pool, st, round, log, root.id(), run, &pass,
                        &loadgenS);
    }
    pass.wallS = secondsSince(start);
    pass.serviceS = pass.wallS - loadgenS;
    pass.samples = st.service.stats().drained - drainedBefore;

    const StreamService &svc = st.service;
    const auto sessions = svc.sessionStats();
    const uint64_t invalid = sessions.nonFinite + sessions.outOfRange +
                             sessions.duplicateSeq +
                             sessions.outOfOrderSeq + sessions.staleTime +
                             sessions.zeroCycles;
    uint64_t refits = 0;
    uint64_t fullQr = 0;
    uint64_t engaged = 0;
    uint64_t recovered = 0;
    for (int r = 0; r < numRails; ++r) {
        const stream::RailStatus status =
            svc.railStatus(static_cast<Rail>(r));
        refits += status.refits;
        fullQr += status.fullQrRefits;
        engaged += status.drift.engaged;
        recovered += status.drift.recovered;
    }
    pass.check["service_digest"] = hex64(svc.digest());
    pass.check["stream.accepted"] = std::to_string(sessions.accepted);
    pass.check["stream.invalid"] = std::to_string(invalid);
    pass.check["stream.shed"] = std::to_string(svc.ingestStats().shed);
    pass.check["stream.overflow"] =
        std::to_string(svc.ingestStats().overflow);
    pass.check["stream.refits"] = std::to_string(refits);
    pass.check["stream.full_qr_refits"] = std::to_string(fullQr);
    pass.check["stream.drift_engaged"] = std::to_string(engaged);
    pass.check["stream.drift_recovered"] = std::to_string(recovered);
    pass.check["stream.checkpoints"] =
        std::to_string(st.checkpointer->written());
    pass.check["stream.checkpoint_failures"] =
        std::to_string(st.checkpointer->failures());
    pass.counts["stream.session_bytes"] =
        static_cast<double>(svc.sessionMemoryBytes());
    std::error_code error;
    const auto size =
        std::filesystem::file_size(st.checkpointer->last().path, error);
    pass.counts["stream.checkpoint_bytes"] =
        error ? 0.0 : static_cast<double>(size);
    return pass;
}

} // namespace

void
runStream(const Options &options, RunResult &result, SpanLog &log)
{
    const ExperimentPool pool(options.jobs);
    const std::string ckptDir = options.scratch + "/checkpoints";
    // One tick per round; one in eight writes a checkpoint, so the
    // tail of a pass's ticks falls among those.
    result.minOps = rounds;

    // A traced run alternates untraced and traced passes: two at least.
    const size_t minPasses = options.trace ? 2 : 1;
    const Clock::time_point window = Clock::now();
    for (size_t p = 0;
         keepMeasuring(window, options.seconds, p, minPasses); ++p) {
        double setupS = 0.0;
        log.setEnabled(options.trace && p % 2 == 1);
        result.passes.push_back(streamPass(options.seed, pool, ckptDir, log,
                                           static_cast<int64_t>(p),
                                           &setupS));
        result.setupS.push_back(setupS);
    }
    log.setEnabled(false);

    if (options.seed != paperSeed) {
        double setupS = 0.0;
        result.reference =
            streamPass(paperSeed, pool, ckptDir, log, -1, &setupS).check;
    }
    std::filesystem::remove_all(ckptDir);
}

} // namespace perfbench
