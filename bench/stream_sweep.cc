/**
 * @file
 * Streaming-service sweep: drives the hardened streaming estimator
 * (src/stream/) through 12 workload load-shapes x 5 adversarial
 * phases and asserts the whole thing is deterministic - the service
 * digest (every drained sample's verdict, every published watt,
 * every refit and drift transition) must be byte-identical at
 * --jobs 1 and --jobs N in *every* phase, including forced overload
 * (shedding + hard overflow), full-poison (every client quarantined)
 * and drift (per-rail fallback engagement and recovery).
 *
 * Phases per workload:
 *
 *  1. steady   - in-budget traffic; refits verified bitwise against
 *                the from-scratch window recomputation (verifyRefits);
 *  2. overload - tight rings + small drain budget under burst
 *                traffic; deterministic shedding, hard overflow and
 *                nonzero queue-delay percentiles;
 *  3. stall    - half the fleet goes silent mid-phase (idle-timeout
 *                eviction) and returns as fresh sessions;
 *  4. poison   - every client turns malicious after its baseline
 *                (hash-decided deterministic per-client faults:
 *                NaN counters, duplicate and stale sequence numbers);
 *                the full fleet must end quarantined with the service
 *                still live;
 *  5. drift    - the CPU rail's physics shift mid-phase; the drift
 *                guard must engage the fallback chain, the windowed
 *                refit must adapt, and the rail must be re-promoted.
 *
 * A sixth entry, checkpoint-kill, is not part of the workload grid:
 * it is the crash-safety proof for the checkpoint subsystem
 * (src/stream/checkpoint.hh). A re-exec'd child runs one workload
 * with periodic checkpointing and SIGKILLs itself at a seed-hashed
 * tick; the parent restores the newest on-disk generation into a
 * fresh service, fast-forwards a fresh fleet over the rounds the
 * checkpoint already covers, re-offers everything after the
 * checkpoint tick and fatal-asserts that the digest and every
 * cumulative counter are bitwise identical to an uninterrupted
 * reference run - at --jobs 1 and --jobs N. Torn-write and
 * ENOSPC/EXDEV injection on the checkpoint path ride along: a torn
 * newest generation must fall back to the previous one (with a
 * warning, never a fatal), a failed write must leave the service
 * running on the prior generation. Reported as the exact-gated
 * restore_digest_matches / restore_fallbacks /
 * checkpoint_io_failures metrics.
 *
 * The drift-phase service of the last workload contributes the
 * stream.* manifest sections (ingest, session, SLO, per-rail model
 * state) that scripts/validate_manifest.py --require-stream checks
 * in CI. Deterministic totals are reported as exact-gated metrics in
 * BENCH_bm_stream.json; wall-clock throughput rides along ungated.
 *
 * With --timeline-out (or TDP_TIMELINE_OUT) the per-phase services
 * run with the tick-indexed telemetry timeline enabled: the dump
 * file is refreshed at the end of every parallel phase (reason
 * "exit"), on SIGTERM drain ("sigterm", alongside partial stream.*
 * manifest sections and exit code 113) and on a mid-sweep fatal
 * ("fatal"); SIGUSR2 writes a `.sigusr2` side file mid-run and the
 * first quarantine writes a `.quarantine` side file. The timeline
 * digest joins the serial-vs-parallel comparison, and a telemetry
 * off/on A/B pass reports the ceiling-gated telemetry_overhead_ratio
 * metric (min over alternated pairs, limit 1.05). Without the flag
 * none of this runs and stdout is byte-identical to a build without
 * the telemetry code.
 *
 * Flags (after the shared bench flags, see bench_util.hh):
 *   --stream PHASES   comma list of phases to run (default: all)
 *   --clients N       fleet size per workload, 2..4096
 *                                               [TDP_STREAM_CLIENTS]
 *   --rounds N        rounds per phase          [TDP_STREAM_ROUNDS]
 *   --window N        refit window blocks       [TDP_STREAM_WINDOW]
 *   --seed V          admission/shed hash seed  [TDP_STREAM_SEED]
 *   --checkpoint BASE   checkpoint every grid-phase service into the
 *                       two-generation rotation at BASE; a SIGTERM
 *                       drain writes one final generation before
 *                       exiting 113       [TDP_STREAM_CHECKPOINT]
 *   --checkpoint-every N  checkpoint cadence in ticks (default 8)
 *                                   [TDP_STREAM_CHECKPOINT_EVERY]
 *   --restore BASE      restore BASE into a fresh service, replay
 *                       the input tail its meta section identifies
 *                       and verify against a freshly computed
 *                       uninterrupted reference run, then exit
 *
 * --clients is capped at 4096: the sweep is a correctness harness
 * that replays every phase twice (serial + parallel reference), so
 * fleet-scale runs belong in bench/stream_scale. --clients also
 * interacts with --window: refit blocks seal every refitBlockRows
 * *accepted* samples, so a small fleet fills a wide window slowly
 * and early refits run on a partial window (fewer sealed blocks than
 * --window) - more clients per round means more sealed blocks and
 * tighter refit cadence at the same --window.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/bench_util.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/shutdown.hh"
#include "measure/trace_io.hh"
#include "stream/checkpoint.hh"
#include "stream/service.hh"
#include "stream/synthetic.hh"

extern char **environ;

namespace {

using namespace tdp;
using namespace tdp::bench;
using stream::Admission;
using stream::DriftState;
using stream::RailStatus;
using stream::RestoreResult;
using stream::StreamCheckpointer;
using stream::StreamConfig;
using stream::StreamSample;
using stream::StreamService;

/** One workload: a deterministic load shape u(round, client). */
struct Workload
{
    const char *name;
    double base;
    double amplitude;
    int period;
};

/** The paper's 12-workload suite mapped onto load shapes. */
const std::vector<Workload> suite = {
    {"idle", 0.02, 0.02, 8},     {"gcc", 0.55, 0.35, 12},
    {"mcf", 0.45, 0.40, 9},      {"vortex", 0.60, 0.25, 15},
    {"dbt2", 0.35, 0.30, 7},     {"specjbb", 0.70, 0.25, 11},
    {"art", 0.65, 0.30, 13},     {"lucas", 0.50, 0.45, 10},
    {"mesa", 0.40, 0.35, 14},    {"mgrid", 0.55, 0.40, 8},
    {"wupwise", 0.60, 0.30, 16}, {"diskload", 0.30, 0.25, 6}};

/**
 * The five grid phases plus the out-of-grid crash-safety proof; the
 * workload x phase loop skips checkpoint-kill, which runs once after
 * the repetition loop instead.
 */
const std::vector<std::string> allPhases = {
    "steady", "overload", "stall", "poison", "drift",
    "checkpoint-kill"};

/**
 * Correctness-sweep fleet ceiling: each phase runs twice per
 * workload, so the sweep scales as 2 x 12 x 5 x clients x rounds.
 * Fleet-scale throughput runs belong in bench/stream_scale.
 */
constexpr int maxSweepClients = 4096;

struct SweepOptions
{
    int clients = 12;
    int rounds = 32;
    int windowBlocks = 4;
    uint64_t seed = 0x5eedc4a7;
    std::vector<std::string> phases = allPhases;

    /** --checkpoint rotation base ("" disables). */
    std::string checkpointBase;

    /** --checkpoint-every cadence in ticks. */
    int checkpointEvery = 8;

    /** --restore base ("" for a normal sweep). */
    std::string restoreBase;
};

/**
 * Checkpointing plan of one phase run: rotation base and cadence,
 * plus the optional chaos the harness injects - a self-SIGKILL after
 * one tick's bookkeeping, and at most one IoFault per write tick on
 * the checkpoint path.
 */
struct CheckpointPlan
{
    std::string base;
    uint64_t everyTicks = 8;

    /** Self-SIGKILL right after this tick's checkpoint (-1: never). */
    int64_t killAtTick = -1;

    /** Inject one IoFault into the write at this tick (-1: never). @{ */
    int64_t tornAtTick = -1;
    int64_t enospcAtTick = -1;
    int64_t exdevAtTick = -1;
    /** @} */
};

/** What a checkpointed phase run left behind. */
struct CheckpointOutcome
{
    uint64_t written = 0;
    uint64_t failures = 0;
    uint64_t generation = 0;
};

/** Load of one client at one round: triangular wave per workload. */
double
loadOf(const Workload &w, int round, int client)
{
    const int p = w.period;
    const int phase = round % (2 * p);
    const double tri =
        phase < p ? static_cast<double>(phase) / p
                  : static_cast<double>(2 * p - phase) / p;
    double u = (w.base + w.amplitude * tri) *
               (0.75 + 0.02 * (client % 8));
    if (u < 0.0)
        u = 0.0;
    if (u > 1.0)
        u = 1.0;
    return u;
}

/**
 * The service whose telemetry a mid-run dump (SIGUSR2, SIGTERM,
 * fatal) snapshots. Phases run strictly one at a time on the main
 * thread, so a plain pointer to the live service is safe; it is
 * cleared before the service goes out of scope.
 */
const StreamService *liveService = nullptr;

/**
 * The live phase's checkpointer, when checkpointing is on: the
 * SIGTERM drain writes one final generation through it before the
 * clean-abort exit, so a drained run restores with zero loss.
 */
StreamCheckpointer *liveCheckpointer = nullptr;

/** argv[0], for re-exec'ing the checkpoint-kill child. */
const char *selfPath = nullptr;

/** One `.quarantine` dump per process: first quarantine wins. */
bool quarantineDumped = false;

/** True when --timeline-out / TDP_TIMELINE_OUT enabled telemetry. */
bool
timelineActive()
{
    return !timelineOutPath().empty();
}

/**
 * Poll the async-signal flags between ticks (the handlers only set
 * relaxed atomics, PR-5 style). SIGUSR2 dumps the live telemetry to
 * a side file and continues; SIGTERM flushes whatever the live
 * service has seen so far - partial stream.* manifest sections and
 * the timeline - then exits with the clean-abort code so postmortems
 * of drained runs are never empty.
 */
void
pollSignals(const StreamService &service)
{
    if (dumpRequested()) {
        if (timelineActive())
            service.writeTimeline(timelineOutPath() + ".sigusr2",
                                  "bm_stream", "sigusr2");
        clearDumpRequest();
    }
    if (!shutdownRequested())
        return;
    // A SIGTERM drain is exactly the interruption the checkpoints
    // exist for: write one final generation so a later restore
    // resumes from this very tick with zero input loss.
    if (liveCheckpointer != nullptr)
        liveCheckpointer->writeNow();
    if (observabilityEnabled()) {
        service.addManifestSections(runManifest());
        if (liveCheckpointer != nullptr)
            liveCheckpointer->addManifestSections(runManifest());
        if (timelineActive())
            service.writeTimeline(timelineOutPath(), "bm_stream",
                                  "sigterm");
        flushObservability();
    }
    std::exit(cleanAbortExitCode);
}

/**
 * Digest of every sealed timeline window, folded bytewise (sealing
 * zeroes the padding). Part of PhaseResult, so the sweep's serial
 * vs parallel comparison also proves the *telemetry* is
 * byte-identical at any worker count. 0 when the timeline is off.
 */
uint64_t
timelineDigestOf(const StreamService &service)
{
    uint64_t digest = fnv1aBasis;
    service.telemetry().timeline().forEach(
        [&](const stream::TimelineWindow &w) {
            digest = fnv1a64(&w, sizeof w, digest);
        });
    return digest;
}

/** Everything a phase run must reproduce at any worker count. */
struct PhaseResult
{
    uint64_t digest = 0;
    uint64_t timelineDigest = 0;
    uint64_t offered = 0;
    uint64_t shed = 0;
    uint64_t overflow = 0;
    uint64_t accepted = 0;
    uint64_t invalid = 0;
    uint64_t quarantines = 0;
    uint64_t evicted = 0;
    uint64_t refits = 0;
    uint64_t verifiedRefits = 0;
    uint64_t driftEngaged = 0;
    uint64_t driftRecovered = 0;
    uint64_t p99Ticks = 0;
};

StreamConfig
phaseConfig(const SweepOptions &opt, size_t workload,
            const std::string &phase)
{
    StreamConfig cfg;
    cfg.ingest.shards = 4;
    cfg.ingest.ringCapacity = 256;
    cfg.ingest.highWatermark = 224;
    cfg.ingest.seed = opt.seed ^ (workload * 0x9e3779b9u);
    cfg.session.counterWidthBits = 40;
    cfg.session.idleTimeoutTicks = 64;
    cfg.session.quarantineThreshold = 4;
    cfg.session.wattsWindow = 8;
    cfg.drift.window = 16;
    cfg.drift.factor = 3.0;
    cfg.drift.floorWatts = 0.5;
    cfg.drift.healthyWindows = 2;
    cfg.refitBlockRows = 8;
    cfg.refitWindowBlocks =
        static_cast<size_t>(opt.windowBlocks);
    cfg.drainBudget = 64;
    cfg.evictEveryTicks = 16;
    cfg.verifyRefits = true;
    // The flight recorder is always on; the timeline ring + HDR
    // latency windows engage only when a dump path was configured.
    cfg.telemetry.timeline = timelineActive();
    cfg.telemetry.windowTicks = 16;

    if (phase == "overload") {
        // Tight rings and a small drain budget: the burst traffic
        // must ramp through shedding into hard overflow, and queued
        // samples must age enough to move the p99 latency.
        cfg.ingest.shards = 2;
        cfg.ingest.ringCapacity = 16;
        cfg.ingest.highWatermark = 8;
        cfg.drainBudget = 4;
    } else if (phase == "stall") {
        cfg.session.idleTimeoutTicks = 6;
        cfg.evictEveryTicks = 4;
    }
    return cfg;
}

/** Hash-decided deterministic per-(client, round) fault decision. */
bool
chaosHit(uint64_t seed, uint64_t client, uint64_t round,
         double probability)
{
    return hashUnit(seed ^ 0xc4a05u, client, round) < probability;
}

/**
 * Generate every sample of one round and hand it to @p offer,
 * exactly as the live run offers them. The restore path shares this
 * generator - both for fast-forwarding a fresh fleet over the rounds
 * a checkpoint already covers (offering into a discard sink) and for
 * re-offering the tail - so the replayed input cannot drift from the
 * original by construction. Returns the number of samples offered.
 */
template <typename Offer>
uint64_t
offerRound(const SweepOptions &opt, size_t workload,
           const std::string &phase, const StreamConfig &cfg,
           stream::synthetic::Fleet &fleet, int round, Offer &&offer)
{
    const Workload &w = suite[workload];
    const int half = opt.rounds / 2;
    uint64_t offered = 0;
    for (int c = 0; c < opt.clients; ++c) {
        const double u = loadOf(w, round, c);
        if (phase == "stall" && c < opt.clients / 2 &&
            round >= half / 2 && round < half + half / 2)
            continue; // half the fleet goes silent mid-phase

        const double shift =
            phase == "drift" && round >= half ? 35.0 : 0.0;
        StreamSample sample = fleet.next(c, u, shift);
        if (phase == "poison" && round >= 2) {
            // Full poison: every client misbehaves, with the
            // fault class hashed per (client, round) so the run
            // is reproducible at any worker count.
            if (chaosHit(cfg.ingest.seed, sample.client, round,
                         0.5)) {
                sample.raw.counts[0] = std::nan("");
            } else if (chaosHit(cfg.ingest.seed ^ 1, sample.client,
                                round, 0.5)) {
                sample.seq = 1; // stale sequence number
            } else {
                sample.time = 0.0; // stale timestamp
            }
        }
        ++offered;
        offer(sample);
        if (phase == "overload") {
            // Burst: four extra offers per client per round.
            for (int burst = 0; burst < 4; ++burst) {
                ++offered;
                offer(fleet.next(c, u));
            }
        }
    }
    return offered;
}

/**
 * Run identity stored in every checkpoint's meta section, so
 * --restore can rebuild the matching config and input tail from the
 * file alone: "<workload> <phase> <clients> <rounds> <window>
 * <seed-hex>".
 */
std::string
checkpointMetaFor(const SweepOptions &opt, size_t workload,
                  const std::string &phase)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "%zu %s %d %d %d %llx", workload,
                  phase.c_str(), opt.clients, opt.rounds,
                  opt.windowBlocks,
                  static_cast<unsigned long long>(opt.seed));
    return buf;
}

bool
parseCheckpointMeta(const std::string &meta, SweepOptions &opt,
                    size_t &workload, std::string &phase)
{
    char name[64] = {0};
    unsigned long long wl = 0;
    unsigned long long seed = 0;
    if (std::sscanf(meta.c_str(), "%llu %63s %d %d %d %llx", &wl,
                    name, &opt.clients, &opt.rounds,
                    &opt.windowBlocks, &seed) != 6)
        return false;
    if (wl >= suite.size())
        return false;
    workload = static_cast<size_t>(wl);
    phase = name;
    opt.seed = seed;
    return true;
}

/** Fill the service-derived fields of a PhaseResult. */
void
capturePhaseTotals(const StreamService &service, PhaseResult &result)
{
    result.digest = service.digest();
    result.timelineDigest = timelineDigestOf(service);
    result.shed = service.ingestStats().shed;
    result.overflow = service.ingestStats().overflow;
    const auto sessions = service.sessionStats();
    result.accepted = sessions.accepted;
    result.invalid = sessions.nonFinite + sessions.outOfRange +
                     sessions.duplicateSeq + sessions.outOfOrderSeq +
                     sessions.staleTime + sessions.zeroCycles;
    result.quarantines = sessions.quarantines;
    result.evicted = sessions.evicted;
    for (int r = 0; r < numRails; ++r) {
        const RailStatus status =
            service.railStatus(static_cast<Rail>(r));
        result.refits += status.refits;
        result.verifiedRefits += status.verifiedRefits;
        result.driftEngaged += status.drift.engaged;
        result.driftRecovered += status.drift.recovered;
    }
    result.p99Ticks = service.slo().p99Ticks;
}

PhaseResult
runPhase(const SweepOptions &opt, size_t workload,
         const std::string &phase, int jobs,
         const CheckpointPlan *plan = nullptr,
         CheckpointOutcome *outcome = nullptr)
{
    StreamConfig cfg = phaseConfig(opt, workload, phase);
    StreamService service(cfg, stream::synthetic::trainedEstimator());
    const ExperimentPool pool(jobs);
    stream::synthetic::Fleet fleet(opt.clients, 40);
    liveService = &service;

    std::unique_ptr<StreamCheckpointer> checkpointer;
    bool faultHookInstalled = false;
    if (plan != nullptr) {
        checkpointer = std::make_unique<StreamCheckpointer>(
            service, plan->base, plan->everyTicks);
        checkpointer->setMeta(
            checkpointMetaFor(opt, workload, phase));
        liveCheckpointer = checkpointer.get();
        if (plan->tornAtTick >= 0 || plan->enospcAtTick >= 0 ||
            plan->exdevAtTick >= 0) {
            // Per-tick fault injection, keyed by destination path so
            // unrelated publishes (manifest, timeline) stay clean.
            const std::string base = plan->base;
            const StreamService *svc = &service;
            setIoFaultHook([svc, plan,
                            base](const std::string &path) {
                if (path.compare(0, base.size(), base) != 0)
                    return IoFault::None;
                const int64_t t = static_cast<int64_t>(svc->now());
                if (t == plan->tornAtTick)
                    return IoFault::TornWrite;
                if (t == plan->enospcAtTick)
                    return IoFault::Enospc;
                if (t == plan->exdevAtTick)
                    return IoFault::Exdev;
                return IoFault::None;
            });
            faultHookInstalled = true;
        }
    }

    // Between-tick bookkeeping: answer SIGUSR2/SIGTERM promptly,
    // snapshot the flight recorder the first time a client lands in
    // quarantine (the `.quarantine` side file survives the exit
    // overwrite of the main dump), checkpoint at cadence boundaries
    // and inject the planned crash.
    const auto afterTick = [&] {
        pollSignals(service);
        if (timelineActive() && !quarantineDumped &&
            service.sessionStats().quarantines > 0) {
            quarantineDumped = true;
            service.writeTimeline(timelineOutPath() + ".quarantine",
                                  "bm_stream", "quarantine");
        }
        if (checkpointer != nullptr) {
            checkpointer->onTick();
            if (plan->killAtTick >= 0 &&
                service.now() ==
                    static_cast<uint64_t>(plan->killAtTick))
                ::kill(::getpid(), SIGKILL);
        }
    };

    PhaseResult result;
    for (int round = 0; round < opt.rounds; ++round) {
        result.offered +=
            offerRound(opt, workload, phase, cfg, fleet, round,
                       [&](const StreamSample &sample) {
                           service.offer(sample);
                       });
        service.tick(pool);
        afterTick();
    }
    // Drain the backlog the overload phase leaves in the rings.
    for (int i = 0; i < 64; ++i) {
        service.tick(pool);
        afterTick();
    }

    capturePhaseTotals(service, result);

    // The last workload's drift-phase service carries the stream.*
    // manifest sections CI validates (drift engagement + recovery
    // visible in stream.rails).
    if (observabilityEnabled() && phase == "drift" &&
        workload + 1 == suite.size() && jobs > 1) {
        service.addManifestSections(runManifest());
        if (checkpointer != nullptr)
            checkpointer->addManifestSections(runManifest());
    }
    // Every parallel run refreshes the exit dump; the last completed
    // phase wins, so the file always holds a full, current snapshot.
    if (timelineActive() && jobs > 1)
        service.writeTimeline(timelineOutPath(), "bm_stream", "exit");
    if (faultHookInstalled)
        setIoFaultHook({});
    if (outcome != nullptr && checkpointer != nullptr) {
        outcome->written = checkpointer->written();
        outcome->failures = checkpointer->failures();
        outcome->generation = checkpointer->generation();
    }
    liveCheckpointer = nullptr;
    liveService = nullptr;
    return result;
}

/**
 * Restore the newest usable generation of @p base into a fresh
 * service and replay the input tail: fast-forward a fresh fleet
 * through the rounds the checkpoint already folded (the generator is
 * deterministic, so discarding that prefix leaves the fleet in
 * exactly its pre-crash state), then re-offer everything after the
 * checkpoint tick and run the drain. Bounded loss: nothing before
 * the checkpoint is needed, nothing after it is lost.
 */
PhaseResult
replayFromCheckpoint(const SweepOptions &opt, size_t workload,
                     const std::string &phase, int jobs,
                     const std::string &base,
                     RestoreResult *restoredOut = nullptr)
{
    StreamConfig cfg = phaseConfig(opt, workload, phase);
    StreamService service(cfg, stream::synthetic::trainedEstimator());
    const RestoreResult restored =
        stream::restoreStreamCheckpoint(service, base);
    if (restoredOut != nullptr)
        *restoredOut = restored;
    if (!restored.ok)
        fatal("stream_sweep: restore from %s failed: %s",
              base.c_str(), restored.error.c_str());

    const ExperimentPool pool(jobs);
    stream::synthetic::Fleet fleet(opt.clients, 40);
    const uint64_t startTick = restored.info.tick;
    const uint64_t totalTicks =
        static_cast<uint64_t>(opt.rounds) + 64;
    if (startTick > totalTicks)
        fatal("stream_sweep: checkpoint tick %llu is past the end of "
              "a %llu-tick run - wrong meta or options",
              static_cast<unsigned long long>(startTick),
              static_cast<unsigned long long>(totalTicks));

    const int resumeRound = static_cast<int>(std::min<uint64_t>(
        startTick, static_cast<uint64_t>(opt.rounds)));
    for (int round = 0; round < resumeRound; ++round)
        offerRound(opt, workload, phase, cfg, fleet, round,
                   [](const StreamSample &) {});

    PhaseResult result;
    for (int round = resumeRound; round < opt.rounds; ++round) {
        offerRound(opt, workload, phase, cfg, fleet, round,
                   [&](const StreamSample &sample) {
                       service.offer(sample);
                   });
        service.tick(pool);
    }
    for (uint64_t t = std::max(startTick,
                               static_cast<uint64_t>(opt.rounds));
         t < totalTicks; ++t)
        service.tick(pool);

    capturePhaseTotals(service, result);
    // The uninterrupted run counts offers harness-side; recover the
    // same total from the restored counters (offers refused at the
    // door never reach ingest).
    result.offered = service.ingestStats().offered +
                     service.stats().quarantinedAtDoor;
    return result;
}

void
assertSamePhase(const PhaseResult &serial, const PhaseResult &wide,
                const char *workload, const std::string &phase,
                int jobs)
{
    if (serial.digest != wide.digest)
        fatal("stream_sweep: %s/%s digest diverged between --jobs 1 "
              "(%016llx) and --jobs %d (%016llx)",
              workload, phase.c_str(),
              static_cast<unsigned long long>(serial.digest), jobs,
              static_cast<unsigned long long>(wide.digest));
    if (std::memcmp(&serial, &wide, sizeof serial) != 0)
        fatal("stream_sweep: %s/%s counters diverged between worker "
              "counts",
              workload, phase.c_str());
}

/** Per-phase invariants: each phase must exercise what it claims. */
void
assertPhaseInteresting(const PhaseResult &r, const char *workload,
                       const std::string &phase)
{
    if (r.accepted == 0)
        fatal("stream_sweep: %s/%s accepted nothing", workload,
              phase.c_str());
    if (phase == "steady" &&
        (r.refits == 0 || r.verifiedRefits == 0))
        fatal("stream_sweep: %s/steady saw no verified refits",
              workload);
    if (phase == "overload" && (r.shed == 0 || r.overflow == 0))
        fatal("stream_sweep: %s/overload shed %llu, overflowed %llu "
              "- the overload phase proved nothing",
              workload, static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.overflow));
    if (phase == "stall" && r.evicted == 0)
        fatal("stream_sweep: %s/stall evicted nobody", workload);
    if (phase == "poison" && r.quarantines == 0)
        fatal("stream_sweep: %s/poison quarantined nobody", workload);
    if (phase == "drift" &&
        (r.driftEngaged == 0 || r.driftRecovered == 0))
        fatal("stream_sweep: %s/drift engaged %llu, recovered %llu "
              "- fallback/recovery not demonstrated",
              workload,
              static_cast<unsigned long long>(r.driftEngaged),
              static_cast<unsigned long long>(r.driftRecovered));
}

/**
 * One timed leg of the telemetry-overhead A/B: a steady gcc-shaped
 * workload driven through a fresh single-worker service with the
 * timeline either off or on. Refit verification is disabled so the
 * measurement covers the service hot path, not the bitwise refit
 * checker.
 */
double
overheadLeg(const SweepOptions &opt, bool timeline, uint64_t *digest)
{
    StreamConfig cfg = phaseConfig(opt, 1, "steady");
    cfg.verifyRefits = false;
    cfg.telemetry.timeline = timeline;
    StreamService service(cfg, stream::synthetic::trainedEstimator());
    const ExperimentPool pool(1);
    const int clients = 192;
    const int rounds = 96;
    stream::synthetic::Fleet fleet(clients, 40);
    const Workload &w = suite[1];

    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < rounds; ++round) {
        for (int c = 0; c < clients; ++c)
            service.offer(fleet.next(c, loadOf(w, round, c)));
        service.tick(pool);
    }
    for (int i = 0; i < 16; ++i)
        service.tick(pool);
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    *digest = service.digest();
    return seconds;
}

/**
 * Telemetry-on vs telemetry-off wall-clock ratio, taken as the MIN
 * over alternated off/on pairs. Scheduler noise on a busy box only
 * ever inflates a leg, so the smallest observed ratio is the
 * tightest sound estimate of the true overhead; a mean would gate on
 * the noise instead. The off and on legs must produce the same
 * digest - telemetry never touches the estimation path.
 */
double
measureTelemetryOverhead(const SweepOptions &opt)
{
    uint64_t warm = 0;
    overheadLeg(opt, false, &warm); // warm caches outside the pairs
    double best = 0.0;
    const int pairs = 3;
    for (int pair = 0; pair < pairs; ++pair) {
        uint64_t offDigest = 0;
        uint64_t onDigest = 0;
        const double off = overheadLeg(opt, false, &offDigest);
        const double on = overheadLeg(opt, true, &onDigest);
        if (offDigest != onDigest)
            fatal("stream_sweep: enabling telemetry changed the "
                  "service digest (%016llx off, %016llx on) - "
                  "telemetry must never touch the estimation path",
                  static_cast<unsigned long long>(offDigest),
                  static_cast<unsigned long long>(onDigest));
        const double ratio = off > 0.0 ? on / off : 1.0;
        if (best == 0.0 || ratio < best)
            best = ratio;
    }
    emitStats("stream_sweep: telemetry overhead ratio %.4f "
              "(min of %d off/on pairs)",
              best, pairs);
    return best;
}

constexpr const char *usage =
    "usage: stream_sweep [--jobs N] [--stream PHASES] [--clients N]\n"
    "                    [--rounds N] [--window N] [--seed V]\n"
    "                    [--checkpoint BASE] [--checkpoint-every N]\n"
    "                    [--restore BASE]\n"
    "\n"
    "  --stream PHASES       comma list of phases to run (all)\n"
    "  --clients N           fleet size per workload, 2..4096 (12)\n"
    "  --rounds N            rounds per phase, >= 8 (32)\n"
    "  --window N            refit window blocks (4)\n"
    "  --seed V              admission/shed hash seed\n"
    "  --checkpoint BASE     checkpoint every grid-phase service at BASE\n"
    "  --checkpoint-every N  checkpoint cadence in ticks (8)\n"
    "  --restore BASE        restore BASE, replay its tail and verify it\n"
    "                        against an uninterrupted run\n"
    "\n"
    "The shared bench flags (--jobs, --trace-out, --manifest-out,\n"
    "--timeline-out, --prom-out, --repetitions) are also accepted.\n";

SweepOptions
parseOptions(const std::vector<std::string> &args)
{
    SweepOptions opt;
    if (const char *env = std::getenv("TDP_STREAM_CLIENTS"))
        opt.clients = std::atoi(env);
    if (const char *env = std::getenv("TDP_STREAM_ROUNDS"))
        opt.rounds = std::atoi(env);
    if (const char *env = std::getenv("TDP_STREAM_WINDOW"))
        opt.windowBlocks = std::atoi(env);
    if (const char *env = std::getenv("TDP_STREAM_SEED"))
        opt.seed = std::strtoull(env, nullptr, 0);
    if (const char *env = std::getenv("TDP_STREAM_CHECKPOINT"))
        opt.checkpointBase = env;
    if (const char *env =
            std::getenv("TDP_STREAM_CHECKPOINT_EVERY"))
        opt.checkpointEvery = std::atoi(env);

    auto intValue = [&](const std::string &text, const char *flag) {
        const int value = std::atoi(text.c_str());
        if (value <= 0)
            argumentError("stream_sweep: %s needs a positive integer, "
                          "got '%s'",
                          flag, text.c_str());
        return value;
    };
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage, stdout);
            std::exit(0);
        }
        auto value = [&](const char *name,
                         const char *prefix) -> std::string {
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(std::strlen(prefix));
            if (i + 1 >= args.size())
                argumentError("stream_sweep: %s needs a value",
                              name);
            return args[++i];
        };
        if (arg == "--clients" || arg.rfind("--clients=", 0) == 0) {
            opt.clients =
                intValue(value("--clients", "--clients="),
                         "--clients");
        } else if (arg == "--rounds" ||
                   arg.rfind("--rounds=", 0) == 0) {
            opt.rounds = intValue(value("--rounds", "--rounds="),
                                  "--rounds");
        } else if (arg == "--window" ||
                   arg.rfind("--window=", 0) == 0) {
            opt.windowBlocks =
                intValue(value("--window", "--window="), "--window");
        } else if (arg == "--seed" || arg.rfind("--seed=", 0) == 0) {
            opt.seed = std::strtoull(
                value("--seed", "--seed=").c_str(), nullptr, 0);
        } else if (arg == "--checkpoint-every" ||
                   arg.rfind("--checkpoint-every=", 0) == 0) {
            opt.checkpointEvery = intValue(
                value("--checkpoint-every", "--checkpoint-every="),
                "--checkpoint-every");
        } else if (arg == "--checkpoint" ||
                   arg.rfind("--checkpoint=", 0) == 0) {
            opt.checkpointBase =
                value("--checkpoint", "--checkpoint=");
            if (opt.checkpointBase.empty())
                argumentError("stream_sweep: --checkpoint needs a "
                              "non-empty base path");
        } else if (arg == "--restore" ||
                   arg.rfind("--restore=", 0) == 0) {
            opt.restoreBase = value("--restore", "--restore=");
            if (opt.restoreBase.empty())
                argumentError("stream_sweep: --restore needs a "
                              "non-empty base path");
        } else if (arg == "--stream" ||
                   arg.rfind("--stream=", 0) == 0) {
            opt.phases.clear();
            std::string list = value("--stream", "--stream=");
            size_t start = 0;
            while (start <= list.size()) {
                const size_t comma = list.find(',', start);
                const std::string phase = list.substr(
                    start, comma == std::string::npos
                               ? std::string::npos
                               : comma - start);
                if (!phase.empty()) {
                    bool known = false;
                    for (const std::string &p : allPhases)
                        known = known || p == phase;
                    if (!known)
                        argumentError(
                            "stream_sweep: unknown phase '%s'",
                            phase.c_str());
                    opt.phases.push_back(phase);
                }
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
            if (opt.phases.empty())
                argumentError(
                    "stream_sweep: --stream selected no phases");
        } else {
            argumentError("stream_sweep: unknown argument '%s'",
                          arg.c_str());
        }
    }
    if (opt.clients < 2)
        argumentError("stream_sweep: need at least 2 clients");
    if (opt.clients > maxSweepClients)
        argumentError("stream_sweep: --clients %d exceeds the %d "
                      "ceiling. This sweep replays every workload/phase "
                      "pair twice (serial + parallel reference) with "
                      "refit verification on, so large fleets multiply "
                      "into hours - for fleet-scale ingest measurements "
                      "use bench/stream_scale, which drives millions of "
                      "clients through the same service once per "
                      "repetition",
                      opt.clients, maxSweepClients);
    if (opt.rounds < 8)
        argumentError("stream_sweep: need at least 8 rounds");
    if (opt.checkpointEvery <= 0)
        argumentError("stream_sweep: --checkpoint-every needs a "
                      "positive tick count");
    return opt;
}

/** Compare an uninterrupted reference with a restored replay. */
void
assertReplayMatches(PhaseResult reference, PhaseResult replay,
                    const char *what, const std::string &phase)
{
    // The telemetry timeline ring dies with the crashed process by
    // design - only estimation state is checkpointed - so its digest
    // is excluded from the crash-equality contract.
    reference.timelineDigest = 0;
    replay.timelineDigest = 0;
    if (reference.digest != replay.digest)
        fatal("stream_sweep: %s/%s restore+replay digest %016llx != "
              "uninterrupted %016llx - the bounded-loss contract is "
              "broken",
              what, phase.c_str(),
              static_cast<unsigned long long>(replay.digest),
              static_cast<unsigned long long>(reference.digest));
    if (std::memcmp(&reference, &replay, sizeof reference) != 0)
        fatal("stream_sweep: %s/%s restore+replay counters diverged "
              "from the uninterrupted run",
              what, phase.c_str());
}

/**
 * Environment for the re-exec'd kill child: the parent's, minus the
 * observability outputs (the child would race the parent's dumps)
 * and the stream checkpoint envs (the child gets explicit flags).
 */
std::vector<std::string>
childEnvStrings()
{
    static const char *const dropped[] = {
        "TDP_TIMELINE_OUT=",      "TDP_MANIFEST_OUT=",
        "TDP_TRACE_OUT=",         "TDP_PROM_OUT=",
        "TDP_BENCH_JSON_DIR=",    "TDP_RUN_JOURNAL=",
        "TDP_STREAM_CHECKPOINT="}; // also matches _EVERY
    std::vector<std::string> env;
    for (char **e = environ; *e != nullptr; ++e) {
        bool drop = false;
        for (const char *prefix : dropped)
            drop = drop || std::strncmp(*e, prefix,
                                        std::strlen(prefix)) == 0;
        if (!drop)
            env.emplace_back(*e);
    }
    return env;
}

/**
 * Fork + exec a child that re-runs this binary in the hidden
 * --kill-child mode: one checkpointed phase, self-SIGKILL at the
 * planned tick. Exec-after-fork keeps the harness sane under the
 * thread sanitizer, which cannot follow a multithreaded parent into
 * a fork that keeps running instrumented code. The parent blocks
 * until the child dies and fatal()s unless it died by SIGKILL.
 */
void
spawnKillChild(const SweepOptions &opt, size_t workload,
               const std::string &phase, int jobsCount,
               const CheckpointPlan &plan)
{
    std::vector<std::string> args = {
        selfPath,
        "--kill-child",
        std::to_string(workload),
        phase,
        std::to_string(jobsCount),
        std::to_string(plan.everyTicks),
        std::to_string(plan.killAtTick),
        plan.base,
        "--clients=" + std::to_string(opt.clients),
        "--rounds=" + std::to_string(opt.rounds),
        "--window=" + std::to_string(opt.windowBlocks),
        "--seed=" + std::to_string(opt.seed)};
    std::vector<std::string> env = childEnvStrings();
    std::vector<char *> argv, envp;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    for (std::string &e : env)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("stream_sweep: fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        ::execve(argv[0], argv.data(), envp.data());
        ::_exit(127);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        fatal("stream_sweep: waitpid failed: %s",
              std::strerror(errno));
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL)
        fatal("stream_sweep: checkpoint-kill child for %s/%s did not "
              "die by SIGKILL (status 0x%x) - the crash was not "
              "injected",
              suite[workload].name, phase.c_str(), status);
}

/** What the checkpoint-kill phase proved, for the exact metrics. */
struct KillHarnessTotals
{
    uint64_t digestMatches = 0;
    uint64_t fallbacks = 0;
    uint64_t ioFailures = 0;
};

/**
 * The checkpoint-kill phase: SIGKILL a checkpointing child mid-run,
 * restore the newest on-disk generation, replay the tail and demand
 * bitwise equality with an uninterrupted run - per phase shape and
 * worker count - then the torn-write and ENOSPC/EXDEV injections.
 */
KillHarnessTotals
runCheckpointKill(const SweepOptions &opt, int wide)
{
    KillHarnessTotals totals;
    char dirTemplate[] = "/tmp/tdp-stream-ckpt-XXXXXX";
    if (::mkdtemp(dirTemplate) == nullptr)
        fatal("stream_sweep: mkdtemp failed: %s",
              std::strerror(errno));
    const std::string dir = dirTemplate;
    const size_t workload = 1; // gcc: busy, but not pathological
    const uint64_t totalTicks =
        static_cast<uint64_t>(opt.rounds) + 64;
    const uint64_t every = 8;

    const auto removeGenerations = [](const std::string &base) {
        std::remove(
            stream::checkpointGenerationPath(base, 0).c_str());
        std::remove(
            stream::checkpointGenerationPath(base, 1).c_str());
    };

    std::printf("\ncheckpoint-kill: SIGKILL mid-run, restore newest "
                "generation, replay the tail\n");
    const std::vector<std::string> phases = {"overload", "drift"};
    for (size_t p = 0; p < phases.size(); ++p) {
        for (const int jobsCount : {1, wide}) {
            CheckpointPlan plan;
            plan.base = dir + "/kill-" + phases[p] + "-j" +
                        std::to_string(jobsCount);
            plan.everyTicks = every;
            // Hash the kill tick into the interesting interior:
            // late enough that at least one checkpoint landed,
            // early enough that real input is still outstanding.
            const uint64_t lo = every + 2;
            const uint64_t hi = totalTicks - 4;
            plan.killAtTick = static_cast<int64_t>(
                lo +
                static_cast<uint64_t>(
                    hashUnit(
                        opt.seed ^ 0x51c4a11u, p,
                        static_cast<uint64_t>(jobsCount)) *
                    static_cast<double>(hi - lo)));
            std::printf("  %-8s --jobs %d: kill at tick %lld\n",
                        phases[p].c_str(), jobsCount,
                        static_cast<long long>(plan.killAtTick));
            std::fflush(stdout);
            const PhaseResult reference =
                runPhase(opt, workload, phases[p], jobsCount);
            spawnKillChild(opt, workload, phases[p], jobsCount,
                           plan);
            const PhaseResult replay =
                replayFromCheckpoint(opt, workload, phases[p],
                                     jobsCount, plan.base);
            assertReplayMatches(reference, replay,
                                "checkpoint-kill", phases[p]);
            ++totals.digestMatches;
            removeGenerations(plan.base);
        }
    }

    // Torn-newest fallback: tear the write of the final generation.
    // The restore must fall back to the previous one with a warning
    // - never a fatal - and the replayed tail must still match bit
    // for bit.
    {
        CheckpointPlan plan;
        plan.base = dir + "/torn";
        plan.everyTicks = every;
        plan.tornAtTick =
            static_cast<int64_t>(totalTicks - totalTicks % every);
        const PhaseResult reference =
            runPhase(opt, workload, "drift", 1);
        CheckpointOutcome outcome;
        const PhaseResult checkpointed =
            runPhase(opt, workload, "drift", 1, &plan, &outcome);
        assertReplayMatches(reference, checkpointed,
                            "checkpointing-enabled", "drift");
        RestoreResult restored;
        const PhaseResult replay = replayFromCheckpoint(
            opt, workload, "drift", 1, plan.base, &restored);
        if (!restored.usedFallback)
            fatal("stream_sweep: torn newest generation did not "
                  "trigger the fallback restore");
        assertReplayMatches(reference, replay, "torn-fallback",
                            "drift");
        ++totals.fallbacks;
        removeGenerations(plan.base);
    }

    // Injected I/O failures: ENOSPC must count one failure and leave
    // the previous generation intact; EXDEV must transparently take
    // the cross-filesystem copy fallback. Either way the service
    // keeps running and the final checkpoint restores bit-identical.
    {
        CheckpointPlan plan;
        plan.base = dir + "/iofault";
        plan.everyTicks = every;
        plan.enospcAtTick = static_cast<int64_t>(every);
        plan.exdevAtTick = static_cast<int64_t>(2 * every);
        const PhaseResult reference =
            runPhase(opt, workload, "overload", 1);
        CheckpointOutcome outcome;
        const PhaseResult checkpointed =
            runPhase(opt, workload, "overload", 1, &plan, &outcome);
        assertReplayMatches(reference, checkpointed,
                            "iofault-enabled", "overload");
        if (outcome.failures != 1)
            fatal("stream_sweep: expected exactly 1 injected "
                  "checkpoint failure, saw %llu",
                  static_cast<unsigned long long>(outcome.failures));
        RestoreResult restored;
        const PhaseResult replay = replayFromCheckpoint(
            opt, workload, "overload", 1, plan.base, &restored);
        if (restored.usedFallback)
            fatal("stream_sweep: the iofault run must restore from "
                  "its newest generation, not a fallback");
        assertReplayMatches(reference, replay, "iofault-restore",
                            "overload");
        totals.ioFailures += outcome.failures;
        removeGenerations(plan.base);
    }
    ::rmdir(dir.c_str());
    std::printf("  restores digest-identical: %llu, torn "
                "fallbacks: %llu, injected I/O failures: %llu\n",
                static_cast<unsigned long long>(totals.digestMatches),
                static_cast<unsigned long long>(totals.fallbacks),
                static_cast<unsigned long long>(totals.ioFailures));
    return totals;
}

/**
 * Hidden child mode of the checkpoint-kill phase: re-exec'd by the
 * parent, runs exactly one checkpointed phase and SIGKILLs itself at
 * the planned tick - so it never returns normally.
 */
int
runKillChild(const std::vector<std::string> &args)
{
    if (args.size() < 7)
        fatal("stream_sweep: --kill-child needs <workload> <phase> "
              "<jobs> <every> <kill-tick> <base>");
    const size_t workload =
        static_cast<size_t>(std::atoi(args[1].c_str()));
    const std::string phase = args[2];
    const int jobsCount = std::atoi(args[3].c_str());
    CheckpointPlan plan;
    plan.everyTicks = std::strtoull(args[4].c_str(), nullptr, 0);
    plan.killAtTick = std::atoll(args[5].c_str());
    plan.base = args[6];
    const SweepOptions opt = parseOptions(
        std::vector<std::string>(args.begin() + 7, args.end()));
    if (workload >= suite.size() || jobsCount < 1 ||
        plan.killAtTick < 0 || plan.everyTicks == 0 ||
        plan.base.empty())
        fatal("stream_sweep: malformed --kill-child invocation");
    runPhase(opt, workload, phase, jobsCount, &plan);
    fatal("stream_sweep: --kill-child survived the whole phase - "
          "kill tick %lld was never reached",
          static_cast<long long>(plan.killAtTick));
    return 1;
}

/**
 * --restore BASE: rebuild the run identity from the checkpoint's
 * meta section, restore, replay the recorded tail and verify it
 * against a freshly computed uninterrupted reference.
 */
int
runRestoreVerify(const SweepOptions &cli, int wide)
{
    std::string meta, error;
    if (!stream::peekStreamCheckpointMeta(cli.restoreBase, &meta,
                                          &error))
        fatal("stream_sweep: --restore %s: %s",
              cli.restoreBase.c_str(), error.c_str());
    SweepOptions opt = cli;
    size_t workload = 0;
    std::string phase;
    if (!parseCheckpointMeta(meta, opt, workload, phase))
        fatal("stream_sweep: --restore %s: unparseable meta '%s' - "
              "not a stream_sweep checkpoint?",
              cli.restoreBase.c_str(), meta.c_str());

    std::printf("Restore: %s (workload %s, phase %s, %d clients, "
                "%d rounds)\n",
                cli.restoreBase.c_str(), suite[workload].name,
                phase.c_str(), opt.clients, opt.rounds);
    RestoreResult restored;
    const PhaseResult replay = replayFromCheckpoint(
        opt, workload, phase, wide, cli.restoreBase, &restored);
    std::printf("restored generation %llu at tick %llu%s\n",
                static_cast<unsigned long long>(
                    restored.info.generation),
                static_cast<unsigned long long>(restored.info.tick),
                restored.usedFallback ? " (fallback generation)"
                                      : "");
    const PhaseResult reference =
        runPhase(opt, workload, phase, wide);
    assertReplayMatches(reference, replay, "restore", phase);
    std::printf("replayed digest  %016llx matches the uninterrupted "
                "reference\nrestore verify: all checks passed\n",
                static_cast<unsigned long long>(replay.digest));
    return 0;
}

int
runSweep(int argc, char **argv)
{
    selfPath = argv[0];
    const std::vector<std::string> args = positionalArgs(argc, argv);
    if (!args.empty() && args[0] == "--kill-child")
        return runKillChild(args);
    const SweepOptions opt = parseOptions(args);
    const int wide = jobs() > 1 ? jobs() : 2;
    if (!opt.restoreBase.empty())
        return runRestoreVerify(opt, wide);

    size_t gridPhases = 0;
    bool killPhase = false;
    for (const std::string &phase : opt.phases) {
        if (phase == "checkpoint-kill")
            killPhase = true;
        else
            ++gridPhases;
    }

    std::printf("Stream sweep: hardened streaming estimation "
                "service\n");
    std::printf("suite: %zu workloads x %zu phases, %d clients, %d "
                "rounds, window %d blocks\n\n",
                suite.size(), gridPhases, opt.clients, opt.rounds,
                opt.windowBlocks);

    // Operator-enabled checkpointing for the grid runs: the digest
    // and counters must be identical with it on or off, which the
    // serial-vs-parallel comparison below also witnesses.
    CheckpointPlan gridPlan;
    const CheckpointPlan *gridPlanPtr = nullptr;
    if (!opt.checkpointBase.empty()) {
        gridPlan.base = opt.checkpointBase;
        gridPlan.everyTicks =
            static_cast<uint64_t>(opt.checkpointEvery);
        gridPlanPtr = &gridPlan;
    }

    const int reps = benchRepetitions();
    std::vector<double> throughput, wallSeconds;
    PhaseResult totals;
    uint64_t digestChain = 0;

    for (int rep = 0; rep < reps; ++rep) {
        PhaseResult sum;
        uint64_t chain = fnv1aBasis;
        const auto start = std::chrono::steady_clock::now();
        for (size_t wl = 0; wl < suite.size(); ++wl) {
            for (const std::string &phase : opt.phases) {
                if (phase == "checkpoint-kill")
                    continue; // runs once, after the rep loop
                if (rep == 0) {
                    std::printf("  [%2zu/%zu] %-8s %-8s\n", wl + 1,
                                suite.size(), suite[wl].name,
                                phase.c_str());
                    std::fflush(stdout);
                }
                const PhaseResult serial =
                    runPhase(opt, wl, phase, 1, gridPlanPtr);
                const PhaseResult parallel =
                    runPhase(opt, wl, phase, wide, gridPlanPtr);
                assertSamePhase(serial, parallel, suite[wl].name,
                                phase, wide);
                assertPhaseInteresting(serial, suite[wl].name,
                                       phase);
                chain = fnv1a64(&serial.digest,
                                sizeof serial.digest, chain);
                sum.offered += serial.offered;
                sum.shed += serial.shed;
                sum.overflow += serial.overflow;
                sum.accepted += serial.accepted;
                sum.invalid += serial.invalid;
                sum.quarantines += serial.quarantines;
                sum.evicted += serial.evicted;
                sum.refits += serial.refits;
                sum.verifiedRefits += serial.verifiedRefits;
                sum.driftEngaged += serial.driftEngaged;
                sum.driftRecovered += serial.driftRecovered;
            }
        }
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        // Each phase ran twice (serial + parallel reference).
        throughput.push_back(
            seconds > 0.0
                ? static_cast<double>(2 * sum.offered) / seconds
                : 0.0);
        wallSeconds.push_back(seconds);
        if (rep == 0) {
            totals = sum;
            digestChain = chain;
        } else if (chain != digestChain) {
            fatal("stream_sweep: repetition %d produced a different "
                  "digest chain - the sweep is not deterministic",
                  rep + 1);
        }
    }

    KillHarnessTotals kill;
    if (killPhase)
        kill = runCheckpointKill(opt, wide);

    std::printf("digest chain     %016llx (identical at --jobs 1 "
                "and --jobs %d, %d repetition(s))\n",
                static_cast<unsigned long long>(digestChain), wide,
                reps);
    std::printf("offered          %llu\n",
                static_cast<unsigned long long>(totals.offered));
    std::printf("accepted         %llu\n",
                static_cast<unsigned long long>(totals.accepted));
    std::printf("shed/overflow    %llu/%llu\n",
                static_cast<unsigned long long>(totals.shed),
                static_cast<unsigned long long>(totals.overflow));
    std::printf("invalid          %llu\n",
                static_cast<unsigned long long>(totals.invalid));
    std::printf("quarantines      %llu\n",
                static_cast<unsigned long long>(totals.quarantines));
    std::printf("evicted          %llu\n",
                static_cast<unsigned long long>(totals.evicted));
    std::printf("refits           %llu (%llu verified bitwise)\n",
                static_cast<unsigned long long>(totals.refits),
                static_cast<unsigned long long>(
                    totals.verifiedRefits));
    std::printf("drift            %llu engaged, %llu recovered\n",
                static_cast<unsigned long long>(totals.driftEngaged),
                static_cast<unsigned long long>(
                    totals.driftRecovered));
    if (killPhase)
        std::printf("checkpoint-kill  %llu restore(s) "
                    "digest-identical, %llu torn fallback(s), %llu "
                    "injected I/O failure(s)\n",
                    static_cast<unsigned long long>(
                        kill.digestMatches),
                    static_cast<unsigned long long>(kill.fallbacks),
                    static_cast<unsigned long long>(
                        kill.ioFailures));

    const auto exact = [](const char *name, double value,
                          int reps_count) {
        MetricSeries series;
        series.name = name;
        series.values.assign(static_cast<size_t>(reps_count), value);
        series.unit = "count";
        series.gate = true;
        series.direction = "exact";
        return series;
    };
    std::vector<MetricSeries> metrics;
    metrics.push_back(exact("offered", double(totals.offered), reps));
    metrics.push_back(
        exact("accepted", double(totals.accepted), reps));
    metrics.push_back(exact("shed", double(totals.shed), reps));
    metrics.push_back(
        exact("overflow", double(totals.overflow), reps));
    metrics.push_back(
        exact("quarantines", double(totals.quarantines), reps));
    metrics.push_back(exact("evicted", double(totals.evicted), reps));
    metrics.push_back(exact("refits", double(totals.refits), reps));
    metrics.push_back(exact("drift_engaged",
                            double(totals.driftEngaged), reps));
    metrics.push_back(exact("drift_recovered",
                            double(totals.driftRecovered), reps));
    if (killPhase) {
        metrics.push_back(
            exact("restore_digest_matches",
                  double(kill.digestMatches), reps));
        metrics.push_back(exact("restore_fallbacks",
                                double(kill.fallbacks), reps));
        metrics.push_back(exact("checkpoint_io_failures",
                                double(kill.ioFailures), reps));
    }

    MetricSeries tput;
    tput.name = "ingest_samples_per_s";
    tput.values = throughput;
    tput.unit = "samples/s";
    tput.gate = false;
    tput.direction = "higher";
    metrics.push_back(tput);
    MetricSeries wall;
    wall.name = "sweep_seconds";
    wall.values = wallSeconds;
    wall.unit = "s";
    wall.gate = false;
    wall.direction = "lower";
    metrics.push_back(wall);

    if (timelineActive()) {
        // Ceiling-gated: telemetry on must stay within 5% of off.
        // Only measured (and only present in the JSON) when a
        // timeline path is configured, matching how the committed
        // baseline is produced.
        MetricSeries overhead;
        overhead.name = "telemetry_overhead_ratio";
        overhead.values = {measureTelemetryOverhead(opt)};
        overhead.unit = "x";
        overhead.gate = true;
        overhead.direction = "ceiling";
        overhead.limit = 1.05;
        metrics.push_back(overhead);
    }

    const std::string path = writeBenchSeries("bm_stream", metrics);
    std::printf("\nwrote %s\n", path.c_str());
    std::printf("stream sweep: all checks passed\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    installShutdownHandler();
    installDumpSignalHandler();
    try {
        return runSweep(argc, argv);
    } catch (const FatalError &) {
        // A fatal mid-sweep still leaves a postmortem: dump the live
        // service's telemetry, then let the error terminate the
        // process exactly as before.
        if (liveService != nullptr && timelineActive())
            liveService->writeTimeline(timelineOutPath(), "bm_stream",
                                       "fatal");
        throw;
    }
}
