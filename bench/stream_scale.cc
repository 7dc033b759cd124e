/**
 * @file
 * Million-client scale bench for the streaming estimation service.
 *
 * Where bench/stream_sweep proves the service *correct* under
 * adversarial phases at a small fleet, this bench proves the ingest
 * pipeline *scales*: it drives a synthetic fleet of >= 1M clients
 * (default) through the sharded rings in chunked rounds and reports
 * per-tick drain throughput, p99 tick latency and resident
 * bytes/session on top of the usual deterministic counters.
 *
 * Two passes per run:
 *
 *  1. verify - a small poisoned fleet (NaN, +/-Inf and negative
 *     counters, stale sequence numbers, frequent wraps at a narrow
 *     counter width) is replayed at --jobs 1 and --jobs N. Both runs
 *     must produce the same digest: the worker count is a speed
 *     knob, never a numerics knob, even on adversarial payloads.
 *  2. scale - the full fleet. Clients are offered in chunks sized
 *     under the aggregate drain budget so the bounded rings never
 *     shed or overflow; every sample is drained and estimated. The
 *     run digest must be identical across repetitions.
 *
 * With --timeline-out (or TDP_TIMELINE_OUT) each repetition runs the
 * scale pass twice - telemetry off (the reported throughput leg) and
 * telemetry on - asserting the digests identical and reporting the
 * ceiling-gated telemetry_overhead_ratio metric (min over
 * repetitions, limit 1.05). The final service contributes stream.*
 * manifest sections and writes the telemetry dump at exit; SIGUSR2
 * writes a `.sigusr2` side file mid-run and SIGTERM drains with
 * partial sections, the timeline and exit code 113.
 *
 * Flags (after the shared bench flags, see bench_util.hh):
 *   --clients N         scale-pass fleet size     [TDP_SCALE_CLIENTS]
 *   --rounds N          samples per client        [TDP_SCALE_ROUNDS]
 *   --shards N          ingest shards             [TDP_SCALE_SHARDS]
 *   --verify-clients N  verify-pass fleet size
 *                                          [TDP_SCALE_VERIFY_CLIENTS]
 *   --seed V            ingest hash seed          [TDP_SCALE_SEED]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/shutdown.hh"
#include "measure/trace_io.hh"
#include "stream/service.hh"
#include "stream/synthetic.hh"

namespace {

using namespace tdp;
using namespace tdp::bench;
using stream::StreamConfig;
using stream::StreamSample;
using stream::StreamService;

/**
 * The service a mid-run dump (SIGUSR2, SIGTERM, fatal) snapshots.
 * Passes run one at a time on the main thread; the pointer is
 * cleared before its service is destroyed (or left pointing at the
 * service kept alive for the manifest/exit dump).
 */
const StreamService *liveService = nullptr;

/** True when --timeline-out / TDP_TIMELINE_OUT enabled telemetry. */
bool
timelineActive()
{
    return !timelineOutPath().empty();
}

/**
 * Poll the async-signal flags between ticks. SIGUSR2 dumps the live
 * telemetry to a side file and continues; SIGTERM flushes partial
 * stream.* manifest sections plus the timeline and exits with the
 * clean-abort code, so a drained scale run still leaves a
 * postmortem.
 */
void
pollSignals(const StreamService &service)
{
    if (dumpRequested()) {
        if (timelineActive())
            service.writeTimeline(timelineOutPath() + ".sigusr2",
                                  "bm_stream_scale", "sigusr2");
        clearDumpRequest();
    }
    if (!shutdownRequested())
        return;
    if (observabilityEnabled()) {
        service.addManifestSections(runManifest());
        if (timelineActive())
            service.writeTimeline(timelineOutPath(),
                                  "bm_stream_scale", "sigterm");
        flushObservability();
    }
    std::exit(cleanAbortExitCode);
}

struct ScaleOptions
{
    int clients = 1000000;
    int rounds = 4;
    int shards = 32;
    int verifyClients = 4096;
    uint64_t seed = 0x5ca1eull;
};

/** Deterministic load shape: every client sweeps its own phase. */
double
loadOf(int round, int client)
{
    const int p = 5 + client % 7;
    const int phase = (round + client % p) % (2 * p);
    const double tri =
        phase < p ? static_cast<double>(phase) / p
                  : static_cast<double>(2 * p - phase) / p;
    return 0.05 + 0.9 * tri;
}

/** Everything a pass must reproduce bitwise. */
struct PassResult
{
    uint64_t digest = 0;
    uint64_t offered = 0;
    uint64_t accepted = 0;
    uint64_t baselines = 0;
    uint64_t wraps = 0;
    uint64_t invalid = 0;
    uint64_t quarantines = 0;
    uint64_t activeSessions = 0;

    /** Wall-clock side channel (excluded from the memcmp). @{ */
    double tickSeconds = 0.0;
    double p99TickSeconds = 0.0;
    uint64_t ticks = 0;
    size_t sessionBytes = 0;
    /** @} */
};

/** Bitwise comparison of the deterministic prefix only. */
bool
sameResult(const PassResult &a, const PassResult &b)
{
    return std::memcmp(&a, &b, offsetof(PassResult, tickSeconds)) ==
           0;
}

void
accumulateSessions(const StreamService &service, PassResult &r)
{
    const auto sessions = service.sessionStats();
    r.accepted = sessions.accepted;
    r.baselines = sessions.baselines;
    r.wraps = sessions.wraps;
    r.invalid = sessions.nonFinite + sessions.outOfRange +
                sessions.duplicateSeq + sessions.outOfOrderSeq +
                sessions.staleTime + sessions.zeroCycles;
    r.quarantines = sessions.quarantines;
    r.activeSessions = service.activeSessions();
    r.sessionBytes = service.sessionMemoryBytes();
    r.digest = service.digest();
}

/**
 * The verify-pass fleet: a narrow counter width so wraps are routine,
 * plus hashed per-(client, round) poison covering every adversarial
 * payload class the session table classifies - NaN, +Inf, -Inf,
 * out-of-range (negative) counters and stale sequence numbers.
 */
PassResult
runVerifyPass(const ScaleOptions &opt, int jobs)
{
    StreamConfig cfg;
    cfg.ingest.shards = 4;
    cfg.ingest.ringCapacity =
        static_cast<size_t>(opt.verifyClients);
    cfg.ingest.highWatermark = 0; // no shedding: drain everything
    cfg.ingest.seed = opt.seed;
    cfg.session.counterWidthBits = 34; // wraps nearly every round
    cfg.session.quarantineThreshold = 6;
    cfg.drainBudget = 512;
    cfg.evictEveryTicks = 0;
    cfg.telemetry.timeline = timelineActive();
    StreamService service(cfg,
                          stream::synthetic::trainedEstimator());
    const ExperimentPool pool(jobs);
    stream::synthetic::Fleet fleet(opt.verifyClients, 34);
    liveService = &service;

    PassResult result;
    const int rounds = 12;
    for (int round = 0; round < rounds; ++round) {
        for (int c = 0; c < opt.verifyClients; ++c) {
            StreamSample sample =
                fleet.next(c, loadOf(round, c));
            const uint64_t id = sample.client;
            if (hashUnit(opt.seed ^ 0xbad0u, id, round) < 0.04)
                sample.raw.counts[0] = std::nan("");
            else if (hashUnit(opt.seed ^ 0xbad1u, id, round) < 0.03)
                sample.raw.counts[3] = HUGE_VAL; // +Inf
            else if (hashUnit(opt.seed ^ 0xbad2u, id, round) < 0.03)
                sample.osDeviceInterrupts = -HUGE_VAL;
            else if (hashUnit(opt.seed ^ 0xbad3u, id, round) < 0.03)
                sample.raw.counts[6] = -1.0; // out of range
            else if (hashUnit(opt.seed ^ 0xbad4u, id, round) < 0.03)
                sample.seq = 1; // duplicate/stale sequence
            ++result.offered;
            service.offer(sample);
        }
        service.tick(pool);
        pollSignals(service);
        while (service.stats().drained <
               service.ingestStats().admitted) {
            service.tick(pool);
            pollSignals(service);
        }
    }
    if (service.ingestStats().shed != 0 ||
        service.ingestStats().overflow != 0)
        fatal("stream_scale: verify pass shed/overflowed - ring "
              "sizing is broken");
    accumulateSessions(service, result);
    liveService = nullptr;
    return result;
}

/**
 * Drain a fleet of @p clients through the service in chunks sized at
 * 3/4 of the aggregate drain budget, so per-shard arrivals stay under
 * the per-tick drain even with hash imbalance and the rings never
 * shed. Returns the deterministic counters plus tick timings.
 *
 * @p telemetry turns the timeline/HDR layer on for this pass (the
 * flight recorder is always on). When @p keep_service is non-null
 * the drained service is handed back alive, so the caller can add
 * its manifest sections and write the exit telemetry dump.
 */
PassResult
runDrainPass(const ScaleOptions &opt, int clients, int rounds,
             int shards, size_t drain_budget,
             std::vector<double> *tick_seconds_out, bool telemetry,
             std::unique_ptr<StreamService> *keep_service)
{
    StreamConfig cfg;
    cfg.ingest.shards = shards;
    cfg.ingest.ringCapacity = 2 * drain_budget;
    cfg.ingest.highWatermark = 0;
    cfg.ingest.seed = opt.seed;
    cfg.session.counterWidthBits = 40;
    cfg.session.idleTimeoutTicks = 1u << 20;
    cfg.drainBudget = drain_budget;
    cfg.evictEveryTicks = 0;
    cfg.telemetry.timeline = telemetry;
    // A scale pass runs only a handful of ticks (one per offered
    // chunk plus the drain tail), so seal a window every tick or the
    // exit dump would be empty at CI fleet sizes.
    cfg.telemetry.windowTicks = 1;
    auto servicePtr = std::make_unique<StreamService>(
        cfg, stream::synthetic::trainedEstimator());
    StreamService &service = *servicePtr;
    const ExperimentPool pool(jobs());
    stream::synthetic::Fleet fleet(clients, 40);
    liveService = &service;

    const int chunk = static_cast<int>(
        static_cast<size_t>(shards) * drain_budget * 3 / 4);
    PassResult result;
    std::vector<double> tickSeconds;
    tickSeconds.reserve(static_cast<size_t>(rounds) *
                        (static_cast<size_t>(clients) / chunk + 2));
    const auto tickOnce = [&] {
        const auto start = std::chrono::steady_clock::now();
        service.tick(pool);
        tickSeconds.push_back(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  start)
                                  .count());
        pollSignals(service);
    };
    for (int round = 0; round < rounds; ++round) {
        for (int base = 0; base < clients; base += chunk) {
            const int end = std::min(clients, base + chunk);
            for (int c = base; c < end; ++c) {
                ++result.offered;
                service.offer(fleet.next(c, loadOf(round, c)));
            }
            tickOnce();
        }
        while (service.stats().drained <
               service.ingestStats().admitted)
            tickOnce();
    }
    if (service.ingestStats().shed != 0 ||
        service.ingestStats().overflow != 0)
        fatal("stream_scale: drain pass shed %llu / overflowed %llu "
              "- chunking must keep the rings in budget",
              static_cast<unsigned long long>(
                  service.ingestStats().shed),
              static_cast<unsigned long long>(
                  service.ingestStats().overflow));

    accumulateSessions(service, result);
    result.ticks = tickSeconds.size();
    for (double s : tickSeconds)
        result.tickSeconds += s;
    std::vector<double> sorted = tickSeconds;
    std::sort(sorted.begin(), sorted.end());
    result.p99TickSeconds =
        sorted.empty()
            ? 0.0
            : sorted[std::min(sorted.size() - 1,
                              static_cast<size_t>(std::ceil(
                                  0.99 * sorted.size())))];
    if (tick_seconds_out)
        *tick_seconds_out = tickSeconds;
    if (keep_service)
        *keep_service = std::move(servicePtr);
    else
        liveService = nullptr;
    return result;
}

constexpr const char *usage =
    "usage: stream_scale [--jobs N] [--clients N] [--rounds N]\n"
    "                    [--shards N] [--verify-clients N] [--seed V]\n"
    "\n"
    "  --clients N         scale-pass fleet size, >= 4096 (1000000)\n"
    "  --rounds N          samples per client (4)\n"
    "  --shards N          ingest shards, 1..4096 (32)\n"
    "  --verify-clients N  verify-pass fleet size, >= 256 (4096)\n"
    "  --seed V            ingest hash seed\n"
    "\n"
    "The shared bench flags (--jobs, --trace-out, --manifest-out,\n"
    "--timeline-out, --prom-out, --repetitions) are also accepted.\n";

ScaleOptions
parseOptions(const std::vector<std::string> &args)
{
    ScaleOptions opt;
    if (const char *env = std::getenv("TDP_SCALE_CLIENTS"))
        opt.clients = std::atoi(env);
    if (const char *env = std::getenv("TDP_SCALE_ROUNDS"))
        opt.rounds = std::atoi(env);
    if (const char *env = std::getenv("TDP_SCALE_SHARDS"))
        opt.shards = std::atoi(env);
    if (const char *env = std::getenv("TDP_SCALE_VERIFY_CLIENTS"))
        opt.verifyClients = std::atoi(env);
    if (const char *env = std::getenv("TDP_SCALE_SEED"))
        opt.seed = std::strtoull(env, nullptr, 0);

    auto intValue = [&](const std::string &text, const char *flag) {
        const int value = std::atoi(text.c_str());
        if (value <= 0)
            argumentError("stream_scale: %s needs a positive integer, "
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
                argumentError("stream_scale: %s needs a value",
                              name);
            return args[++i];
        };
        if (arg == "--clients" || arg.rfind("--clients=", 0) == 0) {
            opt.clients = intValue(
                value("--clients", "--clients="), "--clients");
        } else if (arg == "--rounds" ||
                   arg.rfind("--rounds=", 0) == 0) {
            opt.rounds = intValue(value("--rounds", "--rounds="),
                                  "--rounds");
        } else if (arg == "--shards" ||
                   arg.rfind("--shards=", 0) == 0) {
            opt.shards = intValue(value("--shards", "--shards="),
                                  "--shards");
        } else if (arg == "--verify-clients" ||
                   arg.rfind("--verify-clients=", 0) == 0) {
            opt.verifyClients = intValue(
                value("--verify-clients", "--verify-clients="),
                "--verify-clients");
        } else if (arg == "--seed" || arg.rfind("--seed=", 0) == 0) {
            opt.seed = std::strtoull(
                value("--seed", "--seed=").c_str(), nullptr, 0);
        } else {
            argumentError("stream_scale: unknown argument '%s'",
                          arg.c_str());
        }
    }
    if (opt.clients < 4096)
        argumentError("stream_scale: --clients %d is below the 4096 "
                      "floor - this bench measures fleet scale; for "
                      "small-fleet correctness sweeps use "
                      "bench/stream_sweep",
                      opt.clients);
    if (opt.rounds < 1)
        argumentError("stream_scale: need at least 1 round");
    if (opt.shards < 1 || opt.shards > 4096)
        argumentError("stream_scale: --shards must be in [1, 4096]");
    if (opt.verifyClients < 256)
        argumentError(
            "stream_scale: --verify-clients must be >= 256");
    return opt;
}

MetricSeries
exactSeries(const char *name, double value, int reps)
{
    MetricSeries series;
    series.name = name;
    series.values.assign(static_cast<size_t>(reps), value);
    series.unit = "count";
    series.gate = true;
    series.direction = "exact";
    return series;
}

int
runScale(int argc, char **argv)
{
    const ScaleOptions opt =
        parseOptions(positionalArgs(argc, argv));
    const int wide = jobs() > 1 ? jobs() : 2;
    const size_t drainBudget = 8192;

    std::printf("Stream scale: %d clients x %d rounds across %d "
                "shards (drain budget %zu/shard/tick)\n\n",
                opt.clients, opt.rounds, opt.shards, drainBudget);

    // Pass 1: poisoned small fleet must be bitwise invariant to the
    // worker count.
    const PassResult serial = runVerifyPass(opt, 1);
    const PassResult parallel = runVerifyPass(opt, wide);
    if (!sameResult(serial, parallel))
        fatal("stream_scale: verify digest diverged between --jobs "
              "1 (%016llx) and --jobs %d (%016llx)",
              static_cast<unsigned long long>(serial.digest), wide,
              static_cast<unsigned long long>(parallel.digest));
    if (serial.invalid == 0 || serial.wraps == 0 ||
        serial.quarantines == 0)
        fatal("stream_scale: verify pass saw %llu invalid / %llu "
              "wraps / %llu quarantines - the poison proved nothing",
              static_cast<unsigned long long>(serial.invalid),
              static_cast<unsigned long long>(serial.wraps),
              static_cast<unsigned long long>(serial.quarantines));
    std::printf("verify    digest %016llx identical at --jobs 1/"
                "--jobs %d (%llu invalid, %llu wraps, %llu "
                "quarantines)\n",
                static_cast<unsigned long long>(serial.digest), wide,
                static_cast<unsigned long long>(serial.invalid),
                static_cast<unsigned long long>(serial.wraps),
                static_cast<unsigned long long>(serial.quarantines));

    const int reps = benchRepetitions();
    std::vector<double> samplesPerSec, p99Ms, bytesPerSess,
        scaleSeconds;
    PassResult scaleFirst;
    std::unique_ptr<StreamService> scaleService;
    double overheadRatio = 0.0;

    for (int rep = 0; rep < reps; ++rep) {
        // Pass 2: the full fleet, telemetry off - the baseline leg
        // every reported throughput number comes from. The service
        // of the last repetition's final leg is kept alive so the
        // scale run contributes its stream.* manifest sections and
        // the exit telemetry dump (it never did before this).
        const bool lastRep = rep + 1 == reps;
        const PassResult scale = runDrainPass(
            opt, opt.clients, opt.rounds, opt.shards, drainBudget,
            nullptr, false,
            lastRep && observabilityEnabled() && !timelineActive()
                ? &scaleService
                : nullptr);
        if (rep == 0)
            scaleFirst = scale;
        else if (!sameResult(scaleFirst, scale))
            fatal("stream_scale: repetition %d produced a different "
                  "scale digest - the run is not deterministic",
                  rep + 1);

        if (timelineActive()) {
            // Telemetry-on leg of the same fleet: the digest must be
            // bitwise unchanged and the wall-clock ratio feeds the
            // ceiling-gated telemetry_overhead_ratio metric. Min
            // over repetitions: scheduler noise only ever inflates a
            // leg, so the smallest ratio is the tightest sound
            // estimate of the true overhead.
            const PassResult withTelemetry = runDrainPass(
                opt, opt.clients, opt.rounds, opt.shards,
                drainBudget, nullptr, true,
                lastRep ? &scaleService : nullptr);
            if (!sameResult(scale, withTelemetry))
                fatal("stream_scale: enabling telemetry changed the "
                      "scale digest (%016llx off, %016llx on) - "
                      "telemetry must never touch the estimation "
                      "path",
                      static_cast<unsigned long long>(scale.digest),
                      static_cast<unsigned long long>(
                          withTelemetry.digest));
            const double ratio =
                scale.tickSeconds > 0.0
                    ? withTelemetry.tickSeconds / scale.tickSeconds
                    : 1.0;
            if (overheadRatio == 0.0 || ratio < overheadRatio)
                overheadRatio = ratio;
            emitStats("stream_scale: rep %d telemetry overhead "
                      "ratio %.4f",
                      rep + 1, ratio);
        }
        samplesPerSec.push_back(
            scale.tickSeconds > 0.0
                ? static_cast<double>(scale.offered) /
                      scale.tickSeconds
                : 0.0);
        p99Ms.push_back(scale.p99TickSeconds * 1e3);
        bytesPerSess.push_back(
            scale.activeSessions > 0
                ? static_cast<double>(scale.sessionBytes) /
                      static_cast<double>(scale.activeSessions)
                : 0.0);
        scaleSeconds.push_back(scale.tickSeconds);
        if (rep == 0) {
            std::printf(
                "scale     %llu offered, %llu accepted, %llu "
                "sessions, digest %016llx\n",
                static_cast<unsigned long long>(scale.offered),
                static_cast<unsigned long long>(scale.accepted),
                static_cast<unsigned long long>(
                    scale.activeSessions),
                static_cast<unsigned long long>(scale.digest));
        }
        std::printf("rep %d/%d  %.2fM samples/s, p99 tick %.2f ms, "
                    "%.0f B/session\n",
                    rep + 1, reps, samplesPerSec.back() / 1e6,
                    p99Ms.back(), bytesPerSess.back());
        std::fflush(stdout);
    }

    std::vector<MetricSeries> metrics;
    metrics.push_back(
        exactSeries("offered", double(scaleFirst.offered), reps));
    metrics.push_back(
        exactSeries("accepted", double(scaleFirst.accepted), reps));
    metrics.push_back(exactSeries(
        "baselines", double(scaleFirst.baselines), reps));
    metrics.push_back(
        exactSeries("wraps", double(scaleFirst.wraps), reps));
    metrics.push_back(exactSeries(
        "active_sessions", double(scaleFirst.activeSessions), reps));
    metrics.push_back(exactSeries(
        "digest_lo32", double(scaleFirst.digest & 0xffffffffull),
        reps));
    metrics.push_back(exactSeries(
        "digest_hi32", double(scaleFirst.digest >> 32), reps));

    const auto ungated = [](const char *name,
                            const std::vector<double> &values,
                            const char *unit,
                            const char *direction) {
        MetricSeries series;
        series.name = name;
        series.values = values;
        series.unit = unit;
        series.gate = false;
        series.direction = direction;
        return series;
    };
    metrics.push_back(ungated("tick_samples_per_s", samplesPerSec,
                              "samples/s", "higher"));
    metrics.push_back(
        ungated("p99_tick_ms", p99Ms, "ms", "lower"));
    metrics.push_back(ungated("bytes_per_session", bytesPerSess,
                              "B", "lower"));
    metrics.push_back(
        ungated("scale_seconds", scaleSeconds, "s", "lower"));

    if (timelineActive()) {
        // Ceiling-gated: telemetry on must stay within 5% of off at
        // the full fleet. Only measured (and only present in the
        // JSON) when a timeline path is configured, matching how the
        // committed baseline is produced.
        MetricSeries overhead;
        overhead.name = "telemetry_overhead_ratio";
        overhead.values = {overheadRatio};
        overhead.unit = "x";
        overhead.gate = true;
        overhead.direction = "ceiling";
        overhead.limit = 1.05;
        metrics.push_back(overhead);
    }

    if (scaleService) {
        if (observabilityEnabled())
            scaleService->addManifestSections(runManifest());
        if (timelineActive())
            scaleService->writeTimeline(timelineOutPath(),
                                        "bm_stream_scale", "exit");
    }

    const std::string path =
        writeBenchSeries("bm_stream_scale", metrics);
    std::printf("\nwrote %s\n", path.c_str());
    std::printf("stream scale: all checks passed\n");
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
        return runScale(argc, argv);
    } catch (const FatalError &) {
        // A fatal mid-run still leaves a postmortem: dump the live
        // service's telemetry, then let the error terminate the
        // process exactly as before.
        if (liveService != nullptr && timelineActive())
            liveService->writeTimeline(timelineOutPath(),
                                       "bm_stream_scale", "fatal");
        throw;
    }
}
