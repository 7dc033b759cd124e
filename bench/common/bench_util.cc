/**
 * @file
 * Implementation of the bench helpers.
 */

#include "bench_util.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "exp/experiment_pool.hh"
#include "measure/trace_io.hh"
#include "obs/prom_writer.hh"
#include "obs/span_tracer.hh"
#include "obs/stats_registry.hh"
#include "trace/fingerprint.hh"

namespace tdp {
namespace bench {

namespace {

/** 0 until resolved; set by initBench()/setJobs(). */
int configuredJobs = 0;

/** The active cache; see resolveTraceCache(). */
std::unique_ptr<TraceCache> activeTraceCache;

/** True once a flag/env/setTraceCacheRoot decision has been made. */
bool traceCacheResolved = false;

/** True when --trace-out/--manifest-out (or env) enabled telemetry. */
bool observabilityOn = false;

/** Manifest output path; empty when no manifest was requested. */
std::string manifestPath;

/** Stream-timeline dump path; empty when none was requested. */
std::string timelinePath;

/** Prometheus text-exposition path; empty when none was requested. */
std::string promPath;

/** The manifest the run helpers accumulate into. */
obs::RunManifest globalManifest;

/** File name component of a path, for the manifest's tool field. */
std::string
toolName(const char *argv0)
{
    if (!argv0 || argv0[0] == '\0')
        return "bench";
    return std::filesystem::path(argv0).filename().string();
}

/**
 * Section name for the Nth contribution of one kind: "training",
 * "training.2", ... so repeated train/validate calls (robustness
 * sweeps) never append duplicate keys to one section.
 */
std::string
numberedSection(const char *base, int ordinal)
{
    if (ordinal <= 1)
        return base;
    return formatString("%s.%d", base, ordinal);
}

/** Flatten a trainer scrub report into a manifest section. */
void
addTrainingSection(const TrainingReport &report)
{
    if (!observabilityOn)
        return;
    static int calls = 0;
    const std::string section = numberedSection("training", ++calls);
    for (int r = 0; r < numRails; ++r) {
        const auto &c = report.rails[static_cast<size_t>(r)];
        const std::string rail = railName(static_cast<Rail>(r));
        globalManifest.addSectionEntry(section, rail + ".kept",
                                       c.kept);
        globalManifest.addSectionEntry(
            section, rail + ".discarded_non_finite",
            c.discardedNonFinite);
        globalManifest.addSectionEntry(
            section, rail + ".discarded_outlier", c.discardedOutlier);
    }
}

int
parseJobsValue(const char *text)
{
    const int parsed = std::atoi(text);
    if (parsed <= 0)
        fatal("--jobs expects a positive integer, got '%s'", text);
    return parsed;
}

/** Resolve the cache from the environment when no flag decided it. */
void
resolveTraceCache()
{
    if (traceCacheResolved)
        return;
    traceCacheResolved = true;
    const std::optional<std::string> root =
        TraceCache::rootFromEnvironment();
    if (root)
        activeTraceCache = std::make_unique<TraceCache>(*root);
}

int
parseRepetitionsValue(const char *text)
{
    const int parsed = std::atoi(text);
    if (parsed <= 0)
        fatal("--repetitions expects a positive count, got '%s'",
              text);
    return parsed;
}

} // namespace

void
setJobs(int jobs_count)
{
    if (jobs_count <= 0)
        fatal("setJobs: worker count must be positive, got %d",
              jobs_count);
    configuredJobs = jobs_count;
}

int
jobs()
{
    if (configuredJobs == 0)
        configuredJobs = ExperimentPool::defaultJobs();
    return configuredJobs;
}

void
initBench(int argc, char **argv)
{
    setLogLevelFromEnvironment();

    std::string trace_out;
    std::string manifest_out;
    std::string timeline_out;
    std::string prom_out;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--jobs") == 0 ||
            std::strcmp(arg, "-j") == 0) {
            if (i + 1 >= argc)
                fatal("%s expects a worker count", arg);
            setJobs(parseJobsValue(argv[++i]));
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            setJobs(parseJobsValue(arg + 7));
        } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
            setJobs(parseJobsValue(arg + 2));
        } else if (std::strcmp(arg, "--trace-cache") == 0) {
            setTraceCacheRoot(TraceCache::defaultRoot());
        } else if (std::strncmp(arg, "--trace-cache=", 14) == 0) {
            if (arg[14] == '\0')
                fatal("--trace-cache= expects a directory");
            setTraceCacheRoot(arg + 14);
        } else if (std::strcmp(arg, "--no-trace-cache") == 0) {
            setTraceCacheRoot("");
        } else if (std::strcmp(arg, "--trace-out") == 0) {
            if (i + 1 >= argc)
                fatal("--trace-out expects a file path");
            trace_out = argv[++i];
        } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
            if (arg[12] == '\0')
                fatal("--trace-out= expects a file path");
            trace_out = arg + 12;
        } else if (std::strcmp(arg, "--manifest-out") == 0) {
            if (i + 1 >= argc)
                fatal("--manifest-out expects a file path");
            manifest_out = argv[++i];
        } else if (std::strncmp(arg, "--manifest-out=", 15) == 0) {
            if (arg[15] == '\0')
                fatal("--manifest-out= expects a file path");
            manifest_out = arg + 15;
        } else if (std::strcmp(arg, "--timeline-out") == 0) {
            if (i + 1 >= argc)
                fatal("--timeline-out expects a file path");
            timeline_out = argv[++i];
        } else if (std::strncmp(arg, "--timeline-out=", 15) == 0) {
            if (arg[15] == '\0')
                fatal("--timeline-out= expects a file path");
            timeline_out = arg + 15;
        } else if (std::strcmp(arg, "--prom-out") == 0) {
            if (i + 1 >= argc)
                fatal("--prom-out expects a file path");
            prom_out = argv[++i];
        } else if (std::strncmp(arg, "--prom-out=", 11) == 0) {
            if (arg[11] == '\0')
                fatal("--prom-out= expects a file path");
            prom_out = arg + 11;
        } else if (std::strcmp(arg, "--repetitions") == 0) {
            if (i + 1 >= argc)
                fatal("--repetitions expects a count");
            setBenchRepetitions(parseRepetitionsValue(argv[++i]));
        } else if (std::strncmp(arg, "--repetitions=", 14) == 0) {
            setBenchRepetitions(parseRepetitionsValue(arg + 14));
        }
    }

    if (trace_out.empty()) {
        const char *env = std::getenv("TDP_TRACE_OUT");
        if (env && env[0] != '\0')
            trace_out = env;
    }
    if (manifest_out.empty()) {
        const char *env = std::getenv("TDP_MANIFEST_OUT");
        if (env && env[0] != '\0')
            manifest_out = env;
    }
    if (timeline_out.empty()) {
        const char *env = std::getenv("TDP_TIMELINE_OUT");
        if (env && env[0] != '\0')
            timeline_out = env;
    }
    if (prom_out.empty()) {
        const char *env = std::getenv("TDP_PROM_OUT");
        if (env && env[0] != '\0')
            prom_out = env;
    }
    if (trace_out.empty() && manifest_out.empty() &&
        timeline_out.empty() && prom_out.empty())
        return;

    observabilityOn = true;
    manifestPath = manifest_out;
    timelinePath = timeline_out;
    promPath = prom_out;
    globalManifest.setTool(toolName(argc > 0 ? argv[0] : nullptr));
    obs::StatsRegistry::global().setEnabled(true);
    if (!trace_out.empty())
        obs::SpanTracer::global().setOutput(std::move(trace_out));
    // One hook per process: initBench is called once from main.
    std::atexit(flushObservability);
}

void
argumentError(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string message = vformatString(fmt, args);
    va_end(args);
    std::fprintf(stderr, "%s (see --help)\n", message.c_str());
    std::exit(2);
}

std::vector<std::string>
positionalArgs(int argc, char **argv)
{
    std::vector<std::string> out;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--jobs") == 0 ||
            std::strcmp(arg, "-j") == 0 ||
            std::strcmp(arg, "--trace-out") == 0 ||
            std::strcmp(arg, "--manifest-out") == 0 ||
            std::strcmp(arg, "--timeline-out") == 0 ||
            std::strcmp(arg, "--prom-out") == 0 ||
            std::strcmp(arg, "--repetitions") == 0) {
            ++i; // skip the value
        } else if (std::strncmp(arg, "--jobs=", 7) != 0 &&
                   !(std::strncmp(arg, "-j", 2) == 0 &&
                     arg[2] != '\0') &&
                   std::strncmp(arg, "--trace-cache", 13) != 0 &&
                   std::strcmp(arg, "--no-trace-cache") != 0 &&
                   std::strncmp(arg, "--trace-out=", 12) != 0 &&
                   std::strncmp(arg, "--manifest-out=", 15) != 0 &&
                   std::strncmp(arg, "--timeline-out=", 15) != 0 &&
                   std::strncmp(arg, "--prom-out=", 11) != 0 &&
                   std::strncmp(arg, "--repetitions=", 14) != 0) {
            out.push_back(arg);
        }
    }
    return out;
}

void
setTraceCacheRoot(const std::string &root)
{
    traceCacheResolved = true;
    if (root.empty())
        activeTraceCache.reset();
    else
        activeTraceCache = std::make_unique<TraceCache>(root);
}

TraceCache *
traceCache()
{
    resolveTraceCache();
    return activeTraceCache.get();
}

bool
observabilityEnabled()
{
    return observabilityOn;
}

const std::string &
timelineOutPath()
{
    return timelinePath;
}

const std::string &
promOutPath()
{
    return promPath;
}

obs::RunManifest &
runManifest()
{
    return globalManifest;
}

void
flushObservability()
{
    if (!observabilityOn)
        return;
    obs::SpanTracer &tracer = obs::SpanTracer::global();
    if (tracer.enabled()) {
        const obs::SpanTracer::Stats spans = tracer.stats();
        tracer.flush();
        globalManifest.setSpanTrace(tracer.outputPath(),
                                    spans.recorded, spans.dropped);
    }
    if (!promPath.empty()) {
        // Best-effort (atexit context): a failed write warns and
        // moves on.
        std::string error;
        const bool ok = writeFileAtomic(
            promPath,
            [](std::ostream &os) {
                obs::writePrometheusText(
                    os, obs::StatsRegistry::global().snapshot());
                return os.good();
            },
            &error);
        if (!ok)
            warn("prometheus export: writing %s failed: %s",
                 promPath.c_str(), error.c_str());
    }
    if (manifestPath.empty())
        return;
    // Runs from atexit: only best-effort helpers below (no fatal()),
    // so an exception can never escape the handler.
    static bool cacheSectionAdded = false;
    const TraceCache *cache = activeTraceCache.get();
    if (cache && !cacheSectionAdded) {
        cacheSectionAdded = true;
        const TraceCache::Stats &s = cache->stats();
        globalManifest.addSectionEntry("trace_cache", "root",
                                       cache->root());
        globalManifest.addSectionEntry("trace_cache", "hits", s.hits);
        globalManifest.addSectionEntry("trace_cache", "misses",
                                       s.misses);
        globalManifest.addSectionEntry("trace_cache", "rejected",
                                       s.rejected);
        globalManifest.addSectionEntry("trace_cache", "stores",
                                       s.stores);
        globalManifest.addSectionEntry("trace_cache", "retries",
                                       s.retries);
    }
    globalManifest.setJobs(jobs());
    globalManifest.writeFile(manifestPath);
}

uint64_t
runFingerprint(const RunSpec &spec)
{
    Fingerprint fp;
    fp.mixU64(traceFormatVersion);
    fp.mixU64(traceCacheCodeSalt);
    fp.mixString(spec.workload);
    fp.mixI64(spec.instances);
    fp.mixDouble(spec.firstStart);
    fp.mixDouble(spec.stagger);
    fp.mixDouble(spec.duration);
    fp.mixDouble(spec.skip);
    fp.mixU64(spec.seed);
    fp.mixU64(spec.quantum);
    fp.mixFaultPlan(spec.faults);
    return fp.digest();
}

std::vector<SampleTrace>
runTraces(const std::vector<RunSpec> &specs)
{
    TraceCache *cache = traceCache();
    const size_t n = specs.size();
    std::vector<SampleTrace> out(n);
    std::vector<uint64_t> keys(n, 0);
    if (cache || observabilityOn)
        for (size_t i = 0; i < n; ++i)
            keys[i] = runFingerprint(specs[i]);

    // Indices that still need a simulation, in spec order.
    std::vector<size_t> pending;
    for (size_t i = 0; i < n; ++i)
        if (!cache || !cache->lookup(keys[i], out[i]))
            pending.push_back(i);

    // Each fresh trace is stored by the worker that simulated it as
    // soon as it finishes, so a batch killed midway keeps every run
    // it completed: re-run with the same cache, those are hits and
    // only the rest simulate.
    ExperimentPool(jobs()).forEach(pending.size(), [&](size_t j) {
        const size_t i = pending[j];
        out[i] = runTrace(specs[i]);
        if (cache)
            cache->store(keys[i], out[i]);
    });

    if (observabilityOn) {
        std::vector<char> simulated(n, 0);
        for (const size_t i : pending)
            simulated[i] = 1;
        for (size_t i = 0; i < n; ++i) {
            obs::ManifestRun run;
            run.workload = specs[i].workload;
            run.samples = out[i].size();
            run.fingerprint = keys[i];
            run.fromCache = !simulated[i];
            run.simSeconds = specs[i].duration;
            globalManifest.addRun(std::move(run));
        }
    }
    if (cache) {
        // Stderr only: stdout must stay byte-identical whether or
        // not a run was served from the cache.
        emitStats("trace-cache[%s]: %zu hit(s), %zu simulated of "
                  "%zu run(s), %llu retried",
                  cache->root().c_str(), n - pending.size(),
                  pending.size(), n,
                  static_cast<unsigned long long>(
                      cache->stats().retries.load()));
    }
    return out;
}

RunSpec
characterizationRun(const std::string &workload)
{
    RunSpec spec;
    spec.workload = workload;
    if (workload == "idle") {
        spec.instances = 0;
        spec.duration = 120.0;
        spec.skip = 10.0;
    } else if (workload == "diskload") {
        spec.instances = 8;
        // Staggered starts desynchronise the periodic sync() flushes,
        // giving the sustained disk/I/O activity of the paper's trace.
        spec.stagger = 1.5;
        spec.duration = 200.0;
        spec.skip = 30.0;
    } else {
        spec.instances = 8;
        spec.duration = 180.0;
        spec.skip = 30.0;
    }
    return spec;
}

RunSpec
trainingRun(const std::string &workload)
{
    RunSpec spec;
    spec.workload = workload;
    spec.instances = 8;
    spec.firstStart = 1.0;
    spec.stagger = 30.0;
    spec.duration = 390.0;
    spec.skip = 0.0;
    // A different seed stream than the validation runs, so the models
    // are never validated on their own noise realisation.
    spec.seed = defaultSeed ^ 0x7e57ab1e;
    if (workload == "idle") {
        spec.instances = 0;
        spec.duration = 120.0;
    } else if (workload == "diskload") {
        spec.stagger = 5.0;
        spec.duration = 240.0;
    }
    return spec;
}

SampleTrace
runTrace(const RunSpec &spec, std::unique_ptr<Server> &out)
{
    obs::TraceSpan span("bench", "run:" + spec.workload);
    span.arg("sim_seconds", spec.duration);

    Server::Params params;
    params.quantum = spec.quantum;
    params.rig.faults = spec.faults;
    out = std::make_unique<Server>(spec.seed, params);
    if (spec.instances > 0) {
        out->runner().launchStaggered(spec.workload, spec.instances,
                                      spec.firstStart, spec.stagger);
    }
    out->run(spec.duration);
    const SampleTrace &full = out->rig().collect();

    obs::StatsRegistry &reg = obs::StatsRegistry::global();
    if (reg.enabled())
        out->system().publishStats(reg);

    if (spec.skip <= 0.0)
        return full;
    return full.slice(spec.skip, spec.duration + 1.0);
}

SampleTrace
runTrace(const RunSpec &spec)
{
    std::unique_ptr<Server> server;
    return runTrace(spec, server);
}

SystemPowerEstimator
trainPaperEstimator(uint64_t seed)
{
    SystemPowerEstimator estimator =
        SystemPowerEstimator::makePaperModelSet();

    auto spec_for = [seed](const std::string &name) {
        RunSpec spec = trainingRun(name);
        spec.seed ^= seed;
        return spec;
    };

    // The four training runs are independent systems; fan them across
    // the experiment pool.
    const std::vector<SampleTrace> traces =
        runTraces({spec_for("gcc"), spec_for("mcf"),
                   spec_for("diskload"), spec_for("idle")});

    ModelTrainer trainer;
    trainer.setTrainingTrace(Rail::Cpu, traces[0]);
    trainer.setTrainingTrace(Rail::Memory, traces[1]);
    trainer.setTrainingTrace(Rail::Disk, traces[2]);
    trainer.setTrainingTrace(Rail::Io, traces[2]);
    trainer.setTrainingTrace(Rail::Chipset, traces[3]);
    addTrainingSection(trainer.train(estimator));
    return estimator;
}

SystemPowerEstimator
trainDegradableEstimator(uint64_t seed, const FaultPlan &faults,
                         TrainingReport *report)
{
    SystemPowerEstimator estimator =
        SystemPowerEstimator::makeDegradableModelSet();

    auto spec_for = [seed, &faults](const std::string &name) {
        RunSpec spec = trainingRun(name);
        spec.seed ^= seed;
        spec.faults = faults;
        return spec;
    };

    const std::vector<SampleTrace> traces =
        runTraces({spec_for("gcc"), spec_for("mcf"),
                   spec_for("diskload"), spec_for("idle")});

    ModelTrainer trainer;
    trainer.setTrainingTrace(Rail::Cpu, traces[0]);
    trainer.setTrainingTrace(Rail::Memory, traces[1]);
    trainer.setTrainingTrace(Rail::Disk, traces[2]);
    trainer.setTrainingTrace(Rail::Io, traces[2]);
    trainer.setTrainingTrace(Rail::Chipset, traces[3]);
    const TrainingReport scrubbed = trainer.train(estimator);
    addTrainingSection(scrubbed);
    if (report)
        *report = scrubbed;
    return estimator;
}

std::vector<ValidationResult>
printErrorTable(const SystemPowerEstimator &estimator,
                const std::vector<std::string> &workloads,
                const std::string &average_label, uint64_t seed)
{
    // Tables 3/4 report Equation 6 on the raw rail values; the
    // DC-subtracted disk metric is only used for the Figure 6 trace.
    Validator validator(estimator, 0.0);

    std::vector<RunSpec> specs;
    for (const std::string &name : workloads) {
        RunSpec spec = characterizationRun(name);
        spec.seed = seed;
        specs.push_back(spec);
    }
    const std::vector<SampleTrace> traces = runTraces(specs);

    std::vector<ValidationResult> results;
    for (size_t i = 0; i < workloads.size(); ++i)
        results.push_back(validator.validate(workloads[i], traces[i]));

    TableWriter table(
        {"workload", "CPU", "Chipset", "Memory", "I/O", "Disk"});
    auto add_row = [&table](const ValidationResult &r) {
        table.addRow({r.workload, TableWriter::pct(r.error(Rail::Cpu)),
                      TableWriter::pct(r.error(Rail::Chipset)),
                      TableWriter::pct(r.error(Rail::Memory)),
                      TableWriter::pct(r.error(Rail::Io)),
                      TableWriter::pct(r.error(Rail::Disk))});
    };
    for (const ValidationResult &r : results)
        add_row(r);
    add_row(Validator::average(results, average_label));
    table.render(std::cout);

    if (observabilityOn) {
        static int calls = 0;
        const std::string section =
            numberedSection("health", ++calls);
        const HealthReport health = estimator.health();
        for (const RailHealth &rail : health.rails) {
            globalManifest.addSectionEntry(
                section, rail.rail + ".estimates", rail.estimates);
            globalManifest.addSectionEntry(
                section, rail.rail + ".degraded", rail.degraded);
            globalManifest.addSectionEntry(
                section, rail.rail + ".unestimable",
                rail.unestimable);
        }
    }
    return results;
}

std::string
writeBenchJson(const std::string &bench,
               const std::vector<BenchMetric> &metrics)
{
    std::vector<MetricSeries> series;
    series.reserve(metrics.size());
    for (const BenchMetric &metric : metrics)
        series.push_back(
            {metric.name, {metric.value}, metric.unit, false,
             "lower"});
    return writeBenchSeries(bench, series);
}

std::string
writeBenchSeries(const std::string &bench,
                 const std::vector<MetricSeries> &metrics)
{
    const std::string path = writeBenchSeriesJson(bench, metrics);
    if (observabilityOn)
        for (const MetricSeries &metric : metrics)
            globalManifest.addMetric({metric.name,
                                      seriesMean(metric.values),
                                      metric.unit});
    return path;
}

} // namespace bench
} // namespace tdp
