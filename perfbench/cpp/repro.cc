/**
 * @file
 * The repro_cold and repro_warm workloads: one pass regenerates the
 * paper's Tables 1-4 - simulate (or load from the trace cache) the
 * sixteen section 3.2 runs, train the five per-rail models, validate
 * them with Equation 6 and render the tables.
 */

#include "workloads.hh"

#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/running_stats.hh"
#include "common/table.hh"
#include "core/estimator.hh"
#include "core/trainer.hh"
#include "core/validator.hh"
#include "exp/experiment_pool.hh"
#include "fault/fault_plan.hh"
#include "measure/trace_io.hh"
#include "obs/stats_registry.hh"
#include "platform/server.hh"
#include "trace/fingerprint.hh"
#include "trace/trace_cache.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

using namespace tdp;

/** How one experiment is launched and measured. */
struct RunSpec
{
    /** "train" or "char": what the trace is used for. */
    std::string role;
    std::string workload;
    /** Thread instances ("idle" runs none). */
    int instances = 8;
    Seconds firstStart = 1.0;
    Seconds stagger = 0.0;
    Seconds duration = 180.0;
    /** Samples before this time are dropped (start-up transients). */
    Seconds skip = 30.0;
    uint64_t seed = 0;

    std::string tag() const { return role + "." + workload; }
};

/** Workloads of Table 3 (integer/commercial) and Table 4 (FP). */
const std::vector<std::string> table3Workloads = {
    "idle", "gcc", "mcf", "vortex", "dbt2", "specjbb", "diskload"};
const std::vector<std::string> table4Workloads = {
    "art", "lucas", "mesa", "mgrid", "wupwise"};

/**
 * Characterisation run (Tables 1/2, validation for Tables 3/4;
 * paper section 3.2.1): all eight threads start together, 180 s
 * with the first 30 s dropped. Idle runs no threads for 120 s;
 * DiskLoad staggers its threads by 1.5 s so the periodic sync()
 * flushes desynchronise, and runs 200 s.
 */
RunSpec
characterisationRun(const std::string &workload, uint64_t seed)
{
    RunSpec spec;
    spec.role = "char";
    spec.workload = workload;
    spec.seed = seed;
    if (workload == "idle") {
        spec.instances = 0;
        spec.duration = 120.0;
        spec.skip = 10.0;
    } else if (workload == "diskload") {
        spec.stagger = 1.5;
        spec.duration = 200.0;
    }
    return spec;
}

/**
 * Training run (paper section 3.2.2): thread starts staggered 30 s
 * apart over 390 s so each model sees the whole utilisation range,
 * nothing dropped. DiskLoad staggers 5 s over 240 s; idle runs no
 * threads for 120 s. Training uses its own seed stream, so no model
 * is validated on its own noise realisation.
 */
RunSpec
trainingRun(const std::string &workload, uint64_t seed)
{
    RunSpec spec;
    spec.role = "train";
    spec.workload = workload;
    spec.stagger = 30.0;
    spec.duration = 390.0;
    spec.skip = 0.0;
    spec.seed = (paperSeed ^ 0x7e57ab1e) ^ seed;
    if (workload == "idle") {
        spec.instances = 0;
        spec.duration = 120.0;
    } else if (workload == "diskload") {
        spec.stagger = 5.0;
        spec.duration = 240.0;
    }
    return spec;
}

/**
 * The sixteen runs of one Tables 1-4 pass: the four training runs
 * (CPU <- gcc, memory <- mcf, disk and I/O <- DiskLoad, chipset <-
 * idle), then the twelve characterisation runs in the paper's order.
 */
std::vector<RunSpec>
paperSpecs(uint64_t seed)
{
    std::vector<RunSpec> specs;
    for (const char *name : {"gcc", "mcf", "diskload", "idle"})
        specs.push_back(trainingRun(name, seed));
    for (const std::string &name : paperWorkloadOrder())
        specs.push_back(characterisationRun(name, seed));
    return specs;
}

/** Cache key: every input that determines the trace. */
uint64_t
fingerprintOf(const RunSpec &spec)
{
    Fingerprint fp;
    fp.mixU64(traceFormatVersion);
    fp.mixString(spec.workload);
    fp.mixI64(spec.instances);
    fp.mixDouble(spec.firstStart);
    fp.mixDouble(spec.stagger);
    fp.mixDouble(spec.duration);
    fp.mixDouble(spec.skip);
    fp.mixU64(spec.seed);
    fp.mixU64(ticksPerMs);
    fp.mixFaultPlan(FaultPlan{});
    return fp.digest();
}

/** Digest of a trace's lossless binary form. */
uint64_t
traceDigest(const SampleTrace &trace)
{
    std::ostringstream os;
    writeTraceBinary(os, trace);
    const std::string bytes = os.str();
    return fnv1a64(bytes.data(), bytes.size());
}

/**
 * Simulate one run and return its aligned trace, with a span around
 * each layer call. @p stats, when given, receives the kernel's
 * counters via System::publishStats.
 */
SampleTrace
simulate(const RunSpec &spec, SpanLog &log, int64_t parent, int64_t run,
         obs::StatsRegistry *stats)
{
    const std::string tag = spec.tag();
    std::unique_ptr<Server> server;
    {
        ScopedSpan span(log, "platform.build", parent, run, tag);
        server = std::make_unique<Server>(spec.seed);
        if (spec.instances > 0)
            server->runner().launchStaggered(spec.workload,
                                             spec.instances,
                                             spec.firstStart,
                                             spec.stagger);
    }
    {
        ScopedSpan span(log, "sim.run", parent, run, tag);
        server->run(spec.duration);
    }
    SampleTrace trace;
    {
        ScopedSpan span(log, "measure.collect", parent, run, tag);
        const SampleTrace &full = server->rig().collect();
        trace = spec.skip > 0.0
                    ? full.slice(spec.skip, spec.duration + 1.0)
                    : full;
    }
    if (stats)
        server->system().publishStats(*stats);
    ScopedSpan span(log, "platform.teardown", parent, run, tag);
    server.reset();
    return trace;
}

/** Start and end of one pool task on its worker. */
struct TaskTiming
{
    Clock::time_point start;
    Clock::time_point end;
    std::thread::id worker;
};

/**
 * Obtain every spec's trace: cache lookups first, then the misses
 * simulated across the pool and stored. Fills @p keys and the
 * operation times and layer counts of @p pass.
 */
std::vector<SampleTrace>
acquireTraces(const std::vector<RunSpec> &specs, const TraceCache &cache,
              const ExperimentPool &pool, SpanLog &log, int64_t parent,
              int64_t run, std::vector<uint64_t> &keys, PassRecord &pass)
{
    const size_t n = specs.size();
    keys.resize(n);
    for (size_t i = 0; i < n; ++i)
        keys[i] = fingerprintOf(specs[i]);

    std::vector<SampleTrace> traces(n);
    std::vector<size_t> pending;
    pass.opsMs.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        const Clock::time_point start = Clock::now();
        bool hit = false;
        {
            ScopedSpan span(log, "trace.lookup", parent, run,
                            specs[i].tag());
            hit = cache.lookup(keys[i], traces[i]);
        }
        pass.opsMs[i] = 1e3 * secondsSince(start);
        if (!hit)
            pending.push_back(i);
    }

    pass.counts["trace.hits"] = static_cast<double>(n - pending.size());
    pass.counts["trace.misses"] = static_cast<double>(pending.size());
    if (pending.empty())
        return traces;

    std::unique_ptr<obs::StatsRegistry> stats;
    if (log.enabled()) {
        stats = std::make_unique<obs::StatsRegistry>();
        stats->setEnabled(true);
    }
    std::vector<TaskTiming> timing(pending.size());
    const Clock::time_point mapStart = Clock::now();
    std::vector<SampleTrace> fresh;
    {
        ScopedSpan span(log, "exp.map", parent, run);
        const int64_t mapId = span.id();
        fresh = pool.map<SampleTrace>(pending.size(), [&](size_t j) {
            TaskTiming &t = timing[j];
            t.worker = std::this_thread::get_id();
            t.start = Clock::now();
            SampleTrace trace =
                simulate(specs[pending[j]], log, mapId, run, stats.get());
            t.end = Clock::now();
            return trace;
        });
    }
    const Clock::time_point mapEnd = Clock::now();

    // Busy ratio: task time over worker time. Tail: the window at the
    // end of the batch in which some worker had run out of tasks and
    // waited for the stragglers.
    double busy = 0.0;
    std::unordered_map<std::thread::id, Clock::time_point> lastEnd;
    for (size_t j = 0; j < pending.size(); ++j) {
        const TaskTiming &t = timing[j];
        const std::chrono::duration<double> task = t.end - t.start;
        busy += task.count();
        pass.opsMs[pending[j]] += 1e3 * task.count();
        Clock::time_point &last = lastEnd[t.worker];
        last = std::max(last, t.end);
    }
    // A worker that never got a task idled through the whole batch.
    Clock::time_point firstIdle =
        lastEnd.size() < static_cast<size_t>(pool.jobs()) ? mapStart
                                                          : mapEnd;
    for (const auto &[worker, end] : lastEnd)
        firstIdle = std::min(firstIdle, end);
    const std::chrono::duration<double> mapWall = mapEnd - mapStart;
    pass.counts["exp.busy_ratio"] = busy / (pool.jobs() * mapWall.count());
    pass.counts["exp.tail_s"] =
        std::chrono::duration<double>(mapEnd - firstIdle).count();

    uint64_t collected = 0;
    for (size_t j = 0; j < pending.size(); ++j) {
        const size_t i = pending[j];
        collected += fresh[j].size();
        {
            ScopedSpan span(log, "trace.store", parent, run,
                            specs[i].tag());
            cache.store(keys[i], fresh[j]);
        }
        traces[i] = std::move(fresh[j]);
    }
    pass.counts["measure.samples"] = static_cast<double>(collected);

    if (stats) {
        const obs::StatsRegistry::Snapshot snap = stats->snapshot();
        for (const auto &[count, stat] :
             {std::pair{"sim.events", "sim.events.processed"},
              std::pair{"sim.quanta", "sim.quanta"},
              std::pair{"sim.objects", "sim.objects"}})
            pass.counts[count] =
                static_cast<double>(snap.counters.at(stat));
    }
    return traces;
}

/** Record what the pass's traces must reproduce, after its clock stopped. */
void
recordTraces(const std::vector<RunSpec> &specs,
             const std::vector<uint64_t> &keys,
             const std::vector<SampleTrace> &traces, const TraceCache &cache,
             PassRecord &pass)
{
    uint64_t bytes = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        pass.samples += traces[i].size();
        std::error_code error;
        const auto size =
            std::filesystem::file_size(cache.entryPath(keys[i]), error);
        if (!error)
            bytes += size;
        pass.check["trace." + specs[i].tag()] =
            hex64(traceDigest(traces[i]));
        pass.counts["sim_s." + specs[i].tag()] = specs[i].duration;
    }
    pass.counts["trace.bytes"] = static_cast<double>(bytes);
}

/** Table 1 or 2 row: per-rail mean or standard deviation. */
std::vector<std::string>
powerRow(const std::string &name, const SampleTrace &trace, bool stddev)
{
    RunningStats rails[numRails];
    for (const AlignedSample &s : trace.samples())
        for (int r = 0; r < numRails; ++r)
            rails[r].add(s.measured(static_cast<Rail>(r)));
    std::vector<std::string> row = {name};
    double total = 0.0;
    for (const RunningStats &r : rails) {
        row.push_back(stddev ? TableWriter::num(r.stddev(), 3)
                             : TableWriter::num(r.mean(), 1));
        total += r.mean();
    }
    if (!stddev)
        row.push_back(TableWriter::num(total, 0));
    return row;
}

/** Table 3/4 row of Equation 6 errors. */
std::vector<std::string>
errorRow(const ValidationResult &r)
{
    return {r.workload, TableWriter::pct(r.error(Rail::Cpu)),
            TableWriter::pct(r.error(Rail::Chipset)),
            TableWriter::pct(r.error(Rail::Memory)),
            TableWriter::pct(r.error(Rail::Io)),
            TableWriter::pct(r.error(Rail::Disk))};
}

/** What training, validation and rendering produce. */
struct Tables
{
    TrainingReport report;
    std::vector<ValidationResult> results;
    std::string rendered[4];
};

/**
 * Train the five models on the training traces, validate them on the
 * twelve characterisation traces and render Tables 1-4.
 */
Tables
regenerateTables(const std::vector<RunSpec> &specs,
                 const std::vector<SampleTrace> &traces, SpanLog &log,
                 int64_t parent, int64_t run)
{
    std::map<std::string, const SampleTrace *> byTag;
    for (size_t i = 0; i < specs.size(); ++i)
        byTag[specs[i].tag()] = &traces[i];

    Tables out;
    SystemPowerEstimator estimator =
        SystemPowerEstimator::makePaperModelSet();
    {
        ScopedSpan span(log, "core.train", parent, run);
        ModelTrainer trainer;
        trainer.setTrainingTrace(Rail::Cpu, *byTag.at("train.gcc"));
        trainer.setTrainingTrace(Rail::Memory, *byTag.at("train.mcf"));
        trainer.setTrainingTrace(Rail::Disk,
                                 *byTag.at("train.diskload"));
        trainer.setTrainingTrace(Rail::Io, *byTag.at("train.diskload"));
        trainer.setTrainingTrace(Rail::Chipset,
                                 *byTag.at("train.idle"));
        out.report = trainer.train(estimator);
    }

    // Tables 3/4 report Equation 6 on the raw rail values (no disk
    // DC offset).
    std::vector<ValidationResult> intResults;
    std::vector<ValidationResult> fpResults;
    ValidationResult intAverage;
    ValidationResult fpAverage;
    {
        ScopedSpan span(log, "core.validate", parent, run);
        const Validator validator(estimator, 0.0);
        for (const std::string &name : table3Workloads)
            intResults.push_back(
                validator.validate(name, *byTag.at("char." + name)));
        for (const std::string &name : table4Workloads)
            fpResults.push_back(
                validator.validate(name, *byTag.at("char." + name)));
        intAverage = Validator::average(intResults, "Integer Average");
        fpAverage = Validator::average(fpResults, "FP Average");
    }
    out.results = intResults;
    out.results.insert(out.results.end(), fpResults.begin(),
                       fpResults.end());

    ScopedSpan span(log, "common.render", parent, run);
    TableWriter table1(
        {"workload", "CPU", "Chipset", "Memory", "I/O", "Disk", "Total"});
    TableWriter table2(
        {"workload", "CPU", "Chipset", "Memory", "I/O", "Disk"});
    for (const std::string &name : paperWorkloadOrder()) {
        table1.addRow(powerRow(name, *byTag.at("char." + name), false));
        table2.addRow(powerRow(name, *byTag.at("char." + name), true));
    }
    TableWriter table3(
        {"workload", "CPU", "Chipset", "Memory", "I/O", "Disk"});
    TableWriter table4(
        {"workload", "CPU", "Chipset", "Memory", "I/O", "Disk"});
    for (const ValidationResult &r : intResults)
        table3.addRow(errorRow(r));
    table3.addRow(errorRow(intAverage));
    for (const ValidationResult &r : fpResults)
        table4.addRow(errorRow(r));
    table4.addRow(errorRow(fpAverage));
    const TableWriter *all[4] = {&table1, &table2, &table3, &table4};
    for (int t = 0; t < 4; ++t) {
        std::ostringstream os;
        all[t]->render(os);
        out.rendered[t] = os.str();
    }
    return out;
}

/**
 * One Tables 1-4 pass over @p cache. With @p full off only the
 * traces are acquired (the cache fill of repro_warm's set-up). The
 * outputs are digested after the pass's clock stopped.
 */
PassRecord
reproPass(const std::vector<RunSpec> &specs, const TraceCache &cache,
          const ExperimentPool &pool, SpanLog &log, int64_t run,
          bool full)
{
    PassRecord pass;
    pass.traced = log.enabled();
    std::vector<uint64_t> keys;
    std::vector<SampleTrace> traces;
    Tables tables;
    const Clock::time_point start = Clock::now();
    {
        ScopedSpan root(log, "pass", -1, run);
        traces = acquireTraces(specs, cache, pool, log, root.id(), run,
                               keys, pass);
        if (full)
            tables = regenerateTables(specs, traces, log, root.id(), run);
    }
    pass.wallS = secondsSince(start);
    pass.serviceS = pass.wallS;
    recordTraces(specs, keys, traces, cache, pass);
    if (!full)
        return pass;

    double errorSum = 0.0;
    int errors = 0;
    for (const ValidationResult &r : tables.results)
        for (double e : r.averageError) {
            errorSum += e;
            ++errors;
        }
    char error[32];
    std::snprintf(error, sizeof error, "%.6f", 100.0 * errorSum / errors);
    pass.check["model_error_pct"] = error;
    pass.check["core.train_discarded"] =
        std::to_string(tables.report.totalDiscarded());
    for (int t = 0; t < 4; ++t)
        pass.check["table" + std::to_string(t + 1)] = tables.rendered[t];
    return pass;
}

} // namespace

void
runRepro(const Options &options, RunResult &result, SpanLog &log)
{
    const bool warm = options.workload == "repro_warm";
    const ExperimentPool pool(options.jobs);
    const std::vector<RunSpec> specs = paperSpecs(options.seed);
    const std::string cacheDir = options.scratch + "/trace-cache";
    // Sixteen operations per pass, two of them 390 s training runs
    // (the largest traces). Enough passes that less than those two's
    // share of operations lies beyond the tail percentile, so the tail
    // falls among them instead of flipping between run lengths.
    const size_t minPasses = warm ? 20 : 8;
    result.minOps = minPasses * specs.size();

    // Set-up: repro_warm fills the cache (three times, for a median);
    // repro_cold only empties it, before every pass.
    std::unique_ptr<TraceCache> cache;
    const auto prepareCache = [&] {
        resetDirectory(cacheDir);
        cache = std::make_unique<TraceCache>(cacheDir);
    };
    if (warm) {
        for (int i = 0; i < 3; ++i) {
            const Clock::time_point start = Clock::now();
            prepareCache();
            const PassRecord fill =
                reproPass(specs, *cache, pool, log, -1, false);
            result.setupS.push_back(secondsSince(start));
            result.setupChecks.push_back(fill.check);
        }
    }

    const Clock::time_point window = Clock::now();
    for (size_t p = 0;
         keepMeasuring(window, options.seconds, p, minPasses); ++p) {
        if (!warm) {
            const Clock::time_point start = Clock::now();
            prepareCache();
            result.setupS.push_back(secondsSince(start));
        }
        log.setEnabled(options.trace && p % 2 == 1);
        result.passes.push_back(reproPass(
            specs, *cache, pool, log, static_cast<int64_t>(p), true));
    }
    log.setEnabled(false);

    if (options.seed != paperSeed) {
        prepareCache();
        result.reference =
            reproPass(paperSpecs(paperSeed), *cache, pool, log, -1, true)
                .check;
    }
    std::filesystem::remove_all(cacheDir);
}

} // namespace perfbench
