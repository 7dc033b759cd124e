/**
 * @file
 * Shared pieces of the end-to-end benchmark program: options, the
 * in-memory span log the traced run records, and the per-run result
 * the program writes out for perfbench/run.py to analyse.
 *
 * The program calls only the public functions of the src/ layers, so
 * every span and timer here measures a layer from outside.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** The paper seed; reference outputs are committed for it. */
constexpr uint64_t paperSeed = 0x5eed2007;

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = paperSeed;
    /** Length of the measured window (s). */
    double seconds = 10.0;
    /** Experiment and stream pool workers. */
    int jobs = 1;
    /** Record spans in every other pass (the per-layer run). */
    bool trace = false;
    /** Result file. */
    std::string out;
    /** Directory for trace caches and checkpoints (wiped on use). */
    std::string scratch;
};

/**
 * Spans kept in memory and written out when the run ends. A span is
 * recorded on close; ids are allocated on open so children opened on
 * pool workers can name their parent. The log starts disabled; a
 * disabled log records nothing and reads no clock.
 *
 * The program's own obs::SpanTracer is not used: it has no parent or
 * run ids, drops spans when its rings wrap, and turning it on also
 * enables the spans the layers record internally.
 */
class SpanLog
{
  public:
    struct Span
    {
        int64_t id = 0;
        int64_t parent = -1;
        /** Pass the span belongs to. */
        int64_t run = -1;
        const char *name = "";
        /** Free-form detail, e.g. the workload a run simulates. */
        std::string tag;
        int64_t startNs = 0;
        int64_t endNs = 0;
    };

    bool enabled() const { return enabled_; }

    /** Turn recording on or off (traced and untraced passes alternate). */
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Nanoseconds since the log's origin. */
    int64_t nowNs() const;

    /** Thread-safe append of a completed span. */
    void record(Span span);

    /** A fresh span id. */
    int64_t nextId();

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    std::mutex mutex_;
    int64_t nextId_ = 0;
    std::vector<Span> spans_;
};

/** RAII span; a no-op when the log is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, int64_t parent,
               int64_t run, std::string tag = {});
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Id to hand to child spans (-1 when disabled). */
    int64_t id() const { return span_.id; }

  private:
    SpanLog &log_;
    SpanLog::Span span_;
};

/**
 * One measured pass: its wall time, the unit operations it timed
 * (a run spec's trace acquisition or a service tick), the samples it
 * moved and what must repeat exactly (check) or is only reported
 * (counts).
 */
struct PassRecord
{
    bool traced = false;
    double wallS = 0.0;
    /** Work the pass did, in aligned (repro) or drained (stream) samples. */
    uint64_t samples = 0;
    /** Host time the samples_per_s metric divides by (s). */
    double serviceS = 0.0;
    std::vector<double> opsMs;
    /** Outputs that must repeat exactly for a seed. */
    std::map<std::string, std::string> check;
    /** Deterministic counts and per-pass measurements. */
    std::map<std::string, double> counts;
};

/** Everything one run reports. */
struct RunResult
{
    std::vector<double> setupS;
    std::vector<PassRecord> passes;
    /** Outputs of the run's set-up that must match the passes. */
    std::vector<std::map<std::string, std::string>> setupChecks;
    /** Paper-seed outputs, compared against the committed reference. */
    std::map<std::string, std::string> reference;
    /**
     * Operations every run times at least. The op tail is the highest
     * percentile with ten of them beyond it, so the percentile does
     * not move with the pass count.
     */
    uint64_t minOps = 0;
    uint64_t peakRssKb = 0;
};

/** Hex text of a 64-bit digest. */
std::string hex64(uint64_t value);

/**
 * True while the measured window is still open: fewer than
 * @p min_passes passes ran, or less than @p seconds elapsed.
 */
bool keepMeasuring(Clock::time_point start, double seconds,
                   size_t passes, size_t min_passes);

/** Write the result as one JSON document. */
void writeResult(const std::string &path, const Options &options,
                 const RunResult &result, const SpanLog &spans);

/** Remove and recreate @p dir. */
void resetDirectory(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
