/**
 * @file
 * Span log, result output and small helpers of the benchmark program.
 */

#include "bench.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"
#include "obs/json_writer.hh"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

void
SpanLog::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

int64_t
SpanLog::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

ScopedSpan::ScopedSpan(SpanLog &log, const char *name, int64_t parent,
                       int64_t run, std::string tag)
    : log_(log)
{
    span_.id = -1;
    if (!log_.enabled())
        return;
    span_.id = log_.nextId();
    span_.parent = parent;
    span_.run = run;
    span_.name = name;
    span_.tag = std::move(tag);
    span_.startNs = log_.nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (span_.id < 0)
        return;
    span_.endNs = log_.nowNs();
    log_.record(std::move(span_));
}

std::string
hex64(uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

bool
keepMeasuring(Clock::time_point start, double seconds, size_t passes,
              size_t min_passes)
{
    return passes < min_passes || secondsSince(start) < seconds;
}

void
resetDirectory(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

namespace {

void
writeStringMap(tdp::obs::JsonWriter &json,
               const std::map<std::string, std::string> &map)
{
    json.beginObject();
    for (const auto &[key, value] : map)
        json.keyValue(key, value);
    json.endObject();
}

} // namespace

void
writeResult(const std::string &path, const Options &options,
            const RunResult &result, const SpanLog &spans)
{
    std::ofstream os(path);
    if (!os)
        tdp::fatal("perfbench: cannot write %s", path.c_str());
    tdp::obs::JsonWriter json(os);
    json.beginObject();
    json.keyValue("workload", options.workload);
    json.keyValue("seed", options.seed);
    json.keyValue("jobs", options.jobs);
    json.keyValue("trace", options.trace);
    json.keyValue("min_ops", result.minOps);
    json.keyValue("peak_rss_kb", result.peakRssKb);

    json.key("setup_s");
    json.beginArray();
    for (double s : result.setupS)
        json.value(s);
    json.endArray();

    json.key("setup_checks");
    json.beginArray();
    for (const auto &check : result.setupChecks)
        writeStringMap(json, check);
    json.endArray();

    json.key("reference");
    writeStringMap(json, result.reference);

    json.key("passes");
    json.beginArray();
    for (const PassRecord &pass : result.passes) {
        json.beginObject();
        json.keyValue("traced", pass.traced);
        json.keyValue("wall_s", pass.wallS);
        json.keyValue("samples", pass.samples);
        json.keyValue("service_s", pass.serviceS);
        json.key("ops_ms");
        json.beginArray();
        for (double ms : pass.opsMs)
            json.value(ms);
        json.endArray();
        json.key("check");
        writeStringMap(json, pass.check);
        json.key("counts");
        json.beginObject();
        for (const auto &[key, value] : pass.counts)
            json.keyValue(key, value);
        json.endObject();
        json.endObject();
    }
    json.endArray();

    json.key("spans");
    json.beginArray();
    for (const SpanLog::Span &span : spans.spans()) {
        json.beginArray();
        json.value(span.id);
        json.value(span.parent);
        json.value(span.run);
        json.value(span.name);
        json.value(span.tag);
        json.value(span.startNs);
        json.value(span.endNs);
        json.endArray();
    }
    json.endArray();
    json.endObject();
    os << '\n';
    if (!os.flush())
        tdp::fatal("perfbench: failed writing %s", path.c_str());
}

} // namespace perfbench
