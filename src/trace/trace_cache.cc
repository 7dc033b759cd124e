/**
 * @file
 * Implementation of the trace cache.
 */

#include "trace/trace_cache.hh"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <thread>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "measure/trace_io.hh"
#include "obs/span_tracer.hh"
#include "obs/stats_registry.hh"

namespace tdp {

namespace fs = std::filesystem;

namespace {

/**
 * Bounded retry for transient cache I/O (an entry that exists but
 * will not open, a publish that fails): attempts in all, and the
 * backoff before the first retry, which doubles per failed attempt.
 */
constexpr int cacheAttempts = 3;
constexpr Seconds cacheBaseDelay = 0.002;

/**
 * Jitter amplitude: each delay is scaled by a factor in
 * [1 - f, 1 + f) hashed from the fingerprint, so workers retrying
 * different entries at once do not wake in lockstep.
 */
constexpr double cacheJitterFrac = 0.25;

void
backoffSleep(int failed_attempt, uint64_t fingerprint)
{
    Seconds delay = std::ldexp(cacheBaseDelay, failed_attempt - 1);
    const double unit = hashUnit(fingerprint, fingerprint,
                                 static_cast<uint64_t>(failed_attempt));
    delay *= 1.0 + cacheJitterFrac * (2.0 * unit - 1.0);
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(delay * 1e6)));
}

} // namespace

TraceCache::TraceCache(std::string root) : root_(std::move(root))
{
    if (root_.empty())
        fatal("TraceCache: empty cache directory");
}

std::string
TraceCache::entryPath(uint64_t fingerprint) const
{
    return (fs::path(root_) /
            formatString("trace-%016llx.tdpt",
                         static_cast<unsigned long long>(fingerprint)))
        .string();
}

bool
TraceCache::lookup(uint64_t fingerprint, SampleTrace &out) const
{
    obs::TraceSpan span("cache", "lookup");
    auto &reg = obs::StatsRegistry::global();

    const std::string path = entryPath(fingerprint);
    std::ifstream file;
    for (int attempt = 1;; ++attempt) {
        file.open(path, std::ios::binary);
        if (file)
            break;
        std::error_code ec;
        if (!fs::exists(path, ec)) {
            // Genuine miss: nothing to retry.
            ++stats_.misses;
            reg.addNamed("trace_cache.misses", 1);
            span.arg("hit", 0.0);
            return false;
        }
        // The entry exists but would not open: transient I/O
        // (EMFILE, EACCES race, EIO); retry before re-simulating.
        if (attempt >= cacheAttempts) {
            warn("trace cache: %s exists but cannot be opened after "
                 "%d attempts; falling back to simulation",
                 path.c_str(), attempt);
            ++stats_.rejected;
            reg.addNamed("trace_cache.rejected", 1);
            span.arg("hit", 0.0);
            return false;
        }
        ++stats_.retries;
        reg.addNamed("trace_cache.retries", 1);
        file.clear();
        backoffSleep(attempt, fingerprint);
    }

    SampleTrace trace;
    uint64_t stored_key = 0;
    std::string error;
    if (!tryReadTraceBinary(file, trace, &stored_key, &error)) {
        warn("trace cache: rejecting %s (%s); falling back to "
             "simulation",
             path.c_str(), error.c_str());
        ++stats_.rejected;
        reg.addNamed("trace_cache.rejected", 1);
        span.arg("hit", 0.0);
        return false;
    }
    if (stored_key != fingerprint) {
        // File-name hash collision or a renamed entry: the header
        // carries the authoritative key.
        warn("trace cache: rejecting %s (entry key %016llx does not "
             "match requested %016llx); falling back to simulation",
             path.c_str(),
             static_cast<unsigned long long>(stored_key),
             static_cast<unsigned long long>(fingerprint));
        ++stats_.rejected;
        reg.addNamed("trace_cache.rejected", 1);
        span.arg("hit", 0.0);
        return false;
    }

    out = std::move(trace);
    ++stats_.hits;
    reg.addNamed("trace_cache.hits", 1);
    span.arg("hit", 1.0);
    return true;
}

bool
TraceCache::store(uint64_t fingerprint, const SampleTrace &trace) const
{
    obs::TraceSpan span("cache", "store");
    span.arg("samples", static_cast<double>(trace.size()));

    std::error_code ec;
    fs::create_directories(root_, ec);
    if (ec) {
        warn("trace cache: cannot create %s (%s); entry not stored",
             root_.c_str(), ec.message().c_str());
        return false;
    }

    const std::string path = entryPath(fingerprint);
    auto &reg = obs::StatsRegistry::global();
    for (int attempt = 1;; ++attempt) {
        std::string serialize_error;
        std::string publish_error;
        const bool ok = writeFileAtomic(
            path,
            [&](std::ostream &os) {
                try {
                    writeTraceBinary(os, trace, fingerprint);
                } catch (const FatalError &err) {
                    serialize_error = err.what();
                    return false;
                }
                return true;
            },
            &publish_error);
        if (ok) {
            ++stats_.stores;
            reg.addNamed("trace_cache.stores", 1);
            return true;
        }
        if (!serialize_error.empty()) {
            // The trace itself would not serialise: retrying cannot
            // help.
            warn("trace cache: %s; entry not stored",
                 serialize_error.c_str());
            return false;
        }
        if (attempt >= cacheAttempts) {
            warn("trace cache: %s; entry not stored after %d "
                 "attempts",
                 publish_error.c_str(), attempt);
            return false;
        }
        ++stats_.retries;
        reg.addNamed("trace_cache.retries", 1);
        backoffSleep(attempt, fingerprint);
    }
}

std::optional<std::string>
TraceCache::rootFromEnvironment()
{
    const char *value = std::getenv("TDP_TRACE_CACHE");
    if (!value || value[0] == '\0' ||
        (value[0] == '0' && value[1] == '\0'))
        return std::nullopt;
    if (value[0] == '1' && value[1] == '\0')
        return defaultRoot();
    return std::string(value);
}

std::string
TraceCache::defaultRoot()
{
    return ".tdp-trace-cache";
}

} // namespace tdp
