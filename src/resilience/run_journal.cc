/**
 * @file
 * Implementation of the write-ahead run journal.
 */

#include "resilience/run_journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/checksum.hh"
#include "common/logging.hh"

namespace tdp {
namespace resilience {

namespace {

/** Percent-escape so the detail stays one whitespace-free token. */
std::string
escapeDetail(const std::string &detail)
{
    if (detail.empty())
        return "-";
    std::string out;
    out.reserve(detail.size());
    for (const char c : detail) {
        if (c == ' ' || c == '%' || c == '\n' || c == '\r' ||
            c == '\t') {
            out += formatString("%%%02x",
                                static_cast<unsigned char>(c));
        } else {
            out += c;
        }
    }
    return out;
}

bool
unescapeDetail(const std::string &token, std::string *out)
{
    if (token == "-") {
        out->clear();
        return true;
    }
    std::string result;
    result.reserve(token.size());
    for (size_t i = 0; i < token.size(); ++i) {
        if (token[i] != '%') {
            result += token[i];
            continue;
        }
        if (i + 2 >= token.size())
            return false;
        unsigned value = 0;
        if (std::sscanf(token.c_str() + i + 1, "%02x", &value) != 1)
            return false;
        result += static_cast<char>(value);
        i += 2;
    }
    *out = std::move(result);
    return true;
}

constexpr JournalKind allKinds[] = {
    JournalKind::RunBegin,      JournalKind::TaskQueued,
    JournalKind::TaskStarted,   JournalKind::TracePublished,
    JournalKind::TaskFailed,    JournalKind::TaskQuarantined,
    JournalKind::RunEnd,        JournalKind::Shutdown,
};

bool
parseKind(const std::string &name, JournalKind *out)
{
    for (const JournalKind kind : allKinds) {
        if (name == journalKindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

/** Parse one line (no trailing newline). */
bool
parseRecord(const std::string &line, JournalRecord *out)
{
    // Split into exactly 8 tokens.
    std::istringstream is(line);
    std::string tokens[8];
    for (std::string &token : tokens)
        if (!(is >> token))
            return false;
    std::string extra;
    if (is >> extra)
        return false;

    if (tokens[0] != RunJournal::magic)
        return false;

    // Checksum covers everything before the final separator.
    const size_t crc_sep = line.rfind(' ');
    uint64_t stored_crc = 0;
    if (std::sscanf(tokens[7].c_str(), "%016" SCNx64, &stored_crc) !=
        1)
        return false;
    if (fnv1a64(line.data(), crc_sep) != stored_crc)
        return false;

    JournalRecord record;
    char *end = nullptr;
    record.seq = std::strtoull(tokens[1].c_str(), &end, 10);
    if (*end != '\0')
        return false;
    if (!parseKind(tokens[2], &record.kind))
        return false;
    record.task = std::strtoull(tokens[3].c_str(), &end, 10);
    if (*end != '\0')
        return false;
    if (std::sscanf(tokens[4].c_str(), "%016" SCNx64,
                    &record.fingerprint) != 1)
        return false;
    const long attempt = std::strtol(tokens[5].c_str(), &end, 10);
    if (*end != '\0' || attempt < 0)
        return false;
    record.attempt = static_cast<int>(attempt);
    if (!unescapeDetail(tokens[6], &record.detail))
        return false;
    *out = std::move(record);
    return true;
}

std::string
formatRecord(const JournalRecord &record)
{
    std::string body = formatString(
        "%s %llu %s %llu %016llx %d %s", RunJournal::magic,
        static_cast<unsigned long long>(record.seq),
        journalKindName(record.kind),
        static_cast<unsigned long long>(record.task),
        static_cast<unsigned long long>(record.fingerprint),
        record.attempt, escapeDetail(record.detail).c_str());
    body += formatString(" %016llx\n",
                         static_cast<unsigned long long>(
                             fnv1a64(body.data(), body.size())));
    return body;
}

} // namespace

const char *
journalKindName(JournalKind kind)
{
    switch (kind) {
      case JournalKind::RunBegin: return "run-begin";
      case JournalKind::TaskQueued: return "task-queued";
      case JournalKind::TaskStarted: return "task-started";
      case JournalKind::TracePublished: return "trace-published";
      case JournalKind::TaskFailed: return "task-failed";
      case JournalKind::TaskQuarantined: return "task-quarantined";
      case JournalKind::RunEnd: return "run-end";
      case JournalKind::Shutdown: return "shutdown";
    }
    panic("journalKindName: unknown kind %d", static_cast<int>(kind));
}

RunJournal::~RunJournal()
{
    close();
}

bool
RunJournal::open(const std::string &path, std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0)
        panic("RunJournal::open: journal already open (%s)",
              path_.c_str());

    uint64_t next_seq = 0;
    uint64_t keep_bytes = 0;
    bool truncate_tail = false;
    if (std::filesystem::exists(path)) {
        const Replay existing = replay(path);
        if (!existing.valid()) {
            if (error)
                *error = existing.error;
            return false;
        }
        if (!existing.records.empty())
            next_seq = existing.records.back().seq + 1;
        keep_bytes = existing.validBytes;
        truncate_tail = existing.tornTail;
    }

    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        if (error)
            *error = formatString("cannot open %s: %s", path.c_str(),
                                  std::strerror(errno));
        return false;
    }
    if (truncate_tail) {
        warn("run journal: %s has a torn final record (crash "
             "mid-append); truncating to the valid prefix",
             path.c_str());
        if (::ftruncate(fd, static_cast<off_t>(keep_bytes)) != 0) {
            if (error)
                *error = formatString("cannot truncate torn tail of "
                                      "%s: %s",
                                      path.c_str(),
                                      std::strerror(errno));
            ::close(fd);
            return false;
        }
    }
    if (::lseek(fd, 0, SEEK_END) < 0) {
        if (error)
            *error = formatString("cannot seek %s: %s", path.c_str(),
                                  std::strerror(errno));
        ::close(fd);
        return false;
    }

    fd_ = fd;
    path_ = path;
    nextSeq_ = next_seq;
    return true;
}

bool
RunJournal::append(JournalKind kind, uint64_t task,
                   uint64_t fingerprint, int attempt,
                   const std::string &detail)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return false;

    JournalRecord record;
    record.seq = nextSeq_;
    record.kind = kind;
    record.task = task;
    record.fingerprint = fingerprint;
    record.attempt = attempt;
    record.detail = detail;
    const std::string line = formatRecord(record);

    // One write(2) per record: a crash tears at most the final line.
    size_t written = 0;
    while (written < line.size()) {
        const ssize_t n = ::write(fd_, line.data() + written,
                                  line.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("run journal: append to %s failed (%s); journaling "
                 "degraded to best-effort",
                 path_.c_str(), std::strerror(errno));
            return false;
        }
        written += static_cast<size_t>(n);
    }
    if (::fsync(fd_) != 0) {
        warn("run journal: fsync %s failed (%s)", path_.c_str(),
             std::strerror(errno));
        return false;
    }
    ++nextSeq_;
    return true;
}

void
RunJournal::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

RunJournal::Replay
RunJournal::replay(const std::string &path)
{
    Replay out;
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        out.error = formatString("cannot open journal %s", path.c_str());
        return out;
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const std::string content = buffer.str();

    size_t offset = 0;
    while (offset < content.size()) {
        const size_t newline = content.find('\n', offset);
        // A final chunk without '\n' is torn by construction: every
        // append ends in a newline.
        const bool torn_chunk = newline == std::string::npos;
        const std::string line =
            torn_chunk ? content.substr(offset)
                       : content.substr(offset, newline - offset);
        const size_t next =
            torn_chunk ? content.size() : newline + 1;

        JournalRecord record;
        if (torn_chunk || !parseRecord(line, &record)) {
            if (next < content.size()) {
                // A bad record with valid data after it is
                // corruption, not a crash: reject the journal.
                out.error = formatString(
                    "journal %s: corrupt record at byte %llu",
                    path.c_str(),
                    static_cast<unsigned long long>(offset));
                out.records.clear();
                return out;
            }
            // Bad final record: torn append, tolerated and dropped.
            out.tornTail = true;
            return out;
        }
        if (record.seq != out.records.size()) {
            out.error = formatString(
                "journal %s: sequence gap at byte %llu (record %llu, "
                "expected %zu)",
                path.c_str(), static_cast<unsigned long long>(offset),
                static_cast<unsigned long long>(record.seq),
                out.records.size());
            out.records.clear();
            return out;
        }
        out.records.push_back(std::move(record));
        offset = next;
        out.validBytes = offset;
    }
    return out;
}

} // namespace resilience
} // namespace tdp
