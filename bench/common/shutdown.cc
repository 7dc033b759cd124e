/**
 * @file
 * Implementation of the stream benches' signal flags.
 */

#include "common/shutdown.hh"

#include <csignal>

#include <atomic>
#include <initializer_list>

namespace tdp {
namespace bench {

namespace {

std::atomic<bool> requested{false};
std::atomic<bool> installed{false};

std::atomic<bool> dumpPending{false};
std::atomic<bool> dumpInstalled{false};

extern "C" void
onShutdownSignal(int)
{
    // Async-signal-safe: atomic store only; the owner polls.
    requested.store(true, std::memory_order_relaxed);
}

extern "C" void
onDumpSignal(int)
{
    // Async-signal-safe: atomic store only; the owner polls.
    dumpPending.store(true, std::memory_order_relaxed);
}

/** Route `signals` to `handler` without SA_RESTART. */
void
installHandler(void (*handler)(int), std::initializer_list<int> signals)
{
    struct sigaction action = {};
    action.sa_handler = handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: interrupt blocking reads
    for (const int signo : signals)
        sigaction(signo, &action, nullptr);
}

} // namespace

void
installShutdownHandler()
{
    if (!installed.exchange(true))
        installHandler(onShutdownSignal, {SIGINT, SIGTERM});
}

bool
shutdownRequested()
{
    return requested.load(std::memory_order_relaxed);
}

void
installDumpSignalHandler()
{
    if (!dumpInstalled.exchange(true))
        installHandler(onDumpSignal, {SIGUSR2});
}

bool
dumpRequested()
{
    return dumpPending.load(std::memory_order_relaxed);
}

void
clearDumpRequest()
{
    dumpPending.store(false, std::memory_order_relaxed);
}

} // namespace bench
} // namespace tdp
