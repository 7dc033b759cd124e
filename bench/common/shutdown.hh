/**
 * @file
 * Signal flags for the long-running stream benches.
 *
 * stream_sweep and stream_scale poll these between ticks. SIGINT or
 * SIGTERM asks them to flush the partial manifest and timeline
 * (stream_sweep also writes a final checkpoint) and exit with
 * cleanAbortExitCode, so callers can tell "stopped cleanly" from both
 * success and crash.
 * SIGUSR2 asks for a mid-run telemetry dump and the run continues.
 * The handlers only raise flags, so they are async-signal-safe.
 */

#ifndef TDP_BENCH_SHUTDOWN_HH
#define TDP_BENCH_SHUTDOWN_HH

namespace tdp {
namespace bench {

/**
 * Exit code of a drained, checkpointed stop. Distinct from 0
 * (success), 1 (fatal error) and 128+signum (unhandled signal).
 */
constexpr int cleanAbortExitCode = 113;

/** Install the SIGINT/SIGTERM handler (idempotent). */
void installShutdownHandler();

/** True once SIGINT or SIGTERM arrived. */
bool shutdownRequested();

/** Install the SIGUSR2 handler (idempotent). */
void installDumpSignalHandler();

/** True while a telemetry dump is pending (SIGUSR2 arrived). */
bool dumpRequested();

/** Lower the dump flag once the dump has been written. */
void clearDumpRequest();

} // namespace bench
} // namespace tdp

#endif // TDP_BENCH_SHUTDOWN_HH
