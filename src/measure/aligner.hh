/**
 * @file
 * Trace alignment (paper section 3.1.2): the single-byte serial
 * pulse recorded by the DAQ marks each counter sampling, and the
 * power samples between two consecutive pulses are averaged to pair
 * with the counter deltas of that window.
 *
 * Alignment is online: the rig drains after every pulse, so the DAQ
 * only holds the blocks of the window or two still awaiting a
 * reading. Every decision reads only the fronts of the pulse, block
 * and reading queues, which later arrivals never change, so draining
 * after every pulse produces the same trace as draining once at the
 * end of the run.
 *
 * The real pipeline loses pulses, duplicates pulses and drops
 * readings; a naive positional pairing then silently marries window
 * k's power to window k+1's counters for the rest of the run. This
 * aligner matches windows to readings by timestamp instead, so it
 * resynchronises after any such fault: spurious (duplicate) pulse
 * edges are discarded, windows whose reading was lost are dropped
 * and counted, readings whose pulse was lost are dropped and
 * counted, and a window stretched by a missing pulse only averages
 * the power span its counters actually cover. Non-finite (glitched)
 * block values are excluded per rail from the window average.
 */

#ifndef TDP_MEASURE_ALIGNER_HH
#define TDP_MEASURE_ALIGNER_HH

#include <deque>
#include <limits>

#include "measure/counter_sampler.hh"
#include "measure/daq.hh"
#include "measure/trace.hh"

namespace tdp {

/** Pairs DAQ power windows with counter readings. */
class TraceAligner
{
  public:
    /** Matching configuration. */
    struct Params
    {
        /** Nominal sampling period (s); the matching scale base. */
        Seconds nominalPeriod = 1.0;

        /**
         * A reading matches a window when its timestamp is within
         * this fraction of the nominal period of the window end.
         */
        double matchTolerance = 0.25;

        /**
         * Windows shorter than this fraction of the nominal period
         * are treated as a duplicated pulse edge and merged.
         */
        double minWindowFraction = 0.5;
    };

    explicit TraceAligner(DataAcquisition &daq) : TraceAligner(daq, {})
    {
    }

    TraceAligner(DataAcquisition &daq, const Params &params)
        : daq_(daq), params_(params)
    {
    }

    /**
     * Consume every complete (pulse-delimited) window from the DAQ
     * and every matching counter reading, appending aligned samples
     * to the trace. Incomplete trailing windows stay queued;
     * permanently unmatchable leftovers are discarded and counted in
     * the accessors below.
     *
     * @param through windows ending after this tick stay queued: the
     *        DAQ has not yet recorded every block they span.
     */
    void drainInto(std::deque<CounterReading> &readings,
                   SampleTrace &out,
                   Tick through = std::numeric_limits<Tick>::max());

    /** Number of windows aligned so far. */
    uint64_t alignedCount() const { return aligned_; }

    /**
     * Permanently unmatchable leftovers and recovery actions. @{
     */
    /** Windows whose counter reading never arrived (dropped). */
    uint64_t orphanWindows() const { return orphanWindows_; }

    /** Readings whose sync pulse never arrived (missed). */
    uint64_t orphanReadings() const { return orphanReadings_; }

    /** Spurious short pulse edges merged away (duplicated bytes). */
    uint64_t duplicatePulses() const { return duplicatePulses_; }

    /** Stretched windows clamped to the reading's own interval. */
    uint64_t resyncedWindows() const { return resyncedWindows_; }

    /** Matched windows skipped for having no usable power block. */
    uint64_t emptyWindows() const { return emptyWindows_; }

    /** Non-finite per-rail block values excluded from averages. */
    uint64_t glitchValuesDiscarded() const
    {
        return glitchValuesDiscarded_;
    }
    /** @} */

  private:
    DataAcquisition &daq_;
    Params params_;
    uint64_t aligned_ = 0;
    uint64_t orphanWindows_ = 0;
    uint64_t orphanReadings_ = 0;
    uint64_t duplicatePulses_ = 0;
    uint64_t resyncedWindows_ = 0;
    uint64_t emptyWindows_ = 0;
    uint64_t glitchValuesDiscarded_ = 0;
};

} // namespace tdp

#endif // TDP_MEASURE_ALIGNER_HH
