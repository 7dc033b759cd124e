/**
 * @file
 * Direct-queue tests for the trace aligner's fault recovery: orphan
 * windows/readings, duplicate-pulse merging, resynchronisation after
 * a missed pulse, glitch filtering and the leftover accessors, and
 * the online drain's equivalence to one drain at the end. The DAQ
 * queues are populated by hand so each scenario is exact.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "measure/aligner.hh"
#include "measure/trace_io.hh"

namespace tdp {
namespace {

class AlignerFaults : public ::testing::Test
{
  protected:
    AlignerFaults()
        : system_(1),
          daq_(system_, "daq", DataAcquisition::Params{}),
          aligner_(daq_)
    {
    }

    /** Append one DAQ block starting at @p start seconds. */
    void
    addBlock(Seconds start, Seconds length,
             const std::array<float, numRails> &watts)
    {
        DaqBlock block;
        block.start = secondsToTicks(start);
        block.length = secondsToTicks(length);
        block.watts = watts;
        daq_.blocks().push_back(block);
    }

    /** Fill [from, to) with 0.1 s blocks of uniform power. */
    void
    fillBlocks(Seconds from, Seconds to, float watts)
    {
        std::array<float, numRails> uniform;
        uniform.fill(watts);
        const int n = static_cast<int>(std::lround((to - from) / 0.1));
        for (int i = 0; i < n; ++i)
            addBlock(from + 0.1 * i, 0.1, uniform);
    }

    void addPulse(Seconds t) { daq_.pulses().push_back(secondsToTicks(t)); }

    void
    addReading(Seconds time, Seconds interval = 1.0)
    {
        CounterReading reading;
        reading.time = time;
        reading.interval = interval;
        reading.perCpu.resize(1);
        reading.perCpu[0][PerfEvent::Cycles] = 2.8e9 * interval;
        readings_.push_back(std::move(reading));
    }

    System system_;
    DataAcquisition daq_;
    TraceAligner aligner_;
    std::deque<CounterReading> readings_;
    SampleTrace trace_;
};

TEST_F(AlignerFaults, CleanStreamsAlignOneToOne)
{
    for (Seconds t : {0.0, 1.0, 2.0, 3.0})
        addPulse(t);
    for (Seconds t : {1.0, 2.0, 3.0})
        addReading(t);
    fillBlocks(0.0, 3.0, 40.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.alignedCount(), 3u);
    ASSERT_EQ(trace_.size(), 3u);
    for (const AlignedSample &s : trace_.samples()) {
        for (int r = 0; r < numRails; ++r) {
            EXPECT_DOUBLE_EQ(
                s.measuredWatts[static_cast<size_t>(r)], 40.0);
        }
    }
    EXPECT_EQ(aligner_.orphanWindows(), 0u);
    EXPECT_EQ(aligner_.orphanReadings(), 0u);
    EXPECT_EQ(aligner_.duplicatePulses(), 0u);
    EXPECT_EQ(aligner_.resyncedWindows(), 0u);
    EXPECT_TRUE(readings_.empty());
}

TEST_F(AlignerFaults, MissedPulseOrphansReadingAndResyncsWindow)
{
    // The pulse at t=2 was lost: windows become [0,1] and [1,3]. The
    // reading at t=2 is permanently unmatchable; the stretched [1,3]
    // window must only average the power span its matched reading
    // (t=3, interval 1 s) actually covers.
    for (Seconds t : {0.0, 1.0, 3.0})
        addPulse(t);
    for (Seconds t : {1.0, 2.0, 3.0})
        addReading(t);
    fillBlocks(0.0, 1.0, 20.0f);
    fillBlocks(1.0, 2.0, 10.0f);
    fillBlocks(2.0, 3.0, 50.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.orphanReadings(), 1u);
    EXPECT_EQ(aligner_.resyncedWindows(), 1u);
    ASSERT_EQ(trace_.size(), 2u);
    EXPECT_DOUBLE_EQ(trace_[0].measuredWatts[0], 20.0);
    // The 10 W span belongs to the lost reading; the clamped window
    // averages only [2, 3).
    EXPECT_DOUBLE_EQ(trace_[1].measuredWatts[0], 50.0);
    EXPECT_DOUBLE_EQ(trace_[1].time, 3.0);
}

TEST_F(AlignerFaults, DroppedReadingOrphansItsWindow)
{
    for (Seconds t : {0.0, 1.0, 2.0, 3.0})
        addPulse(t);
    // The reading at t=2 was dropped in transit.
    addReading(1.0);
    addReading(3.0);
    fillBlocks(0.0, 3.0, 40.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.orphanWindows(), 1u);
    EXPECT_EQ(aligner_.orphanReadings(), 0u);
    EXPECT_EQ(aligner_.alignedCount(), 2u);
    ASSERT_EQ(trace_.size(), 2u);
    EXPECT_DOUBLE_EQ(trace_[0].time, 1.0);
    EXPECT_DOUBLE_EQ(trace_[1].time, 3.0);
}

TEST_F(AlignerFaults, DuplicatePulseEdgesAreMerged)
{
    // A duplicated serial byte lands 1 ms after the real edge; the
    // sub-minimum window it creates must be merged, not aligned.
    addPulse(0.0);
    addPulse(1.0);
    addPulse(1.001);
    addPulse(2.0);
    addReading(1.0);
    addReading(2.0);
    fillBlocks(0.0, 2.0, 40.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.duplicatePulses(), 1u);
    EXPECT_EQ(aligner_.alignedCount(), 2u);
    ASSERT_EQ(trace_.size(), 2u);
    for (const AlignedSample &s : trace_.samples())
        EXPECT_DOUBLE_EQ(s.measuredWatts[0], 40.0);
}

TEST_F(AlignerFaults, GlitchedValuesAreExcludedPerRail)
{
    addPulse(0.0);
    addPulse(1.0);
    addReading(1.0);
    std::array<float, numRails> good;
    good.fill(40.0f);
    for (int i = 0; i < 10; ++i) {
        std::array<float, numRails> watts = good;
        if (i == 4) {
            // One NaN on rail 0: excluded, other rails unaffected.
            watts[0] = std::numeric_limits<float>::quiet_NaN();
        }
        // Rail 1 is glitched in every block: no finite value remains.
        watts[1] = std::numeric_limits<float>::infinity();
        addBlock(0.1 * i, 0.1, watts);
    }

    aligner_.drainInto(readings_, trace_);

    ASSERT_EQ(trace_.size(), 1u);
    // 9 finite blocks of 40 W remain on rail 0.
    EXPECT_DOUBLE_EQ(trace_[0].measuredWatts[0], 40.0);
    EXPECT_TRUE(std::isnan(trace_[0].measuredWatts[1]));
    EXPECT_DOUBLE_EQ(trace_[0].measuredWatts[2], 40.0);
    EXPECT_EQ(aligner_.glitchValuesDiscarded(), 11u);
}

TEST_F(AlignerFaults, WindowWithNoUsablePowerIsSkipped)
{
    addPulse(0.0);
    addPulse(1.0);
    addReading(1.0);
    // No blocks at all: the window has nothing to average.

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(trace_.size(), 0u);
    EXPECT_EQ(aligner_.emptyWindows(), 1u);
    EXPECT_EQ(aligner_.alignedCount(), 0u);
}

TEST_F(AlignerFaults, TrailingWindowWaitsForItsReading)
{
    // collect() is incremental: a complete window whose reading has
    // not been drained yet must stay queued, not be orphaned.
    for (Seconds t : {0.0, 1.0, 2.0})
        addPulse(t);
    addReading(1.0);
    fillBlocks(0.0, 2.0, 40.0f);

    aligner_.drainInto(readings_, trace_);
    EXPECT_EQ(aligner_.alignedCount(), 1u);
    EXPECT_EQ(aligner_.orphanWindows(), 0u);
    EXPECT_EQ(daq_.pulses().size(), 2u);

    // The late reading arrives; the queued window aligns.
    addReading(2.0);
    aligner_.drainInto(readings_, trace_);
    EXPECT_EQ(aligner_.alignedCount(), 2u);
    ASSERT_EQ(trace_.size(), 2u);
    EXPECT_DOUBLE_EQ(trace_[1].time, 2.0);
}

TEST_F(AlignerFaults, ResyncsAfterLeadingOrphanReadingBurst)
{
    // The DAQ came up late: the counter collector had already queued
    // readings at t=1..3 before the first pulse window ever closed.
    // The whole leading burst must be discarded as orphans and the
    // stream must then align one-to-one - not wedge, not mispair an
    // early reading with a later window.
    for (Seconds t : {4.0, 5.0, 6.0})
        addPulse(t);
    for (Seconds t : {1.0, 2.0, 3.0, 5.0, 6.0})
        addReading(t);
    fillBlocks(4.0, 6.0, 40.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.orphanReadings(), 3u);
    EXPECT_EQ(aligner_.alignedCount(), 2u);
    ASSERT_EQ(trace_.size(), 2u);
    EXPECT_DOUBLE_EQ(trace_[0].time, 5.0);
    EXPECT_DOUBLE_EQ(trace_[1].time, 6.0);
    EXPECT_DOUBLE_EQ(trace_[0].measuredWatts[0], 40.0);

    // Once resynced, the next drain is clean: no new orphans.
    addPulse(7.0);
    addReading(7.0);
    fillBlocks(6.0, 7.0, 30.0f);
    aligner_.drainInto(readings_, trace_);
    EXPECT_EQ(aligner_.orphanReadings(), 3u);
    EXPECT_EQ(aligner_.alignedCount(), 3u);
    ASSERT_EQ(trace_.size(), 3u);
    EXPECT_DOUBLE_EQ(trace_[2].measuredWatts[0], 30.0);
}

TEST_F(AlignerFaults, ResyncsAfterLeadingOrphanWindowBurst)
{
    // The mirror fault: pulses and power flowed from t=0 but the
    // counter collector only started at t=4. Every window before the
    // first reading is an orphan window; alignment then locks on.
    for (Seconds t : {0.0, 1.0, 2.0, 3.0, 4.0, 5.0})
        addPulse(t);
    addReading(4.0);
    addReading(5.0);
    fillBlocks(0.0, 3.0, 20.0f);
    fillBlocks(3.0, 5.0, 40.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.orphanWindows(), 3u);
    EXPECT_EQ(aligner_.orphanReadings(), 0u);
    EXPECT_EQ(aligner_.alignedCount(), 2u);
    ASSERT_EQ(trace_.size(), 2u);
    EXPECT_DOUBLE_EQ(trace_[0].time, 4.0);
    EXPECT_DOUBLE_EQ(trace_[1].time, 5.0);
    // The orphan windows consumed their own power blocks: the
    // aligned samples only average the spans they cover.
    EXPECT_DOUBLE_EQ(trace_[0].measuredWatts[0], 40.0);
    EXPECT_DOUBLE_EQ(trace_[1].measuredWatts[0], 40.0);
}

TEST_F(AlignerFaults, AccountingAccumulatesAcrossDrains)
{
    // First drain: one dropped reading.
    for (Seconds t : {0.0, 1.0, 2.0})
        addPulse(t);
    addReading(2.0);
    fillBlocks(0.0, 2.0, 40.0f);
    aligner_.drainInto(readings_, trace_);
    EXPECT_EQ(aligner_.orphanWindows(), 1u);

    // Second drain: one missed pulse.
    addPulse(4.0);
    addReading(3.0);
    addReading(4.0);
    fillBlocks(2.0, 4.0, 40.0f);
    aligner_.drainInto(readings_, trace_);
    EXPECT_EQ(aligner_.orphanWindows(), 1u);
    EXPECT_EQ(aligner_.orphanReadings(), 1u);
    EXPECT_EQ(aligner_.resyncedWindows(), 1u);
}

/** One aligner with its own DAQ queues, fed by hand. */
struct AlignerLane
{
    System system{1};
    DataAcquisition daq{system, "daq", DataAcquisition::Params{}};
    TraceAligner aligner{daq};
    std::deque<CounterReading> readings;
    SampleTrace trace;

    std::string
    traceBytes() const
    {
        std::ostringstream os(std::ios::binary);
        writeTraceBinary(os, trace);
        return os.str();
    }
};

TEST(AlignerCadence, DrainAfterEveryPulseEqualsOneDrainAtTheEnd)
{
    // One stream with every fault the rig injects: a missed pulse, a
    // duplicated pulse (immediate and delayed copies), a delayed
    // pulse, a dropped reading, a dropped block and a glitched block.
    // Events arrive in simulator order: a 0.1 s block is recorded at
    // its start, after the events due by then; a read sends its pulse,
    // the rig drains, and only then is the reading queued.
    AlignerLane once, online;
    Tick recorded_until = 0;

    const auto block = [&](Seconds start, int k, int b) {
        DaqBlock blk;
        blk.start = secondsToTicks(start);
        blk.length = secondsToTicks(0.1);
        for (int r = 0; r < numRails; ++r) {
            blk.watts[static_cast<size_t>(r)] =
                static_cast<float>(10 + (7 * k + 3 * b + r) % 11);
        }
        if (k == 5 && b == 2)
            blk.watts[2] = std::numeric_limits<float>::quiet_NaN();
        recorded_until = blk.start + blk.length;
        if (k == 3 && b == 4)
            return; // dropped block: sampled, never recorded
        once.daq.blocks().push_back(blk);
        online.daq.blocks().push_back(blk);
    };
    const auto pulse = [&](Seconds t) {
        once.daq.pulses().push_back(secondsToTicks(t));
        online.daq.pulses().push_back(secondsToTicks(t));
    };

    std::vector<Seconds> delayed;
    size_t max_blocks_held = 0;
    for (int k = 1; k <= 14; ++k) {
        for (int b = 0; b < 10; ++b) {
            block((k - 1) + 0.1 * b, k, b);
            // Delayed pulses land 1-2 ms after their read, once the
            // block starting at the read has been recorded.
            if (b == 0) {
                for (Seconds t : delayed)
                    pulse(t);
                delayed.clear();
            }
        }

        const Seconds t = k;
        switch (k) {
          case 4: // missed pulse
            break;
          case 6: // duplicated pulse, both copies immediate
            pulse(t);
            pulse(t);
            break;
          case 8: // delayed pulse
            delayed.push_back(t + 0.002);
            break;
          case 11: // duplicated pulse, second copy delayed
            pulse(t);
            delayed.push_back(t + 0.001);
            break;
          default:
            pulse(t);
            break;
        }
        online.aligner.drainInto(online.readings, online.trace,
                                 recorded_until);
        max_blocks_held =
            std::max(max_blocks_held, online.daq.blocks().size());

        if (k == 9)
            continue; // dropped reading
        CounterReading reading;
        reading.time = t;
        reading.interval = 1.0;
        reading.perCpu.resize(1);
        reading.perCpu[0][PerfEvent::Cycles] = 2.8e9 + k;
        once.readings.push_back(reading);
        online.readings.push_back(std::move(reading));
    }
    // The online lane aligned as it went and held a few windows.
    EXPECT_GE(online.trace.size(), 8u);
    EXPECT_LE(max_blocks_held, 30u);

    once.aligner.drainInto(once.readings, once.trace);
    online.aligner.drainInto(online.readings, online.trace);

    // Every fault kind was exercised.
    EXPECT_GE(once.aligner.orphanWindows(), 1u);
    EXPECT_GE(once.aligner.orphanReadings(), 1u);
    EXPECT_GE(once.aligner.duplicatePulses(), 2u);
    EXPECT_GE(once.aligner.resyncedWindows(), 1u);
    EXPECT_EQ(once.aligner.glitchValuesDiscarded(), 1u);

    EXPECT_EQ(online.trace.size(), once.trace.size());
    // Compared as a flag: gtest would print both binary blobs.
    EXPECT_TRUE(online.traceBytes() == once.traceBytes());
    EXPECT_EQ(online.aligner.alignedCount(),
              once.aligner.alignedCount());
    EXPECT_EQ(online.aligner.orphanWindows(),
              once.aligner.orphanWindows());
    EXPECT_EQ(online.aligner.orphanReadings(),
              once.aligner.orphanReadings());
    EXPECT_EQ(online.aligner.duplicatePulses(),
              once.aligner.duplicatePulses());
    EXPECT_EQ(online.aligner.resyncedWindows(),
              once.aligner.resyncedWindows());
    EXPECT_EQ(online.aligner.emptyWindows(),
              once.aligner.emptyWindows());
    EXPECT_EQ(online.aligner.glitchValuesDiscarded(),
              once.aligner.glitchValuesDiscarded());
}

TEST(AlignerCadence, WindowsPastTheRecordedBlocksStayQueued)
{
    // A window whose end lies beyond the last recorded block may still
    // be missing blocks; the bounded drain leaves it for later.
    AlignerLane lane;
    for (Seconds t : {0.0, 1.0})
        lane.daq.pulses().push_back(secondsToTicks(t));
    CounterReading reading;
    reading.time = 1.0;
    reading.interval = 1.0;
    reading.perCpu.resize(1);
    lane.readings.push_back(reading);
    DaqBlock blk;
    blk.start = 0;
    blk.length = secondsToTicks(0.5);
    blk.watts.fill(30.0f);
    lane.daq.blocks().push_back(blk);

    lane.aligner.drainInto(lane.readings, lane.trace,
                           secondsToTicks(0.5));
    EXPECT_EQ(lane.trace.size(), 0u);
    EXPECT_EQ(lane.daq.pulses().size(), 2u);

    blk.start = secondsToTicks(0.5);
    blk.watts.fill(50.0f);
    lane.daq.blocks().push_back(blk);
    lane.aligner.drainInto(lane.readings, lane.trace,
                           secondsToTicks(1.0));
    ASSERT_EQ(lane.trace.size(), 1u);
    EXPECT_DOUBLE_EQ(lane.trace[0].measuredWatts[0], 40.0);
}

} // namespace
} // namespace tdp
