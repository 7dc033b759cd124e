/**
 * @file
 * Measurement rig: the whole instrumentation harness of the paper's
 * methodology section in one object - sense resistors + DAQ on the
 * five rails, the on-target counter sampler with its serial sync
 * pulse, and the aligner producing the training/validation trace.
 * Alignment runs online, at every pulse, so the rig holds about two
 * sampling periods of DAQ blocks whatever the run length.
 */

#ifndef TDP_MEASURE_RIG_HH
#define TDP_MEASURE_RIG_HH

#include <functional>
#include <string>

#include <memory>

#include "cpu/cpu_complex.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "io/interrupt_controller.hh"
#include "measure/aligner.hh"
#include "measure/counter_sampler.hh"
#include "measure/daq.hh"
#include "measure/trace.hh"
#include "sim/sim_object.hh"
#include "sim/system.hh"

namespace tdp {

/** The complete measurement pipeline. */
class MeasurementRig : public SimObject
{
  public:
    /** Configuration of the pipeline. */
    struct Params
    {
        /** DAQ and per-rail sensing configuration. */
        DataAcquisition::Params daq = defaultDaqParams();

        /** Counter sampling configuration. */
        CounterSampler::Params sampler;

        /**
         * Measurement faults injected into this run (sampler, sync
         * pulse and DAQ boundaries). Disabled by default; a disabled
         * plan leaves the pipeline bit-identical to one with no
         * fault machinery at all.
         */
        FaultPlan faults;
    };

    /** Rail sensing defaults matching the paper's idle noise floor. */
    static DataAcquisition::Params defaultDaqParams();

    MeasurementRig(System &system, const std::string &name,
                   CpuComplex &cpus,
                   const InterruptController &irq_controller,
                   IrqVector disk_vector, IrqVector timer_vector,
                   const Params &params);

    /** Attach the true-power provider of one rail. */
    void attachRail(Rail rail, std::function<Watts()> provider);

    /**
     * Align everything recorded so far and return the trace. Callable
     * repeatedly; the trace grows monotonically. Windows are aligned
     * as pulses land, so this only flushes the trailing window.
     */
    const SampleTrace &collect();

    /** The trace aligned so far (without flushing the trailing window). */
    const SampleTrace &trace() const { return trace_; }

    /** The DAQ (for tests). */
    DataAcquisition &daq() { return daq_; }

    /** The aligner (recovery counters for orphans/resyncs). */
    const TraceAligner &aligner() const { return aligner_; }

    /** The fault injector; null when the plan is disabled. */
    const FaultInjector *faults() const { return faults_.get(); }

    /** Publish aligner recovery counters and DAQ pulse totals. */
    void recordStats(obs::StatsRegistry &stats) const override;

  private:
    /** Deliver one sync byte through the fault model, then align. */
    void emitPulse();

    /** Record a pulse now or after injected serial latency. */
    void deliverPulse();

    std::unique_ptr<FaultInjector> faults_;
    DataAcquisition daq_;
    CounterSampler sampler_;
    TraceAligner aligner_;
    SampleTrace trace_;
    /** Aligner totals at the previous collect(), for its span. */
    uint64_t alignedAtCollect_ = 0;
    uint64_t resyncedAtCollect_ = 0;
};

} // namespace tdp

#endif // TDP_MEASURE_RIG_HH
