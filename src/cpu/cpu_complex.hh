/**
 * @file
 * CPU complex: the SMP of physical packages. Orchestrates per-core
 * execution each quantum, attributes snooped DMA traffic, distributes
 * driver MMIO work, pushes bus transactions, and aggregates the
 * CPU-rail ground-truth power.
 */

#ifndef TDP_CPU_CPU_COMPLEX_HH
#define TDP_CPU_CPU_COMPLEX_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cpu_core.hh"
#include "io/interrupt_controller.hh"
#include "io/io_chip.hh"
#include "memory/bus.hh"
#include "memory/controller.hh"
#include "os/operating_system.hh"
#include "os/scheduler.hh"
#include "os/virtual_memory.hh"
#include "sim/sim_object.hh"
#include "sim/system.hh"

namespace tdp {

/** The SMP processor complex. */
class CpuComplex : public SimObject, public Ticked
{
  public:
    /** Configuration. */
    struct Params
    {
        /** Number of physical packages. */
        int coreCount = 4;

        /** Per-package configuration. */
        CpuCore::Params core;
    };

    /** Source of pending driver MMIO accesses to execute. */
    using MmioSource = std::function<double()>;

    CpuComplex(System &system, const std::string &name,
               Scheduler &scheduler, OperatingSystem &os,
               VirtualMemory &vm, FrontSideBus &bus,
               MemoryController &mem_controller,
               InterruptController &irq_controller, IoChipComplex &chips,
               const Params &params);

    /** Register a producer of driver MMIO work (e.g. disk HBA). */
    void addMmioSource(MmioSource source);

    /** Number of packages. */
    int coreCount() const { return static_cast<int>(cores_.size()); }

    /** Access one package. */
    CpuCore &core(int index);

    /** Access one package. */
    const CpuCore &core(int index) const;

    /** CPU rail power summed over packages, last quantum (W). */
    Watts lastPower() const { return lastPower_; }

    /** Chipset crosstalk term of the running mix, last quantum (W). */
    Watts lastChipsetCrosstalk() const { return lastCrosstalk_; }

    void tickUpdate(Tick now, Tick quantum) override;

  private:
    Params params_;
    Scheduler &scheduler_;
    OperatingSystem &os_;
    VirtualMemory &vm_;
    FrontSideBus &bus_;
    MemoryController &memController_;
    InterruptController &irqController_;
    IoChipComplex &chips_;
    std::vector<std::unique_ptr<CpuCore>> cores_;
    std::vector<MmioSource> mmioSources_;
    // One per core, reused each quantum: the runnable sets, demand
    // snapshots and stall factors keep their capacity across quanta.
    std::vector<CoreQuantumInputs> coreInputs_;
    Watts lastPower_ = 0.0;
    Watts lastCrosstalk_ = 0.0;
};

} // namespace tdp

#endif // TDP_CPU_CPU_COMPLEX_HH
