/**
 * @file
 * Chipset power domain.
 *
 * The paper's chipset rail is nearly constant but cannot be measured
 * directly: it is derived from multiple power domains whose
 * relationship is workload-dependent and non-deterministic (section
 * 4.2.5), which is why the paper settles for a constant 19.9 W model
 * and still reports sizeable relative errors. This component
 * reproduces that behaviour: a constant core power plus the running
 * workload mix's crosstalk bias plus a slow wander.
 */

#ifndef TDP_PLATFORM_CHIPSET_HH
#define TDP_PLATFORM_CHIPSET_HH

#include <string>

#include "common/random.hh"
#include "cpu/cpu_complex.hh"
#include "sim/sim_object.hh"
#include "sim/system.hh"

namespace tdp {

/** The chipset (processor-interface chips) power domain. */
class ChipsetPower : public SimObject, public Ticked
{
  public:
    /** Configuration. */
    struct Params
    {
        /** Nominal domain power (W). */
        double basePower = 19.9;

        /** Slow wander sigma (W). */
        double wanderSigma = 0.05;

        /** Wander time constant (s). */
        double wanderTau = 45.0;
    };

    ChipsetPower(System &system, const std::string &name,
                 CpuComplex &cpus, const Params &params);

    /** Chipset rail power of the last quantum (W). */
    Watts lastPower() const { return lastPower_; }

    void tickUpdate(Tick now, Tick quantum) override;

  private:
    Params params_;
    CpuComplex &cpus_;
    Rng rng_;
    double wander_ = 0.0;
    // sigma * sqrt(2 dt / tau) of the last quantum's dt.
    Seconds wanderDt_ = 0.0;
    double wanderKick_ = 0.0;
    Watts lastPower_;
};

} // namespace tdp

#endif // TDP_PLATFORM_CHIPSET_HH
