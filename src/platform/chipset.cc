/**
 * @file
 * Implementation of the chipset power domain.
 */

#include "platform/chipset.hh"

#include <cmath>

namespace tdp {

ChipsetPower::ChipsetPower(System &system, const std::string &name,
                           CpuComplex &cpus, const Params &params)
    : SimObject(system, name), params_(params), cpus_(cpus),
      rng_(system.makeRng(name)), lastPower_(params.basePower)
{
    system.addTicked(this, TickPhase::Power);
}

void
ChipsetPower::tickUpdate(Tick /* now */, Tick quantum)
{
    const Seconds dt = ticksToSeconds(quantum);
    const double tau = params_.wanderTau;
    if (dt != wanderDt_) {
        wanderDt_ = dt;
        wanderKick_ = params_.wanderSigma * std::sqrt(2.0 * dt / tau);
    }
    wander_ += -wander_ * dt / tau + wanderKick_ * rng_.gaussian();
    lastPower_ = params_.basePower + cpus_.lastChipsetCrosstalk() +
                 wander_;
}

} // namespace tdp
