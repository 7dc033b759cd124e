/**
 * @file
 * Implementation of the data-acquisition unit.
 */

#include "measure/daq.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tdp {

DataAcquisition::DataAcquisition(System &system, const std::string &name,
                                 const Params &params,
                                 FaultInjector *faults)
    : SimObject(system, name), params_(params), faults_(faults)
{
    if (params_.conversionRateHz <= 0.0)
        fatal("DataAcquisition: conversion rate must be positive");
    system.addTicked(this, TickPhase::Measure);
}

void
DataAcquisition::attachRail(Rail rail, std::function<Watts()> provider)
{
    const int idx = static_cast<int>(rail);
    const std::string channel_name =
        name() + "." + railName(rail);
    rails_[static_cast<size_t>(idx)] = std::make_unique<RailChannel>(
        channel_name, std::move(provider),
        params_.rail[static_cast<size_t>(idx)],
        system().makeRng(channel_name));
}

void
DataAcquisition::syncPulse()
{
    pulses_.push_back(system().now());
    ++pulseCount_;
}

void
DataAcquisition::tickUpdate(Tick now, Tick quantum)
{
    const Seconds dt = ticksToSeconds(quantum);
    const int conversions = std::max(
        1, static_cast<int>(params_.conversionRateHz * dt + 0.5));

    DaqBlock block;
    block.start = now;
    block.length = quantum;
    for (int r = 0; r < numRails; ++r) {
        auto &rail = rails_[static_cast<size_t>(r)];
        if (!rail)
            fatal("DataAcquisition: rail %s never attached",
                  railName(static_cast<Rail>(r)));
        block.watts[static_cast<size_t>(r)] = static_cast<float>(
            rail->sampleAverage(dt, conversions));
    }
    recordedUntil_ = now + quantum;
    if (faults_) {
        // The rail channels sampled above regardless, so the noise
        // streams stay aligned whether or not this block survives.
        if (faults_->dropBlock())
            return;
        const FaultInjector::Glitch glitch =
            faults_->blockGlitch(numRails);
        if (glitch.rail >= 0) {
            block.watts[static_cast<size_t>(glitch.rail)] =
                static_cast<float>(glitch.value);
        }
    }
    blocks_.push_back(block);
}

} // namespace tdp
