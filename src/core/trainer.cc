/**
 * @file
 * Implementation of the model trainer.
 */

#include "core/trainer.hh"

#include <cmath>

#include "common/logging.hh"
#include "obs/span_tracer.hh"
#include "obs/stats_registry.hh"

namespace tdp {

uint64_t
TrainingReport::totalDiscarded() const
{
    uint64_t acc = 0;
    for (const RailCleaning &rail : rails)
        acc += rail.discarded();
    return acc;
}

std::string
TrainingReport::describe() const
{
    std::string text;
    for (int r = 0; r < numRails; ++r) {
        const RailCleaning &c = rails[static_cast<size_t>(r)];
        text += formatString(
            "%-8s kept %llu, discarded %llu non-finite + %llu "
            "outlier\n",
            railName(static_cast<Rail>(r)),
            static_cast<unsigned long long>(c.kept),
            static_cast<unsigned long long>(c.discardedNonFinite),
            static_cast<unsigned long long>(c.discardedOutlier));
    }
    return text;
}

namespace {

/** Comma-joined rail names with registered traces, or "none". */
std::string
registeredRails(const std::map<int, SampleTrace> &traces)
{
    std::string names;
    for (const auto &entry : traces) {
        if (!names.empty())
            names += ", ";
        names += railName(static_cast<Rail>(entry.first));
    }
    return names.empty() ? std::string("none") : names;
}

} // namespace

void
ModelTrainer::setTrainingTrace(Rail rail, const SampleTrace &trace)
{
    if (trace.empty())
        fatal("ModelTrainer: empty training trace for %s",
              railName(rail));
    traces_[static_cast<int>(rail)] = trace;
}

bool
ModelTrainer::complete() const
{
    for (int r = 0; r < numRails; ++r)
        if (traces_.find(r) == traces_.end())
            return false;
    return true;
}

const SampleTrace &
ModelTrainer::trainingTrace(Rail rail) const
{
    auto it = traces_.find(static_cast<int>(rail));
    if (it == traces_.end())
        fatal("ModelTrainer: no training trace registered for rail "
              "%s; registered rails: %s. Register one with "
              "setTrainingTrace(Rail::%s, trace).",
              railName(rail), registeredRails(traces_).c_str(),
              railName(rail));
    return it->second;
}

bool
ModelTrainer::usable(const AlignedSample &sample, Rail rail,
                     TrainingReport::RailCleaning &counts) const
{
    const double w = sample.measured(rail);
    if (!std::isfinite(w)) {
        ++counts.discardedNonFinite;
        return false;
    }
    if (w < policy_.minPlausibleWatts || w > policy_.maxPlausibleWatts) {
        ++counts.discardedOutlier;
        return false;
    }
    ++counts.kept;
    return true;
}

SampleTrace
ModelTrainer::cleanTrace(const SampleTrace &trace, Rail rail,
                         TrainingReport::RailCleaning &counts) const
{
    SampleTrace clean;
    for (const AlignedSample &sample : trace.samples()) {
        if (usable(sample, rail, counts))
            clean.add(AlignedSample(sample));
    }
    return clean;
}

TrainingReport
ModelTrainer::train(SystemPowerEstimator &estimator) const
{
    TrainingReport report;
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        auto it = traces_.find(r);
        if (it == traces_.end())
            fatal("ModelTrainer: no training trace registered for "
                  "rail %s; registered rails: %s. Register one with "
                  "setTrainingTrace(Rail::%s, trace).",
                  railName(rail), registeredRails(traces_).c_str(),
                  railName(rail));
        auto &counts = report.rails[static_cast<size_t>(r)];
        obs::TraceSpan span(
            "train", std::string("fit:") + railName(rail));
        // Scan first: a trace with nothing to discard (every paper
        // run) is fitted as registered, without a scrubbed copy.
        for (const AlignedSample &sample : it->second.samples())
            usable(sample, rail, counts);
        SampleTrace scrubbed;
        if (counts.discarded() > 0) {
            TrainingReport::RailCleaning recount;
            scrubbed = cleanTrace(it->second, rail, recount);
        }
        const SampleTrace &clean =
            counts.discarded() > 0 ? scrubbed : it->second;
        if (clean.empty())
            fatal("ModelTrainer: every sample of the %s training "
                  "trace was discarded (%llu non-finite, %llu "
                  "outlier); the measurement run is unusable",
                  railName(rail),
                  static_cast<unsigned long long>(
                      counts.discardedNonFinite),
                  static_cast<unsigned long long>(
                      counts.discardedOutlier));
        if (counts.discarded() > 0)
            warn("ModelTrainer: discarded %llu of %llu %s training "
                 "samples (%llu non-finite, %llu outlier)",
                 static_cast<unsigned long long>(counts.discarded()),
                 static_cast<unsigned long long>(it->second.size()),
                 railName(rail),
                 static_cast<unsigned long long>(
                     counts.discardedNonFinite),
                 static_cast<unsigned long long>(
                     counts.discardedOutlier));
        estimator.trainRail(rail, clean);
        span.arg("kept", static_cast<double>(counts.kept));
        auto &reg = obs::StatsRegistry::global();
        if (reg.enabled()) {
            const std::string prefix =
                std::string("train.") + railName(rail);
            reg.addNamed(prefix + ".kept", counts.kept);
            reg.addNamed(prefix + ".discarded", counts.discarded());
        }
    }
    return report;
}

} // namespace tdp
