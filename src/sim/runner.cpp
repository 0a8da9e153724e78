#include "sim/runner.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace scp {

ExperimentRunner::ExperimentRunner(std::uint64_t base_seed,
                                   std::uint32_t trials,
                                   std::string progress_label,
                                   std::uint32_t threads)
    : base_seed_(base_seed),
      trials_(trials),
      progress_label_(std::move(progress_label)),
      threads_(threads) {
  SCP_CHECK_MSG(trials >= 1, "need at least one trial");
  SCP_CHECK_MSG(threads >= 1, "need at least one thread");
}

std::uint64_t ExperimentRunner::trial_seed(std::uint32_t index) const {
  SCP_CHECK(index < trials_);
  return derive_seed(base_seed_, 0xa11ce000ULL + index);
}

std::vector<double> ExperimentRunner::run_parallel(
    const std::function<double(std::uint32_t, std::uint64_t)>& trial) const {
  // Each trial writes its own slot, so ordering (and therefore aggregation)
  // is independent of scheduling.
  std::vector<double> values(trials_);
  parallel_for(trials_, threads_, [&](std::size_t index, std::size_t) {
    const auto t = static_cast<std::uint32_t>(index);
    values[t] = trial(t, trial_seed(t));
  });
  // Per-trial progress from inside the workers would interleave; emit one
  // final summary line instead so parallel sweeps are not silent.
  if (!progress_label_.empty()) {
    SCP_LOG_INFO << progress_label_ << ": " << trials_ << "/" << trials_
                 << " trials (parallel, "
                 << parallel_workers(trials_, threads_) << " threads)";
  }
  return values;
}

std::vector<double> ExperimentRunner::run_indexed(
    const std::function<double(std::uint32_t, std::uint64_t)>& trial) const {
  SCP_CHECK(static_cast<bool>(trial));
  if (threads_ > 1) {
    return run_parallel(trial);
  }
  std::vector<double> values;
  values.reserve(trials_);
  const std::uint32_t report_every = std::max(1U, trials_ / 4);
  for (std::uint32_t t = 0; t < trials_; ++t) {
    values.push_back(trial(t, trial_seed(t)));
    if (!progress_label_.empty() &&
        ((t + 1) % report_every == 0 || t + 1 == trials_)) {
      SCP_LOG_INFO << progress_label_ << ": " << (t + 1) << "/" << trials_
                   << " trials";
    }
  }
  return values;
}

std::vector<double> ExperimentRunner::run(
    const std::function<double(std::uint64_t)>& trial) const {
  SCP_CHECK(static_cast<bool>(trial));
  return run_indexed(
      [&trial](std::uint32_t, std::uint64_t seed) { return trial(seed); });
}

Summary ExperimentRunner::run_summary(
    const std::function<double(std::uint64_t)>& trial) const {
  const std::vector<double> values = run(trial);
  return summarize(values);
}

}  // namespace scp
