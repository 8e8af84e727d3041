#include "nn/schedule.hpp"

#include <cmath>

#include "tensor/error.hpp"

namespace pit::nn {

EarlyStopping::EarlyStopping(int patience, double min_delta)
    : patience_(patience), min_delta_(min_delta) {
  PIT_CHECK(patience >= 1, "EarlyStopping: patience must be >= 1");
  PIT_CHECK(min_delta >= 0.0, "EarlyStopping: min_delta must be >= 0");
}

bool EarlyStopping::observe(double metric) {
  // NaN (a diverged validation loss) never compares below best_metric_, so
  // it counts as a stale epoch.
  if (!std::isnan(metric) && metric < best_metric_ - min_delta_) {
    best_metric_ = metric;
    stale_epochs_ = 0;
    return true;
  }
  ++stale_epochs_;
  return false;
}

bool EarlyStopping::observe(double metric, const Module& model) {
  // The first observation snapshots even when it is stale (NaN), or a run
  // whose every epoch diverges would leave restore_best() with nothing to
  // restore.
  const bool improved = observe(metric);
  if (improved || best_state_.empty()) {
    best_state_ = model.state_snapshot();
  }
  return improved;
}

void EarlyStopping::restore_best(Module& model) const {
  PIT_CHECK(!best_state_.empty(),
            "EarlyStopping::restore_best before any observation");
  model.load_snapshot(best_state_);
}

StepLR::StepLR(Optimizer& optimizer, int step_size, double gamma)
    : optimizer_(optimizer), step_size_(step_size), gamma_(gamma) {
  PIT_CHECK(step_size >= 1, "StepLR: step_size must be >= 1");
  PIT_CHECK(gamma > 0.0, "StepLR: gamma must be positive");
}

void StepLR::step() {
  ++epoch_;
  if (epoch_ % step_size_ == 0) {
    optimizer_.set_learning_rate(optimizer_.learning_rate() * gamma_);
  }
}

}  // namespace pit::nn
