// Training-loop utilities: early stopping and learning-rate schedules.
#pragma once

#include <limits>
#include <vector>

#include "nn/module.hpp"
#include "nn/optim.hpp"

namespace pit::nn {

/// Tracks a validation metric (lower is better), remembers the best model
/// state, and signals when `patience` epochs pass without improvement —
/// the convergence criterion used by the paper's pruning phase.
class EarlyStopping {
 public:
  explicit EarlyStopping(int patience, double min_delta = 0.0);

  /// Records one validation result; returns true if it was an
  /// improvement. Takes no snapshot, so restore_best() needs at least one
  /// call of the two-argument form.
  bool observe(double metric);

  /// observe(metric), and snapshots `model` on an improvement and on the
  /// first observation.
  bool observe(double metric, const Module& model);

  bool should_stop() const { return stale_epochs_ >= patience_; }
  double best_metric() const { return best_metric_; }
  int stale_epochs() const { return stale_epochs_; }

  /// Restores the best observed parameters into `model`.
  void restore_best(Module& model) const;

 private:
  int patience_;
  double min_delta_;
  double best_metric_ = std::numeric_limits<double>::infinity();
  int stale_epochs_ = 0;
  std::vector<Tensor> best_state_;
};

/// Multiplies the optimizer learning rate by `gamma` every `step_size` epochs.
class StepLR {
 public:
  StepLR(Optimizer& optimizer, int step_size, double gamma);

  /// Call once per epoch.
  void step();

  int epoch() const { return epoch_; }

 private:
  Optimizer& optimizer_;
  int step_size_;
  double gamma_;
  int epoch_ = 0;
};

}  // namespace pit::nn
