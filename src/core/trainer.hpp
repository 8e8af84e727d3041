// PIT training procedure (paper Algorithm 1).
//
// Phase 1 (warmup): all gammas start at 1; only the weights are trained on
// the task loss for a fixed number of epochs.
// Phase 2 (pruning): weights and gammas are updated concurrently on
// L_PIT = L_perf(W) + L_R(gamma) until the validation loss stops improving.
// Phase 3 (fine-tune): gammas are binarized and frozen; the dilated network
// is fine-tuned on the task loss alone with early stopping.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "core/pit_conv1d.hpp"
#include "core/regularizer.hpp"
#include "data/dataloader.hpp"
#include "nn/module.hpp"

namespace pit::core {

/// Task loss: maps (prediction, target) to a scalar tensor.
using LossFn = std::function<Tensor(const Tensor&, const Tensor&)>;

/// The trainers' wall clock: phase and run timings.
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One training epoch: the step every trainer runs (PIT's three phases,
/// plain training and the ProxylessNAS weight pass). Sets training mode and
/// reshuffles `train`; then, per batch: `before_batch` (if set; ProxylessNAS
/// samples a path there), zero the gradients, forward, `loss` — called
/// exactly once per batch — plus `extra()` (if set; PIT's regularizer),
/// backward, and `update` (the optimizer steps, plus whatever must follow
/// them). Returns the batch-size-weighted mean task loss, without `extra`.
///
/// Opens no BufferRecycleScope: each trainer opens one for its whole run,
/// so buffers are recycled across epochs and phases.
double train_epoch(nn::Module& model, const LossFn& loss,
                   data::DataLoader& train, const std::function<void()>& update,
                   const std::function<Tensor()>& extra = nullptr,
                   const std::function<void()>& before_batch = nullptr);

enum class Phase { kWarmup, kPruning, kFineTune };

struct EpochStats {
  Phase phase = Phase::kWarmup;
  int epoch = 0;  // global epoch index across phases
  double train_loss = 0.0;
  double val_loss = 0.0;
  std::vector<index_t> dilations;
  index_t searchable_params = 0;
};

struct PitTrainerOptions {
  double lambda = 1e-6;          // regularization strength (Eq. 6)
  CostKind cost = CostKind::kSize;
  int warmup_epochs = 5;         // Steps_wu, in epochs
  int max_prune_epochs = 60;     // safety bound on the pruning loop
  int finetune_epochs = 30;      // Steps_ft upper bound
  int patience = 5;              // convergence criterion (both phases 2, 3)
  double lr_weights = 1e-3;      // Adam on W
  double lr_gamma = 1e-2;        // Adam on gamma_hat
  bool verbose = false;
};

struct PitTrainingResult {
  std::vector<index_t> dilations;      // learned, one per searchable conv
  double val_loss = 0.0;               // after fine-tuning (best)
  index_t searchable_params = 0;       // effective params of PIT layers
  double warmup_seconds = 0.0;
  double prune_seconds = 0.0;
  double finetune_seconds = 0.0;
  double total_seconds = 0.0;
  std::vector<EpochStats> history;
};

/// Runs Algorithm 1 on a model whose searchable convs are PITConv1d layers.
class PitTrainer {
 public:
  /// `model` must own the layers in `pit_layers`. For CostKind::kFlops,
  /// `t_out_per_layer` must give each searchable conv's output time steps.
  PitTrainer(nn::Module& model, std::vector<PITConv1d*> pit_layers,
             LossFn loss, const PitTrainerOptions& options,
             std::vector<index_t> t_out_per_layer = {});

  PitTrainingResult run(data::DataLoader& train, data::DataLoader& val);

 private:
  nn::Module& model_;
  std::vector<PITConv1d*> pit_layers_;
  LossFn loss_;
  PitTrainerOptions options_;
  std::vector<index_t> t_out_per_layer_;
};

/// Average task loss over a loader (eval mode, no grad, weighted by batch
/// size). Restores training mode before returning.
double evaluate_loss(nn::Module& model, const LossFn& loss,
                     data::DataLoader& loader);

struct PlainTrainingOptions {
  int max_epochs = 50;
  int patience = 5;
  double lr = 1e-3;
  bool verbose = false;
};

struct PlainTrainingResult {
  double best_val_loss = 0.0;
  int epochs_run = 0;
  double seconds = 0.0;
};

/// Ordinary supervised training with early stopping over the given
/// parameters (the "No-NAS training" baseline of Fig. 5; also used for the
/// warmup and fine-tuning phases). Restores the best weights at the end.
PlainTrainingResult train_supervised(nn::Module& model, const LossFn& loss,
                                     data::DataLoader& train,
                                     data::DataLoader& val,
                                     std::vector<Tensor> params,
                                     const PlainTrainingOptions& options);

}  // namespace pit::core
