#include "core/trainer.hpp"

#include <chrono>
#include <cstdio>
#include <unordered_set>

#include "nn/optim.hpp"
#include "nn/schedule.hpp"
#include "tensor/error.hpp"
#include "tensor/ops.hpp"

namespace pit::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One optimization epoch; returns the average (possibly regularized)
/// training loss. `gamma_opt` may be null (phases 1 and 3).
double run_epoch(nn::Module& model, const LossFn& loss,
                 data::DataLoader& train, nn::Optimizer& weight_opt,
                 nn::Optimizer* gamma_opt,
                 const std::vector<PITConv1d*>& pit_layers,
                 const PitTrainerOptions& options,
                 const std::vector<index_t>& t_out_per_layer,
                 bool with_regularizer) {
  model.train();
  train.reshuffle();
  double total = 0.0;
  index_t examples = 0;
  for (index_t b = 0; b < train.num_batches(); ++b) {
    data::Batch batch = train.batch(b);
    model.zero_grad();
    Tensor pred = model.forward(batch.inputs);
    Tensor task = loss(pred, batch.targets);
    Tensor objective = task;
    if (with_regularizer) {
      Tensor reg = options.cost == CostKind::kSize
                       ? size_regularizer(pit_layers, options.lambda)
                       : flops_regularizer(pit_layers, options.lambda,
                                           t_out_per_layer);
      objective = add(task, reg);
    }
    objective.backward();
    weight_opt.step();
    if (gamma_opt != nullptr) {
      gamma_opt->step();
      for (PITConv1d* layer : pit_layers) {
        layer->gamma().clamp_values();  // BinaryConnect housekeeping
      }
    }
    const index_t n = batch.inputs.dim(0);
    total += static_cast<double>(task.item()) * static_cast<double>(n);
    examples += n;
  }
  return examples > 0 ? total / static_cast<double>(examples) : 0.0;
}

std::vector<index_t> current_dilations(
    const std::vector<PITConv1d*>& pit_layers) {
  std::vector<index_t> out;
  out.reserve(pit_layers.size());
  for (const PITConv1d* layer : pit_layers) {
    out.push_back(layer->current_dilation());
  }
  return out;
}

void log_epoch(const PitTrainerOptions& options, const EpochStats& stats) {
  if (!options.verbose) {
    return;
  }
  const char* phase = stats.phase == Phase::kWarmup    ? "warmup"
                      : stats.phase == Phase::kPruning ? "prune "
                                                       : "finetune";
  std::printf("  [%s] epoch %3d  train %.4f  val %.4f  params %lld\n", phase,
              stats.epoch, stats.train_loss, stats.val_loss,
              static_cast<long long>(stats.searchable_params));
}

}  // namespace

double evaluate_loss(nn::Module& model, const LossFn& loss,
                     data::DataLoader& loader) {
  const bool was_training = model.is_training();
  model.eval();
  double total = 0.0;
  index_t examples = 0;
  {
    NoGradGuard no_grad;
    for (index_t b = 0; b < loader.num_batches(); ++b) {
      data::Batch batch = loader.batch(b);
      Tensor pred = model.forward(batch.inputs);
      const index_t n = batch.inputs.dim(0);
      total += static_cast<double>(loss(pred, batch.targets).item()) *
               static_cast<double>(n);
      examples += n;
    }
  }
  if (was_training) {
    model.train();
  }
  return examples > 0 ? total / static_cast<double>(examples) : 0.0;
}

PitTrainer::PitTrainer(nn::Module& model, std::vector<PITConv1d*> pit_layers,
                       LossFn loss, const PitTrainerOptions& options,
                       std::vector<index_t> t_out_per_layer)
    : model_(model),
      pit_layers_(std::move(pit_layers)),
      loss_(std::move(loss)),
      options_(options),
      t_out_per_layer_(std::move(t_out_per_layer)) {
  PIT_CHECK(!pit_layers_.empty(), "PitTrainer: no PIT layers to optimize");
  PIT_CHECK(options.lambda >= 0.0, "PitTrainer: lambda must be >= 0");
  PIT_CHECK(options.warmup_epochs >= 0 && options.max_prune_epochs >= 0 &&
                options.finetune_epochs >= 0,
            "PitTrainer: negative epoch budget");
  PIT_CHECK(options.patience >= 1, "PitTrainer: patience must be >= 1");
  if (options.cost == CostKind::kFlops) {
    PIT_CHECK(t_out_per_layer_.size() == pit_layers_.size(),
              "PitTrainer: FLOPs cost needs t_out per searchable layer");
  }
}

PitTrainingResult PitTrainer::run(data::DataLoader& train,
                                  data::DataLoader& val) {
  // Every batch frees and re-allocates the same buffer sizes: recycle them
  // on this thread for the whole run instead of faulting pages in again.
  const BufferRecycleScope recycle;
  PitTrainingResult result;
  const auto overall_start = Clock::now();

  // Split parameters: gamma tensors get their own optimizer so phases can
  // enable/disable architecture updates independently of weight updates.
  std::unordered_set<const TensorImpl*> gamma_impls;
  std::vector<Tensor> gamma_params;
  for (PITConv1d* layer : pit_layers_) {
    if (layer->gamma().num_trainable() > 0) {
      gamma_params.push_back(layer->gamma().values());
      gamma_impls.insert(layer->gamma().values().impl().get());
    }
  }
  std::vector<Tensor> weight_params;
  for (const Tensor& p : model_.parameters()) {
    if (gamma_impls.find(p.impl().get()) == gamma_impls.end()) {
      weight_params.push_back(p);
    }
  }

  nn::Adam weight_opt(weight_params, options_.lr_weights);
  int global_epoch = 0;
  auto record = [&](Phase phase, double train_loss, double val_loss) {
    EpochStats stats;
    stats.phase = phase;
    stats.epoch = global_epoch++;
    stats.train_loss = train_loss;
    stats.val_loss = val_loss;
    stats.dilations = current_dilations(pit_layers_);
    stats.searchable_params = total_effective_params(pit_layers_);
    log_epoch(options_, stats);
    result.history.push_back(std::move(stats));
  };

  // ---- Phase 1: warmup (weights only, task loss only). -------------------
  {
    const auto start = Clock::now();
    for (int e = 0; e < options_.warmup_epochs; ++e) {
      const double tl = run_epoch(model_, loss_, train, weight_opt, nullptr,
                                  pit_layers_, options_, t_out_per_layer_,
                                  /*with_regularizer=*/false);
      record(Phase::kWarmup, tl, evaluate_loss(model_, loss_, val));
    }
    result.warmup_seconds = seconds_since(start);
  }

  // ---- Phase 2: concurrent weight + gamma updates with L_PIT. ------------
  {
    const auto start = Clock::now();
    nn::Adam gamma_opt(gamma_params, options_.lr_gamma);
    nn::EarlyStopping stopping(options_.patience);
    for (int e = 0; e < options_.max_prune_epochs; ++e) {
      const double tl = run_epoch(model_, loss_, train, weight_opt,
                                  &gamma_opt, pit_layers_, options_,
                                  t_out_per_layer_, /*with_regularizer=*/true);
      const double vl = evaluate_loss(model_, loss_, val);
      record(Phase::kPruning, tl, vl);
      stopping.observe(vl, model_);
      if (stopping.should_stop()) {
        break;
      }
    }
    // The converged (pruned) state is kept as-is: restoring the
    // best-validation snapshot here would typically resurrect the
    // un-pruned gammas from the first epochs. Accuracy lost to pruning is
    // recovered by the fine-tuning phase, as in the paper's Algorithm 1.
    result.prune_seconds = seconds_since(start);
  }

  // ---- Phase 3: freeze binarized gammas, fine-tune weights. --------------
  {
    const auto start = Clock::now();
    for (PITConv1d* layer : pit_layers_) {
      layer->freeze_gamma();
    }
    nn::EarlyStopping stopping(options_.patience);
    stopping.observe(evaluate_loss(model_, loss_, val), model_);
    for (int e = 0; e < options_.finetune_epochs; ++e) {
      const double tl = run_epoch(model_, loss_, train, weight_opt, nullptr,
                                  pit_layers_, options_, t_out_per_layer_,
                                  /*with_regularizer=*/false);
      const double vl = evaluate_loss(model_, loss_, val);
      record(Phase::kFineTune, tl, vl);
      stopping.observe(vl, model_);
      if (stopping.should_stop()) {
        break;
      }
    }
    stopping.restore_best(model_);
    result.finetune_seconds = seconds_since(start);
    result.val_loss = stopping.best_metric();
  }

  result.dilations = current_dilations(pit_layers_);
  result.searchable_params = total_effective_params(pit_layers_);
  result.total_seconds = seconds_since(overall_start);
  return result;
}

PlainTrainingResult train_supervised(nn::Module& model, const LossFn& loss,
                                     data::DataLoader& train,
                                     data::DataLoader& val,
                                     std::vector<Tensor> params,
                                     const PlainTrainingOptions& options) {
  PIT_CHECK(options.max_epochs >= 1, "train_supervised: max_epochs >= 1");
  PIT_CHECK(options.patience >= 1, "train_supervised: patience >= 1");
  // Same recycling as PitTrainer::run, so Fig. 5's ratio of search to
  // plain training compares like with like.
  const BufferRecycleScope recycle;
  const auto start = Clock::now();
  nn::Adam opt(std::move(params), options.lr);
  nn::EarlyStopping stopping(options.patience);
  PlainTrainingResult result;
  for (int e = 0; e < options.max_epochs; ++e) {
    model.train();
    train.reshuffle();
    double total = 0.0;
    index_t examples = 0;
    for (index_t b = 0; b < train.num_batches(); ++b) {
      data::Batch batch = train.batch(b);
      model.zero_grad();
      Tensor objective = loss(model.forward(batch.inputs), batch.targets);
      objective.backward();
      opt.step();
      const index_t n = batch.inputs.dim(0);
      total += static_cast<double>(objective.item()) * static_cast<double>(n);
      examples += n;
    }
    const double vl = evaluate_loss(model, loss, val);
    ++result.epochs_run;
    if (options.verbose) {
      std::printf("  [plain] epoch %3d  train %.4f  val %.4f\n", e,
                  total / static_cast<double>(examples), vl);
    }
    stopping.observe(vl, model);
    if (stopping.should_stop()) {
      break;
    }
  }
  stopping.restore_best(model);
  result.best_val_loss = stopping.best_metric();
  result.seconds = seconds_since(start);
  return result;
}

}  // namespace pit::core
