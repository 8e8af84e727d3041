#include "core/trainer.hpp"

#include <cstdio>
#include <unordered_set>

#include "nn/optim.hpp"
#include "nn/schedule.hpp"
#include "tensor/error.hpp"
#include "tensor/ops.hpp"

namespace pit::core {

namespace {

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

double train_epoch(nn::Module& model, const LossFn& loss,
                   data::DataLoader& train, const std::function<void()>& update,
                   const std::function<Tensor()>& extra,
                   const std::function<void()>& before_batch) {
  model.train();
  train.reshuffle();
  double total = 0.0;
  index_t examples = 0;
  for (index_t b = 0; b < train.num_batches(); ++b) {
    if (before_batch) {
      before_batch();
    }
    data::Batch batch = train.batch(b);
    model.zero_grad();
    Tensor task = loss(model.forward(batch.inputs), batch.targets);
    Tensor objective = extra ? add(task, extra()) : task;
    objective.backward();
    update();
    const index_t n = batch.inputs.dim(0);
    total += static_cast<double>(task.item()) * static_cast<double>(n);
    examples += n;
  }
  return examples > 0 ? total / static_cast<double>(examples) : 0.0;
}

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
  nn::Adam gamma_opt(gamma_params, options_.lr_gamma);
  const std::function<void()> step_weights = [&] { weight_opt.step(); };
  const std::function<void()> step_weights_and_gammas = [&] {
    weight_opt.step();
    gamma_opt.step();
    for (PITConv1d* layer : pit_layers_) {
      layer->gamma().clamp_values();  // BinaryConnect housekeeping
    }
  };
  const std::function<Tensor()> regularizer = [&] {
    return options_.cost == CostKind::kSize
               ? size_regularizer(pit_layers_, options_.lambda)
               : flops_regularizer(pit_layers_, options_.lambda,
                                   t_out_per_layer_);
  };
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

  // Warmup trains the weights on the task loss for a fixed budget.
  // Pruning trains weights and gammas on L_PIT, fine-tuning the weights
  // alone with the binarized gammas frozen; both end once the validation
  // loss stops improving.
  struct PhaseBudget {
    Phase phase;
    int max_epochs;
    double* seconds;
  };
  for (const PhaseBudget& p :
       {PhaseBudget{Phase::kWarmup, options_.warmup_epochs,
                    &result.warmup_seconds},
        PhaseBudget{Phase::kPruning, options_.max_prune_epochs,
                    &result.prune_seconds},
        PhaseBudget{Phase::kFineTune, options_.finetune_epochs,
                    &result.finetune_seconds}}) {
    const auto start = Clock::now();
    const bool pruning = p.phase == Phase::kPruning;
    const bool finetune = p.phase == Phase::kFineTune;
    nn::EarlyStopping stopping(options_.patience);
    if (finetune) {
      for (PITConv1d* layer : pit_layers_) {
        layer->freeze_gamma();
      }
      stopping.observe(evaluate_loss(model_, loss_, val), model_);
    }
    for (int e = 0; e < p.max_epochs; ++e) {
      const double tl = train_epoch(
          model_, loss_, train, pruning ? step_weights_and_gammas : step_weights,
          pruning ? regularizer : nullptr);
      const double vl = evaluate_loss(model_, loss_, val);
      record(p.phase, tl, vl);
      if (p.phase == Phase::kWarmup) {
        continue;
      }
      // Pruning keeps its converged state: restoring the best-validation
      // snapshot would typically resurrect the un-pruned gammas of the
      // first epochs, and the fine-tune recovers the accuracy lost to
      // pruning (Algorithm 1). So it tracks the metric without snapshots.
      if (finetune) {
        stopping.observe(vl, model_);
      } else {
        stopping.observe(vl);
      }
      if (stopping.should_stop()) {
        break;
      }
    }
    if (finetune) {
      stopping.restore_best(model_);
      result.val_loss = stopping.best_metric();
    }
    *p.seconds = seconds_since(start);
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
  const std::function<void()> step = [&] { opt.step(); };
  for (int e = 0; e < options.max_epochs; ++e) {
    const double tl = train_epoch(model, loss, train, step);
    const double vl = evaluate_loss(model, loss, val);
    ++result.epochs_run;
    if (options.verbose) {
      std::printf("  [plain] epoch %3d  train %.4f  val %.4f\n", e, tl, vl);
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
