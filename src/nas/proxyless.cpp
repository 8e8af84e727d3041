#include "nas/proxyless.hpp"

#include <cstdio>

#include "nn/optim.hpp"
#include "nn/schedule.hpp"
#include "tensor/error.hpp"

namespace pit::nas {

namespace {

using core::Clock;
using core::seconds_since;

void sample_all(const std::vector<MixedConv1d*>& layers, RandomEngine& rng) {
  for (MixedConv1d* layer : layers) {
    layer->sample_path(rng);
  }
}

void activate_best(const std::vector<MixedConv1d*>& layers) {
  for (MixedConv1d* layer : layers) {
    layer->set_active(layer->best_candidate());
  }
}

index_t active_params(const std::vector<MixedConv1d*>& layers) {
  index_t total = 0;
  for (const MixedConv1d* layer : layers) {
    total += layer->candidate_params(layer->active());
  }
  return total;
}

index_t max_params(const std::vector<MixedConv1d*>& layers) {
  index_t total = 0;
  for (const MixedConv1d* layer : layers) {
    index_t biggest = 0;
    for (index_t i = 0; i < layer->num_candidates(); ++i) {
      biggest = std::max(biggest, layer->candidate_params(i));
    }
    total += biggest;
  }
  return total;
}

}  // namespace

ProxylessTrainer::ProxylessTrainer(nn::Module& model,
                                   std::vector<MixedConv1d*> mixed_layers,
                                   core::LossFn loss,
                                   const ProxylessOptions& options)
    : model_(model),
      mixed_layers_(std::move(mixed_layers)),
      loss_(std::move(loss)),
      options_(options) {
  PIT_CHECK(!mixed_layers_.empty(), "ProxylessTrainer: no supernet layers");
  PIT_CHECK(options.lambda_size >= 0.0,
            "ProxylessTrainer: lambda_size must be >= 0");
  PIT_CHECK(options.patience >= 1, "ProxylessTrainer: patience must be >= 1");
  PIT_CHECK(options.arch_updates_per_epoch >= 1,
            "ProxylessTrainer: arch_updates_per_epoch must be >= 1");
}

ProxylessResult ProxylessTrainer::run(data::DataLoader& train,
                                      data::DataLoader& val) {
  // Recycles training buffers as PitTrainer::run does, so Fig. 5 compares
  // the two searches like with like (the fine-tune's scope nests in it).
  const BufferRecycleScope recycle;
  ProxylessResult result;
  const auto overall_start = Clock::now();
  RandomEngine path_rng(options_.sample_seed);
  nn::Adam weight_opt(model_.parameters(), options_.lr_weights);
  const std::function<void()> step_weights = [&] { weight_opt.step(); };
  const std::function<void()> sample_path = [&] {
    sample_all(mixed_layers_, path_rng);
  };
  const double size_norm = static_cast<double>(max_params(mixed_layers_));

  // ---- Search: single-path weight training + REINFORCE arch updates. -----
  {
    const auto start = Clock::now();
    nn::EarlyStopping stopping(options_.patience);
    double reward_baseline = 0.0;
    bool baseline_ready = false;
    std::vector<index_t> last_argmax;
    int stable_epochs = 0;
    for (int epoch = 0; epoch < options_.max_search_epochs; ++epoch) {
      // Weight pass: sample a fresh path per batch and train only it
      // (untouched candidates have zero grads).
      core::train_epoch(model_, loss_, train, step_weights, nullptr,
                        sample_path);
      // Architecture pass after warmup: REINFORCE on sampled paths scored
      // by validation loss + size cost.
      if (epoch >= options_.warmup_epochs) {
        for (int u = 0; u < options_.arch_updates_per_epoch; ++u) {
          sample_all(mixed_layers_, path_rng);
          const index_t vb = path_rng.randint(val.num_batches());
          data::Batch batch = val.batch(vb);
          model_.eval();
          double sampled_loss = 0.0;
          {
            NoGradGuard no_grad;
            sampled_loss =
                loss_(model_.forward(batch.inputs), batch.targets).item();
          }
          model_.train();
          const double size_cost =
              static_cast<double>(active_params(mixed_layers_)) / size_norm;
          const double reward =
              -(sampled_loss + options_.lambda_size * size_cost);
          if (!baseline_ready) {
            reward_baseline = reward;
            baseline_ready = true;
          }
          const double advantage = reward - reward_baseline;
          reward_baseline = 0.9 * reward_baseline + 0.1 * reward;
          for (MixedConv1d* layer : mixed_layers_) {
            layer->reinforce_update(advantage, options_.lr_alpha);
          }
        }
      }
      // Convergence check: the search is done only when the validation
      // loss of the argmax architecture has stopped improving AND the
      // argmax itself has been stable — candidates each receive ~1/N of
      // the weight updates, so the winning path keeps changing for many
      // epochs (the cost the paper measures in Fig. 5).
      activate_best(mixed_layers_);
      std::vector<index_t> argmax;
      argmax.reserve(mixed_layers_.size());
      for (MixedConv1d* layer : mixed_layers_) {
        argmax.push_back(layer->active());
      }
      const double vl = core::evaluate_loss(model_, loss_, val);
      ++result.search_epochs;
      if (options_.verbose) {
        std::printf("  [proxyless] epoch %3d  best-arch val %.4f\n", epoch,
                    vl);
      }
      stopping.observe(vl, model_);
      if (argmax == last_argmax) {
        ++stable_epochs;
      } else {
        stable_epochs = 0;
        last_argmax = std::move(argmax);
      }
      if (epoch >= options_.warmup_epochs && stopping.should_stop() &&
          stable_epochs >= options_.patience) {
        break;
      }
    }
    stopping.restore_best(model_);
    result.search_seconds = seconds_since(start);
  }

  // ---- Finalize: fine-tune the argmax architecture. -----------------------
  {
    activate_best(mixed_layers_);
    core::PlainTrainingOptions ft;
    ft.max_epochs = options_.finetune_epochs;
    ft.patience = options_.patience;
    ft.lr = options_.lr_weights;
    ft.verbose = options_.verbose;
    const auto ft_result = core::train_supervised(
        model_, loss_, train, val, model_.parameters(), ft);
    result.val_loss = ft_result.best_val_loss;
    result.finetune_seconds = ft_result.seconds;
  }

  result.dilations.reserve(mixed_layers_.size());
  for (MixedConv1d* layer : mixed_layers_) {
    result.dilations.push_back(layer->candidate_dilation(layer->active()));
  }
  result.searchable_params = active_params(mixed_layers_);
  result.total_seconds = seconds_since(overall_start);
  return result;
}

}  // namespace pit::nas
