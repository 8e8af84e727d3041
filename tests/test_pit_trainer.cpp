// Algorithm 1 end-to-end on a tiny learnable task.
//
// Task: y[t] = x[t-4] (a pure 4-step delay) over 1-channel sequences. A
// single PITConv1d with rf_max = 9 solves it exactly at any dilation in
// {1, 2, 4} (tap 4 alive) but NOT at d = 8; the size regularizer should
// therefore push the layer toward d = 4 — pruning 6 of 9 taps with no
// accuracy loss. This is the paper's core claim in miniature.
#include "core/trainer.hpp"

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstring>

#include "core/search.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "data/ppg_dalia.hpp"
#include "models/temponet.hpp"
#include "nn/losses.hpp"
#include "tensor/error.hpp"

namespace pit::core {
namespace {

class TinyDelayModel : public nn::Module {
 public:
  explicit TinyDelayModel(RandomEngine& rng)
      : conv_(1, 1, 9, {.stride = 1, .bias = false}, rng) {
    register_module("conv", &conv_);
  }
  Tensor forward(const Tensor& input) override { return conv_.forward(input); }
  PITConv1d conv_;
};

data::TensorDataset make_delay_dataset(index_t n, index_t t, index_t delay,
                                       std::uint64_t seed) {
  RandomEngine rng(seed);
  std::vector<Tensor> inputs;
  std::vector<Tensor> targets;
  for (index_t i = 0; i < n; ++i) {
    Tensor x = Tensor::randn(Shape{1, t}, rng);
    Tensor y = Tensor::zeros(Shape{1, t});
    for (index_t j = delay; j < t; ++j) {
      y.data()[j] = x.data()[j - delay];
    }
    inputs.push_back(std::move(x));
    targets.push_back(std::move(y));
  }
  return data::TensorDataset(std::move(inputs), std::move(targets));
}

LossFn mse() {
  return [](const Tensor& pred, const Tensor& target) {
    return nn::mse_loss(pred, target);
  };
}

TEST(PitTrainer, LearnsDelayAndPrunesTime) {
  RandomEngine rng(419);
  TinyDelayModel model(rng);
  auto train_ds = make_delay_dataset(48, 32, 4, 11);
  auto val_ds = make_delay_dataset(16, 32, 4, 12);
  data::DataLoader train(train_ds, 16, true, 1);
  data::DataLoader val(val_ds, 16, false);

  PitTrainerOptions options;
  options.lambda = 0.02;       // strong pull: favor large dilations
  options.warmup_epochs = 5;
  options.max_prune_epochs = 40;
  options.finetune_epochs = 20;
  options.patience = 6;
  options.lr_weights = 2e-2;
  options.lr_gamma = 3e-2;

  PitTrainer trainer(model, {&model.conv_}, mse(), options);
  const PitTrainingResult result = trainer.run(train, val);

  // The layer must have pruned the time axis (d > 1) without losing the
  // delay tap: d in {2, 4} and near-zero validation error.
  ASSERT_EQ(result.dilations.size(), 1u);
  EXPECT_GE(result.dilations[0], 2) << "regularizer failed to prune";
  EXPECT_LE(result.dilations[0], 4) << "pruned away the needed tap";
  EXPECT_LT(result.val_loss, 0.05);
  EXPECT_LT(result.searchable_params, 9);  // fewer than the 9 seed taps
  EXPECT_TRUE(model.conv_.gamma().frozen());
}

TEST(PitTrainer, ZeroLambdaStillLearnsTask) {
  RandomEngine rng(421);
  TinyDelayModel model(rng);
  auto train_ds = make_delay_dataset(48, 32, 4, 13);
  auto val_ds = make_delay_dataset(16, 32, 4, 14);
  data::DataLoader train(train_ds, 16, true, 2);
  data::DataLoader val(val_ds, 16, false);

  PitTrainerOptions options;
  options.lambda = 0.0;
  options.warmup_epochs = 3;
  options.max_prune_epochs = 25;
  options.finetune_epochs = 15;
  options.patience = 5;
  options.lr_weights = 2e-2;

  PitTrainer trainer(model, {&model.conv_}, mse(), options);
  const PitTrainingResult result = trainer.run(train, val);
  EXPECT_LT(result.val_loss, 0.05);
}

TEST(PitTrainer, HigherLambdaNeverYieldsMoreParams) {
  auto run_with_lambda = [](double lambda) {
    RandomEngine rng(431);
    TinyDelayModel model(rng);
    auto train_ds = make_delay_dataset(32, 32, 1, 15);
    auto val_ds = make_delay_dataset(16, 32, 1, 16);
    data::DataLoader train(train_ds, 16, true, 3);
    data::DataLoader val(val_ds, 16, false);
    PitTrainerOptions options;
    options.lambda = lambda;
    options.warmup_epochs = 2;
    options.max_prune_epochs = 25;
    options.finetune_epochs = 5;
    options.patience = 5;
    options.lr_weights = 2e-2;
    options.lr_gamma = 3e-2;
    PitTrainer trainer(model, {&model.conv_}, mse(), options);
    return trainer.run(train, val).searchable_params;
  };
  // Delay 1 only needs tap 1, which any dilation destroys except d=1; a
  // huge lambda prunes anyway, a zero lambda should not prune more.
  EXPECT_LE(run_with_lambda(1.0), run_with_lambda(0.0));
}

TEST(PitTrainer, HistoryCoversAllThreePhases) {
  RandomEngine rng(433);
  TinyDelayModel model(rng);
  auto train_ds = make_delay_dataset(16, 16, 2, 17);
  auto val_ds = make_delay_dataset(8, 16, 2, 18);
  data::DataLoader train(train_ds, 8, true, 4);
  data::DataLoader val(val_ds, 8, false);
  PitTrainerOptions options;
  options.warmup_epochs = 2;
  options.max_prune_epochs = 3;
  options.finetune_epochs = 2;
  options.patience = 10;  // no early exit: exact epoch counts
  PitTrainer trainer(model, {&model.conv_}, mse(), options);
  const auto result = trainer.run(train, val);
  int warmup = 0;
  int prune = 0;
  int finetune = 0;
  for (const EpochStats& s : result.history) {
    warmup += s.phase == Phase::kWarmup ? 1 : 0;
    prune += s.phase == Phase::kPruning ? 1 : 0;
    finetune += s.phase == Phase::kFineTune ? 1 : 0;
  }
  EXPECT_EQ(warmup, 2);
  EXPECT_EQ(prune, 3);
  EXPECT_EQ(finetune, 2);
  // Phase timings were recorded.
  EXPECT_GT(result.warmup_seconds, 0.0);
  EXPECT_GT(result.prune_seconds, 0.0);
  EXPECT_GT(result.finetune_seconds, 0.0);
  EXPECT_GE(result.total_seconds, result.warmup_seconds);
}

TEST(PitTrainer, DilationsStayWithinSupportedRange) {
  RandomEngine rng(439);
  TinyDelayModel model(rng);
  auto train_ds = make_delay_dataset(16, 16, 0, 19);
  auto val_ds = make_delay_dataset(8, 16, 0, 20);
  data::DataLoader train(train_ds, 8, true, 5);
  data::DataLoader val(val_ds, 8, false);
  PitTrainerOptions options;
  options.lambda = 10.0;  // prune everything possible
  options.warmup_epochs = 1;
  options.max_prune_epochs = 10;
  options.finetune_epochs = 2;
  options.patience = 10;
  PitTrainer trainer(model, {&model.conv_}, mse(), options);
  const auto result = trainer.run(train, val);
  EXPECT_LE(result.dilations[0], 8);  // max for rf 9
  EXPECT_GE(result.dilations[0], 1);
}

TEST(PitTrainer, FlopsCostVariantRuns) {
  RandomEngine rng(443);
  TinyDelayModel model(rng);
  auto train_ds = make_delay_dataset(16, 16, 2, 21);
  auto val_ds = make_delay_dataset(8, 16, 2, 22);
  data::DataLoader train(train_ds, 8, true, 6);
  data::DataLoader val(val_ds, 8, false);
  PitTrainerOptions options;
  options.cost = CostKind::kFlops;
  options.lambda = 1e-3;
  options.warmup_epochs = 1;
  options.max_prune_epochs = 4;
  options.finetune_epochs = 2;
  PitTrainer trainer(model, {&model.conv_}, mse(), options, {16});
  EXPECT_NO_THROW(trainer.run(train, val));
  // FLOPs cost without t_out information must be rejected.
  RandomEngine rng2(449);
  TinyDelayModel model2(rng2);
  EXPECT_THROW(PitTrainer(model2, {&model2.conv_}, mse(), options), Error);
}

TEST(PitTrainer, RejectsEmptyLayerList) {
  RandomEngine rng(457);
  TinyDelayModel model(rng);
  EXPECT_THROW(PitTrainer(model, {}, mse(), {}), Error);
}

TEST(PitTrainer, BitIdenticalAtOneTwoAndFourThreads) {
  // Half-width TempoNet at batch 16 over 128-step windows sends every
  // OpenMP loop of the training step (BatchNorm+ReLU, pooling, linear,
  // Adam, the mask chain, the blocked conv kernels) over its parallel
  // threshold. Each loop splits only independent outputs, so the thread
  // count must not move a single bit of the trained state.
#ifndef _OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  data::PpgDaliaDataset ppg(
      {.num_windows = 48, .window_len = 128, .seed = 467});
  data::SubsetDataset train_view(ppg, 0, 32);
  data::SubsetDataset val_view(ppg, 32, 16);
  models::TempoNetConfig config;
  config.channel_scale = 0.5;
  config.input_length = 128;
  PitTrainerOptions options;
  options.warmup_epochs = 1;
  options.max_prune_epochs = 2;
  options.finetune_epochs = 1;
  options.patience = 10;

  struct Outcome {
    std::vector<Tensor> state;
    std::vector<std::vector<float>> gammas;
    PitTrainingResult result;
  };
  const auto run = [&](int threads) {
    omp_set_num_threads(threads);
    RandomEngine rng(479);
    std::vector<PITConv1d*> layers;
    models::TempoNet model(config, pit_conv_factory(rng, layers), rng);
    data::DataLoader train(train_view, 16, true, 5);
    data::DataLoader val(val_view, 16, false);
    PitTrainer trainer(model, layers, mse(), options);
    Outcome out;
    out.result = trainer.run(train, val);
    out.state = model.state_snapshot();
    for (const PITConv1d* layer : layers) {
      const auto v = layer->gamma().values().span();
      out.gammas.emplace_back(v.begin(), v.end());
    }
    return out;
  };
  const auto same_bits = [](std::span<const float> a,
                            std::span<const float> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };

  const int saved = omp_get_max_threads();
  const Outcome one = run(1);
  for (const int threads : {2, 4}) {
    const Outcome many = run(threads);
    ASSERT_EQ(many.state.size(), one.state.size());
    for (std::size_t i = 0; i < one.state.size(); ++i) {
      EXPECT_TRUE(same_bits(one.state[i].span(), many.state[i].span()))
          << "state tensor " << i << ", " << threads << " threads";
    }
    ASSERT_EQ(many.gammas.size(), one.gammas.size());
    for (std::size_t i = 0; i < one.gammas.size(); ++i) {
      EXPECT_TRUE(same_bits(one.gammas[i], many.gammas[i]))
          << "gammas of layer " << i << ", " << threads << " threads";
    }
    ASSERT_EQ(many.result.history.size(), one.result.history.size());
    for (std::size_t e = 0; e < one.result.history.size(); ++e) {
      const EpochStats& a = one.result.history[e];
      const EpochStats& b = many.result.history[e];
      // Two NaN losses would compare equal bit for bit.
      EXPECT_TRUE(std::isfinite(a.train_loss)) << "epoch " << e;
      EXPECT_TRUE(std::isfinite(a.val_loss)) << "epoch " << e;
      EXPECT_EQ(std::memcmp(&a.train_loss, &b.train_loss, sizeof(double)), 0)
          << "epoch " << e << ", " << threads << " threads";
      EXPECT_EQ(std::memcmp(&a.val_loss, &b.val_loss, sizeof(double)), 0)
          << "epoch " << e << ", " << threads << " threads";
      EXPECT_EQ(a.dilations, b.dilations) << "epoch " << e;
    }
    EXPECT_EQ(many.result.dilations, one.result.dilations);
  }
  omp_set_num_threads(saved);
#endif
}

TEST(TrainSupervised, ConvergesAndReportsTiming) {
  RandomEngine rng(461);
  TinyDelayModel model(rng);
  // Plain training of a fixed architecture (the "No-NAS" baseline): the
  // gammas are frozen at d = 1 so only the weights learn.
  model.conv_.freeze_gamma();
  auto train_ds = make_delay_dataset(32, 16, 2, 23);
  auto val_ds = make_delay_dataset(16, 16, 2, 24);
  data::DataLoader train(train_ds, 16, true, 7);
  data::DataLoader val(val_ds, 16, false);
  PlainTrainingOptions options;
  options.max_epochs = 60;
  options.patience = 8;
  options.lr = 2e-2;
  const auto result = train_supervised(model, mse(), train, val,
                                       model.parameters(), options);
  EXPECT_LT(result.best_val_loss, 0.05);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_LE(result.epochs_run, 60);
}

TEST(EvaluateLoss, MatchesDirectComputation) {
  RandomEngine rng(463);
  TinyDelayModel model(rng);
  auto ds = make_delay_dataset(8, 16, 2, 25);
  data::DataLoader loader(ds, 4, false);
  const double via_helper = evaluate_loss(model, mse(), loader);
  // Direct: average over batches weighted by batch size (all equal here).
  model.eval();
  NoGradGuard guard;
  double total = 0.0;
  for (index_t b = 0; b < loader.num_batches(); ++b) {
    data::Batch batch = loader.batch(b);
    total += nn::mse_loss(model.forward(batch.inputs), batch.targets).item() *
             static_cast<double>(batch.inputs.dim(0));
  }
  EXPECT_NEAR(via_helper, total / 8.0, 1e-6);
}

}  // namespace
}  // namespace pit::core
