// Fig. 5 reproduction: search/training time of PIT vs ProxylessNAS vs a
// single plain training, on TEMPONet / PPG-Dalia.
//
// The paper measures wall-clock minutes on a GTX-1080Ti: ProxylessNAS takes
// 5.3-10.4x longer than PIT, while PIT is only 1.3-2.3x slower than
// training the hand-designed network once. The mechanism is architectural,
// not hardware-specific: ProxylessNAS trains one sampled path per batch, so
// each candidate sees a fraction of the updates and convergence (with the
// same early-stop patience) needs far more epochs; PIT trains all weights
// and the gammas concurrently in every step.
#include <cstdio>

#include "bench_common.hpp"
#include "nas/proxyless.hpp"

int main() {
  using namespace pit::bench;
  print_header("Fig. 5 — search cost: PIT vs ProxylessNAS vs plain training",
               "Risso et al., DAC 2021, Fig. 5");
  std::printf("paper (minutes, GTX-1080Ti): ProxylessNAS 5.3-10.4x PIT;\n");
  std::printf("PIT 1.3-2.3x a single No-NAS training\n\n");

  const auto cfg = scaled_temponet_config();
  Loaders loaders = make_ppg_loaders();
  const int patience = 8;  // identical for all three methods

  // --- No-NAS training: the hand-designed TEMPONet, trained once. ---------
  double plain_seconds = 0.0;
  {
    pit::RandomEngine rng(6001);
    pit::models::TempoNet model(
        cfg, pit::models::dilated_conv_factory(rng, cfg.dilations), rng);
    pit::core::PlainTrainingOptions opts;
    opts.max_epochs = 60;
    opts.patience = patience;
    opts.lr = 2e-3;
    const auto result = pit::core::train_supervised(
        model, mae_loss_fn(), *loaders.train, *loaders.val,
        model.parameters(), opts);
    plain_seconds = result.seconds;
    std::printf("No-NAS training: %7.1f ms (val MAE %.3f, %d epochs)\n",
                1e3 * result.seconds, result.best_val_loss, result.epochs_run);
  }

  // --- PIT: one full Algorithm-1 run. --------------------------------------
  double pit_seconds = 0.0;
  {
    auto factory = temponet_pit_factory(cfg, 6100);
    auto bundle = factory();
    pit::core::PitTrainerOptions opts;
    opts.lambda = 3e-5;
    opts.warmup_epochs = 3;
    opts.max_prune_epochs = 12;
    opts.finetune_epochs = 20;
    opts.patience = patience;
    opts.lr_weights = 2e-3;
    opts.lr_gamma = 2e-2;
    pit::core::PitTrainer trainer(*bundle.model, bundle.pit_layers,
                                  mae_loss_fn(), opts);
    const auto result = trainer.run(*loaders.train, *loaders.val);
    pit_seconds = result.total_seconds;
    std::printf("PIT search:      %7.1f ms (val MAE %.3f, dilations %s)\n",
                1e3 * result.total_seconds, result.val_loss,
                dilation_string(result.dilations).c_str());
    std::printf("  phases: warmup %.1f ms, pruning %.1f ms, fine-tune %.1f ms\n",
                1e3 * result.warmup_seconds, 1e3 * result.prune_seconds,
                1e3 * result.finetune_seconds);
  }

  // --- ProxylessNAS: supernet search over the same space. -----------------
  double proxyless_seconds = 0.0;
  {
    pit::RandomEngine rng(6200);
    std::vector<pit::nas::MixedConv1d*> layers;
    pit::models::TempoNet supernet(
        cfg, pit::nas::mixed_conv_factory(rng, layers), rng);
    pit::nas::ProxylessOptions opts;
    opts.lambda_size = 0.3;
    opts.warmup_epochs = 4;
    opts.max_search_epochs = 120;
    opts.finetune_epochs = 20;
    opts.patience = patience;
    opts.lr_weights = 2e-3;
    opts.lr_alpha = 0.12;
    opts.sample_seed = 6207;
    pit::nas::ProxylessTrainer trainer(supernet, layers, mae_loss_fn(), opts);
    const auto result = trainer.run(*loaders.train, *loaders.val);
    proxyless_seconds = result.total_seconds;
    std::printf("ProxylessNAS:    %7.1f ms (val MAE %.3f, dilations %s, "
                "%d search epochs)\n",
                1e3 * result.total_seconds, result.val_loss,
                dilation_string(result.dilations).c_str(),
                result.search_epochs);
  }

  std::printf("\nratios: ProxylessNAS / PIT      = %5.2fx  (paper: 5.3-10.4x)\n",
              proxyless_seconds / pit_seconds);
  std::printf("        PIT / No-NAS training   = %5.2fx  (paper: 1.3-2.3x)\n",
              pit_seconds / plain_seconds);
  std::printf("\nExpected shape: ProxylessNAS well above PIT; PIT within a\n"
              "small factor of a single training run.\n");
  return 0;
}
