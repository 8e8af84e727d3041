// The search workload: PIT Algorithm 1 (warm-up, then pruning with the
// size regularizer) on TempoNet over synthetic PPG, on a fixed schedule
// with no early stop, so every repetition does the same work. The untraced
// run calls the library's pit::core::PitTrainer; the traced run replays the
// same epochs through an instrumented copy of its loop, only to split a
// batch into phase spans. Each repetition is exported and checked: the
// exported network must reach the searched model's validation loss, and
// its compiled plan must match its module forward.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "core/network_export.hpp"
#include "core/pit_conv1d.hpp"
#include "core/regularizer.hpp"
#include "core/trainer.hpp"
#include "data/dataloader.hpp"
#include "data/ppg_dalia.hpp"
#include "models/temponet.hpp"
#include "nn/losses.hpp"
#include "nn/optim.hpp"
#include "probes.hpp"
#include "runtime/compile_models.hpp"
#include "tensor/ops.hpp"

namespace pitperf {

using pit::Tensor;

namespace {

// Fixed schedule (the same work in every repetition).
constexpr double kChannelScale = 0.5;
constexpr index_t kWindow = 128;
constexpr index_t kTrainWindows = 128;
constexpr index_t kValWindows = 32;
constexpr index_t kBatch = 16;
constexpr int kWarmupEpochs = 1;
constexpr int kPruneEpochs = 2;
constexpr double kExportTol = 1e-4;

/// The fixed schedule as trainer options: no fine-tuning, and the default
/// patience cannot end a pruning phase this short.
pit::core::PitTrainerOptions schedule() {
  pit::core::PitTrainerOptions o;
  o.warmup_epochs = kWarmupEpochs;
  o.max_prune_epochs = kPruneEpochs;
  o.finetune_epochs = 0;
  if (o.patience <= kPruneEpochs) {
    throw std::logic_error("search: early stop could shorten the schedule");
  }
  return o;
}

pit::models::TempoNetConfig search_config() {
  pit::models::TempoNetConfig cfg;
  cfg.channel_scale = kChannelScale;
  cfg.input_length = kWindow;
  return cfg;
}

/// Synthetic PPG windows and their loaders (the timed set-up).
struct Data {
  std::unique_ptr<pit::data::PpgDaliaDataset> dataset;
  std::unique_ptr<pit::data::SubsetDataset> train_view, val_view;
  std::unique_ptr<pit::data::DataLoader> train, val;
};

Data make_data(std::uint64_t seed) {
  Data d;
  pit::data::PpgDaliaOptions opts;
  opts.num_windows = kTrainWindows + kValWindows;
  opts.window_len = kWindow;
  opts.seed = seed;
  d.dataset = std::make_unique<pit::data::PpgDaliaDataset>(opts);
  d.train_view = std::make_unique<pit::data::SubsetDataset>(*d.dataset, 0, kTrainWindows);
  d.val_view = std::make_unique<pit::data::SubsetDataset>(*d.dataset, kTrainWindows,
                                                          kValWindows);
  d.train = std::make_unique<pit::data::DataLoader>(*d.train_view, kBatch, true, seed + 1);
  d.val = std::make_unique<pit::data::DataLoader>(*d.val_view, kBatch, false);
  return d;
}

/// Builds one searchable model and runs one training-mode forward, so lazy
/// start-up (OpenMP thread pool, allocator growth) lands in the set-up. No
/// autograd graph is recorded: a recorded one would stay alive through its
/// reference cycles and grow the peak RSS with every set-up.
void warm_up(const Data& d, std::uint64_t seed) {
  pit::RandomEngine rng(seed);
  std::vector<pit::core::PITConv1d*> layers;
  pit::models::TempoNet model(search_config(), pit::core::pit_conv_factory(rng, layers),
                              rng);
  model.train();
  pit::NoGradGuard no_grad;
  (void)model.forward(d.train->batch(0).inputs);
}

struct Rep {
  double seconds = 0.0;  ///< warm-up + pruning, including validation
  index_t samples = 0;   ///< training samples processed
  bool export_ok = false;
  bool selfcheck_caught = false;  ///< a corrupted reference loss fails
  bool plan_ok = false;
  double val_searched = 0.0, val_exported = 0.0, plan_max_err = 0.0;
};

Tensor mae(const Tensor& p, const Tensor& t) { return pit::nn::mae_loss(p, t); }

/// The export check: equal validation loss within kExportTol relative.
bool loss_matches(double got, double want) {
  return std::fabs(got - want) <= kExportTol * std::fabs(want);
}

/// One epoch of PitTrainer's loop, copied to put a span around each phase
/// of every batch (traced runs only).
void epoch(pit::models::TempoNet& model, const std::vector<pit::core::PITConv1d*>& layers,
           pit::data::DataLoader& train, pit::nn::Adam& wopt, pit::nn::Adam* gopt,
           std::vector<double>& batch_us, Tracer& tr, std::uint64_t& req) {
  const pit::core::PitTrainerOptions opts = schedule();
  model.train();
  train.reshuffle();
  for (index_t b = 0; b < train.num_batches(); ++b) {
    const std::int64_t t0 = now_ns();
    const std::int32_t root = tr.begin("search.batch", ++req);
    pit::data::Batch batch;
    {
      Scoped s(tr, "search.data", req, root);
      batch = train.batch(b);
    }
    Tensor objective;
    {
      Scoped s(tr, "search.forward", req, root);
      model.zero_grad();
      objective = mae(model.forward(batch.inputs), batch.targets);
    }
    if (gopt != nullptr) {
      Scoped s(tr, "search.regularizer", req, root);
      objective = pit::add(objective,
                           pit::core::size_regularizer(layers, opts.lambda));
    }
    {
      Scoped s(tr, "search.backward", req, root);
      objective.backward();
    }
    {
      Scoped s(tr, "search.optim", req, root);
      wopt.step();
      if (gopt != nullptr) {
        gopt->step();
        for (pit::core::PITConv1d* layer : layers) {
          layer->gamma().clamp_values();
        }
      }
    }
    tr.end(root);
    batch_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
}

/// PitTrainer on the fixed schedule. A training batch is timed from one
/// training-mode loss call to the next: that interval is one full pass of
/// the library's batch loop (backward, optimizer steps, the next batch's
/// data and forward).
void search_library(pit::models::TempoNet& model,
                    const std::vector<pit::core::PITConv1d*>& layers, Data& d,
                    std::vector<double>& batch_us, Rep& rep) {
  std::int64_t last = 0;  // previous training-mode call; 0 after validation
  const pit::core::LossFn timed = [&](const Tensor& p, const Tensor& t) {
    const std::int64_t now = now_ns();
    if (!model.is_training()) {
      last = 0;
    } else {
      if (last != 0) {
        batch_us.push_back(static_cast<double>(now - last) * 1e-3);
      }
      last = now;
    }
    return mae(p, t);
  };
  pit::core::PitTrainer trainer(model, layers, timed, schedule());
  const pit::core::PitTrainingResult res = trainer.run(*d.train, *d.val);
  rep.seconds = res.total_seconds;
  rep.val_searched = res.val_loss;
}

/// The same schedule through the instrumented copy of the loop.
void search_traced(pit::models::TempoNet& model,
                   const std::vector<pit::core::PITConv1d*>& layers, Data& d,
                   std::vector<double>& batch_us, Tracer& tr,
                   std::uint64_t& req, Rep& rep) {
  const pit::core::PitTrainerOptions opts = schedule();
  // Weights and gammas get separate optimizers, as in PitTrainer.
  std::unordered_set<const void*> gamma_impls;
  std::vector<Tensor> gammas;
  for (pit::core::PITConv1d* layer : layers) {
    if (layer->gamma().num_trainable() > 0) {
      gammas.push_back(layer->gamma().values());
      gamma_impls.insert(layer->gamma().values().impl().get());
    }
  }
  std::vector<Tensor> weights;
  for (const Tensor& p : model.parameters()) {
    if (gamma_impls.count(p.impl().get()) == 0) {
      weights.push_back(p);
    }
  }
  const pit::core::LossFn loss = mae;
  const std::int64_t t0 = now_ns();
  pit::nn::Adam wopt(weights, opts.lr_weights);
  for (int e = 0; e < kWarmupEpochs; ++e) {
    epoch(model, layers, *d.train, wopt, nullptr, batch_us, tr, req);
    (void)pit::core::evaluate_loss(model, loss, *d.val);
  }
  pit::nn::Adam gopt(gammas, opts.lr_gamma);
  for (int e = 0; e < kPruneEpochs; ++e) {
    epoch(model, layers, *d.train, wopt, &gopt, batch_us, tr, req);
    (void)pit::core::evaluate_loss(model, loss, *d.val);
  }
  for (pit::core::PITConv1d* layer : layers) {
    layer->freeze_gamma();
  }
  rep.val_searched = pit::core::evaluate_loss(model, loss, *d.val);
  rep.seconds = seconds_since(t0);
}

Rep run_rep(Data& d, std::uint64_t model_seed, std::vector<double>& batch_us,
            Tracer* tr, std::uint64_t& req) {
  const pit::models::TempoNetConfig cfg = search_config();
  pit::RandomEngine rng(model_seed);
  std::vector<pit::core::PITConv1d*> layers;
  pit::models::TempoNet model(cfg, pit::core::pit_conv_factory(rng, layers), rng);
  Rep rep;
  if (tr == nullptr) {
    search_library(model, layers, d, batch_us, rep);
  } else {
    search_traced(model, layers, d, batch_us, *tr, req, rep);
  }
  rep.samples = (kWarmupEpochs + kPruneEpochs) * kTrainWindows;
  const pit::core::LossFn loss = mae;

  // Export the searched network and check it (not timed).
  pit::RandomEngine rng2(model_seed ^ 0xE7);
  pit::models::TempoNet plain(
      cfg, pit::models::dilated_conv_factory(rng2, pit::core::extract_dilations(layers)),
      rng2);
  pit::core::export_weights(model, layers, plain);
  rep.val_exported = pit::core::evaluate_loss(plain, loss, *d.val);
  rep.export_ok = loss_matches(rep.val_exported, rep.val_searched);
  rep.selfcheck_caught =
      !loss_matches(rep.val_exported, rep.val_searched * (1.0 + 10.0 * kExportTol));
  plain.eval();
  const auto plan = pit::runtime::compile_plan(plain);
  pit::runtime::ExecutionContext ctx;
  const Tensor x = d.val->batch(0).inputs;
  Tensor ref;
  {
    pit::NoGradGuard no_grad;
    ref = plain.forward(x);
  }
  const Tensor got = plan->forward(x, ctx);
  bool ok = got.numel() == ref.numel();
  for (index_t i = 0; ok && i < ref.numel(); ++i) {
    const double err = std::fabs(got.data()[i] - ref.data()[i]);
    rep.plan_max_err = std::max(rep.plan_max_err, err);
    ok = err <= kExportTol * std::max(1.0, static_cast<double>(std::fabs(ref.data()[i])));
  }
  rep.plan_ok = ok;
  return rep;
}

}  // namespace

RunOutput run_search(const RunArgs& args) {
  RunOutput out;
  Tracer tr(false);
  std::uint64_t req = 0;

  // Set-up (dataset synthesis, loaders, a first model forward), several
  // times; keep the last data.
  std::vector<double> setup_s;
  Data d;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    d = make_data(args.seed);
    warm_up(d, args.seed);
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> batch_us;
  std::vector<double> rate;
  std::uint64_t checked = 0, mismatched = 0, failed_reps = 0;
  bool selfcheck = true;
  std::string reps_json;
  const auto one_rep = [&](std::uint64_t k, std::vector<double>& sink, Tracer* t) {
    const Rep r = run_rep(d, args.seed * 1000 + k, sink, t, req);
    rate.push_back(static_cast<double>(r.samples) / r.seconds);
    checked += 2;
    mismatched += (r.export_ok ? 0 : 1) + (r.plan_ok ? 0 : 1);
    failed_reps += r.export_ok && r.plan_ok ? 0 : 1;
    selfcheck = selfcheck && r.selfcheck_caught;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"seconds\": %.4f, \"samples\": %lld, \"val_searched\": %.6f, "
                  "\"val_exported\": %.6f, \"plan_max_err\": %.3g}",
                  reps_json.empty() ? "" : ", ", r.seconds,
                  static_cast<long long>(r.samples), r.val_searched, r.val_exported,
                  r.plan_max_err);
    reps_json += buf;
  };

  Metrics& m = out.metrics;
  const std::int64_t t_measure = now_ns();
  std::uint64_t k = 0;
  double rep_s = 0.0;
  if (!args.trace) {
    // Whole repetitions until the next would overrun the run length.
    do {
      const std::int64_t r0 = now_ns();
      one_rep(k++, batch_us, nullptr);
      rep_s = std::max(rep_s, seconds_since(r0));
    } while (seconds_since(t_measure) + rep_s < args.seconds);
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("p50_us", percentile(batch_us, 50), "us");
    m.set("tail_us", tail_latency(batch_us), "us");
    m.set("throughput_per_s", median(rate), "1/s");
    out.detail = "{\"samples\": " + std::to_string(batch_us.size()) +
                 ", \"tail_pct\": " + std::to_string(kTailPct) + ", ";
  } else {
    preset_per_layer(m);
    std::vector<double> untraced, traced;
    // Untraced: the library's trainer; traced: the instrumented copy.
    one_rep(k++, untraced, nullptr);
    tr.set_enabled(true);
    one_rep(k++, traced, &tr);
    const double p50 = percentile(untraced, 50);
    m.set("trace.overhead_frac", percentile(traced, 50) / p50 - 1.0, "ratio");
    const double batches = static_cast<double>(tr.durations_us("search.batch").size());
    double accounted = 0.0;
    for (const char* phase : {"data", "forward", "regularizer", "backward", "optim"}) {
      const std::string name = std::string("search.") + phase;
      const std::vector<double> t = tr.durations_us(name.c_str());
      double sum = 0.0;
      for (const double v : t) {
        sum += v;
      }
      // Mean per batch, so the five phases add up to the batch time.
      m.set(name + "_ms", sum / batches * 1e-3, "ms");
      accounted += sum / batches;
    }
    m.set("trace.accounted_frac", accounted / median(untraced), "ratio");
    m.set("search.samples", static_cast<double>((kWarmupEpochs + kPruneEpochs) *
                                                kTrainWindows),
          "count");
    m.set("search.epochs", kWarmupEpochs + kPruneEpochs, "count");
    // Runtime, kernel and codec probes on the paper-sized served plans.
    const Served sv = build_served(args.seed, kSubmitF32 | kSubmitI8 | kStreamF32 | kStreamI8);
    probe_runtime(sv, args.seed, m, tr);
    probe_kernels(*sv.submit_f32, m, tr);
    probe_codec(make_submit_oracle(*sv.submit_f32, args.seed, 16),
                make_stream_oracle(sv.stream_i8, args.seed, 16, 16), m);
    tr.set_enabled(false);
    m.set("e2e.samples", static_cast<double>(untraced.size()), "count");
    m.set("e2e.tail_pct", kTailPct, "pct");
    m.set("trace.spans", static_cast<double>(tr.spans().size()), "count");
    m.set("oracle.outputs_checked", static_cast<double>(checked), "count");
    m.set("oracle.outputs_mismatched", static_cast<double>(mismatched), "count");
    if (!args.trace_out.empty() && !tr.write(args.trace_out, args.workload)) {
      throw std::runtime_error("cannot write " + args.trace_out);
    }
    out.detail = "{";
  }
  if (args.trace) {
    m.set("oracle.selfcheck_caught", selfcheck ? 1.0 : 0.0, "count");
  }
  out.attempted = rate.size();  // one operation = one whole search
  out.failed = failed_reps;
  out.correct = mismatched == 0 && checked > 0 && selfcheck;
  out.detail += "\"reps\": [" + reps_json + "], \"outputs_checked\": " +
                std::to_string(checked) + ", \"outputs_mismatched\": " +
                std::to_string(mismatched) + ", \"selfcheck_caught\": " +
                (selfcheck ? "true" : "false") + "}";
  return out;
}

}  // namespace pitperf
