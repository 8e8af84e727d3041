#include "models/temponet.hpp"

#include "tensor/error.hpp"
#include "tensor/ops.hpp"

namespace pit::models {

namespace {

struct Channels {
  index_t c1, c2, c3, fc;
};

Channels scaled_channels(const TempoNetConfig& c) {
  return {scale_channels(c.block1_channels, c.channel_scale),
          scale_channels(c.block2_channels, c.channel_scale),
          scale_channels(c.block3_channels, c.channel_scale),
          scale_channels(c.fc_hidden, c.channel_scale)};
}

}  // namespace

std::vector<TemporalConvSpec> TempoNet::conv_specs(
    const TempoNetConfig& config) {
  PIT_CHECK(config.dilations.size() == 7,
            "TempoNet: expected 7 dilations, got " << config.dilations.size());
  const Channels ch = scaled_channels(config);
  const auto& d = config.dilations;
  return {
      {config.input_channels, ch.c1, 3, d[0], 1},  // B1 conv 1
      {ch.c1, ch.c1, 3, d[1], 1},                  // B1 conv 2
      {ch.c1, ch.c2, 5, d[2], 1},                  // B1 conv 3 (k5)
      {ch.c2, ch.c2, 3, d[3], 1},                  // B2 conv 1
      {ch.c2, ch.c2, 3, d[4], 1},                  // B2 conv 2
      {ch.c2, ch.c3, 3, d[5], 1},                  // B3 conv 1
      {ch.c3, ch.c3, 3, d[6], 1},                  // B3 conv 2
  };
}

index_t TempoNet::flattened_steps(const TempoNetConfig& config) {
  // Three /2 average pools; convs are stride 1.
  index_t t = config.input_length;
  for (int i = 0; i < 3; ++i) {
    PIT_CHECK(t >= 2, "TempoNet: input_length too short for three pools");
    t = (t - 2) / 2 + 1;
  }
  return t;
}

TempoNet::TempoNet(const TempoNetConfig& config, const ConvFactory& factory,
                   RandomEngine& rng)
    : config_(config) {
  const auto specs = conv_specs(config);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto conv = factory(specs[i]);
    register_module("conv" + std::to_string(i), conv.get());
    convs_.push_back(std::move(conv));
    auto bn = std::make_unique<nn::BatchNorm1d>(specs[i].out_channels);
    register_module("bn" + std::to_string(i), bn.get());
    norms_.push_back(std::move(bn));
  }
  for (int p = 0; p < 3; ++p) {
    auto pool = std::make_unique<nn::AvgPool1d>(2, 2);
    register_module("pool" + std::to_string(p), pool.get());
    pools_.push_back(std::move(pool));
  }
  const Channels ch = scaled_channels(config);
  const index_t flat = ch.c3 * flattened_steps(config);
  fc1_ = std::make_unique<nn::Linear>(flat, ch.fc, true, rng);
  register_module("fc1", fc1_.get());
  fc_drop_ = std::make_unique<nn::Dropout>(config.dropout, rng);
  register_module("fc_drop", fc_drop_.get());
  fc2_ = std::make_unique<nn::Linear>(ch.fc, config.output_dim, true, rng);
  register_module("fc2", fc2_.get());
}

Tensor TempoNet::forward(const Tensor& input) {
  PIT_CHECK(input.rank() == 3 && input.dim(1) == config_.input_channels &&
                input.dim(2) == config_.input_length,
            "TempoNet: expected (N, " << config_.input_channels << ", "
                                      << config_.input_length << "), got "
                                      << input.shape().to_string());
  auto conv_bn_relu = [this](const Tensor& x, std::size_t i) {
    return norms_[i]->forward_relu(convs_[i]->forward(x));
  };
  Tensor x = input;
  // Block 1: three convs then pool.
  x = conv_bn_relu(x, 0);
  x = conv_bn_relu(x, 1);
  x = conv_bn_relu(x, 2);
  x = pools_[0]->forward(x);
  // Block 2: two convs then pool.
  x = conv_bn_relu(x, 3);
  x = conv_bn_relu(x, 4);
  x = pools_[1]->forward(x);
  // Block 3: two convs then pool.
  x = conv_bn_relu(x, 5);
  x = conv_bn_relu(x, 6);
  x = pools_[2]->forward(x);
  // Regression head.
  x = nn::flatten(x);
  x = fc_drop_->forward(relu(fc1_->forward(x)));
  return fc2_->forward(x);
}

std::vector<nn::Module*> TempoNet::temporal_convs() const {
  std::vector<nn::Module*> out;
  out.reserve(convs_.size());
  for (const auto& c : convs_) {
    out.push_back(c.get());
  }
  return out;
}

index_t TempoNet::params_with_dilations(const TempoNetConfig& config,
                                        const std::vector<index_t>& dilations) {
  const auto specs = conv_specs(config);
  PIT_CHECK(dilations.size() == specs.size(),
            "TempoNet::params_with_dilations: " << dilations.size()
                                                << " dilations for "
                                                << specs.size() << " convs");
  index_t total = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const index_t rf = specs[i].receptive_field();
    PIT_CHECK(dilations[i] >= 1 && dilations[i] <= rf,
              "TempoNet: dilation " << dilations[i] << " invalid for rf "
                                    << rf);
    total += specs[i].in_channels * specs[i].out_channels *
                 alive_taps(rf, dilations[i]) +
             specs[i].out_channels;          // conv bias
    total += 2 * specs[i].out_channels;      // batch-norm gamma/beta
  }
  const Channels ch = scaled_channels(config);
  const index_t flat = ch.c3 * flattened_steps(config);
  total += flat * ch.fc + ch.fc;                            // fc1
  total += ch.fc * config.output_dim + config.output_dim;   // fc2
  return total;
}

}  // namespace pit::models
