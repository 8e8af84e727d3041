// BatchNorm1d forward and backward time over pitperf `search`'s seven BN
// shapes (TempoNet at channel_scale 0.5, batch 16, window 128: 262,144
// elements per batch), through the library's autograd op.
//
//   g++ -O2 -std=c++20 -fopenmp -I<checkout>/src bn_loops.cpp \
//       <checkout>/.bench_build/pit/libpit.a -o bn_loops
//   OMP_NUM_THREADS=1 ./bn_loops
//
// Backward is timed as sum(mul(y, w)).backward() minus the same graph
// without the BatchNorm node (mul_scalar(x, 1) in its place), so it is
// the BN backward's own time. Prints milliseconds per batch (all seven).
#include <omp.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "nn/batchnorm.hpp"
#include "tensor/ops.hpp"

using namespace pit;
using Clock = std::chrono::steady_clock;

static double ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int main() {
  const int reps = 300;
  const index_t shapes[7][3] = {{16, 16, 128}, {16, 16, 128}, {16, 32, 128},
                                {16, 32, 64},  {16, 32, 64},  {16, 64, 32},
                                {16, 64, 32}};
  RandomEngine rng(1);
  std::vector<std::unique_ptr<nn::BatchNorm1d>> bns;
  std::vector<Tensor> xs, ws;
  for (const auto& s : shapes) {
    bns.push_back(std::make_unique<nn::BatchNorm1d>(s[1]));
    Tensor x = Tensor::uniform(Shape{s[0], s[1], s[2]}, -2.0F, 2.0F, rng);
    x.set_requires_grad(true);
    xs.push_back(x);
    ws.push_back(Tensor::uniform(Shape{s[0], s[1], s[2]}, -1.0F, 1.0F, rng));
  }
  double fwd = 0.0, with_bn = 0.0, without_bn = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < bns.size(); ++i) {
      const auto t0 = Clock::now();
      const Tensor y = bns[i]->forward_relu(xs[i]);
      const auto t1 = Clock::now();
      sum(mul(y, ws[i])).backward();
      const auto t2 = Clock::now();
      const Tensor z = mul_scalar(xs[i], 1.0F);
      const auto t3 = Clock::now();
      sum(mul(z, ws[i])).backward();
      const auto t4 = Clock::now();
      fwd += ms(t0, t1);
      with_bn += ms(t1, t2);
      without_bn += ms(t3, t4);
      xs[i].zero_grad();
      bns[i]->gamma().zero_grad();
      bns[i]->beta().zero_grad();
    }
  }
  std::printf("threads %d: BN forward+ReLU %.3f ms, BN backward %.3f ms "
              "per batch\n",
              omp_get_max_threads(), fwd / reps,
              (with_bn - without_bn) / reps);
  return 0;
}
