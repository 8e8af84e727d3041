// Stateful streaming session: the low-latency counterpart to the
// micro-batching InferenceServer.
//
// Where the server trades a bounded queueing delay for batched throughput,
// a StreamSession serves scenarios where samples arrive one time step at a
// time (a PPG sensor tick, one audio frame) and each step's output is
// wanted immediately: it binds one ExecutionContext to a shared
// CompiledPlan and advances the per-conv dilated ring-buffer history by
// one step per call — O(sum_l c_in*k*c_out) work per step, no re-running
// of the whole window. The plan may be fp32 or int8: a quantized plan
// streams its int8 program over u8 rings and its steps match the batched
// int8 forward bit-exactly. Any number of sessions may share one plan
// (each is an independent sequence); a single session is single-threaded.
//
// This is the one-sequence facade. For serving THOUSANDS of concurrent
// sequences — pooled/recycled state, same-tick micro-batching across
// sessions, idle eviction — use serve::SessionManager
// (session_manager.hpp) instead.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <utility>

#include "runtime/compiled_net.hpp"
#include "runtime/plan_registry.hpp"
#include "tensor/error.hpp"

namespace pit::serve {

class StreamSession {
 public:
  explicit StreamSession(std::shared_ptr<const runtime::CompiledPlan> plan)
      : StreamSession(std::move(plan), std::pmr::get_default_resource()) {}

  /// Pins the handle's active version for this session's lifetime: the
  /// session streams its whole sequence on that version even if the
  /// registry hot-swaps the model mid-stream (the shared_ptr pin keeps
  /// the old version's weights alive until the session ends).
  explicit StreamSession(const runtime::PlanHandle& handle)
      : StreamSession(handle.acquire().plan()) {}

  /// Routes this session's buffers through `mr` — the same pmr seam
  /// SessionManager uses to put fleet sessions on a shard's caching
  /// allocator (serve::SessionAllocator::shard_resource). `mr` must
  /// outlive the session.
  StreamSession(std::shared_ptr<const runtime::CompiledPlan> plan,
                std::pmr::memory_resource* mr)
      : plan_(std::move(plan)), ctx_(mr) {
    PIT_CHECK(plan_ != nullptr, "StreamSession: null plan");
    PIT_CHECK(plan_->streamable(),
              "StreamSession: plan is not streamable — it contains a pool, "
              "linear, or strided conv; serve whole windows through "
              "InferenceServer instead");
  }

  /// Consumes one (C,) time-step vector, returns the (C_out,) output for
  /// this step. Equals column t of a whole-sequence forward().
  Tensor step(const Tensor& input) { return plan_->step(input, ctx_); }
  /// Raw-buffer variant for allocation-free steady state.
  void step(const float* input, float* output) {
    plan_->step(input, output, ctx_);
  }

  /// Starts a fresh sequence (history back to the implicit causal
  /// padding — zeros for fp32 plans, zero-point bytes for int8 ones).
  void reset() { ctx_.reset_stream(); }
  /// Steps consumed since construction or the last reset().
  std::uint64_t position() const { return ctx_.stream_position(); }

  const runtime::CompiledPlan& plan() const { return *plan_; }

 private:
  std::shared_ptr<const runtime::CompiledPlan> plan_;
  runtime::ExecutionContext ctx_;
};

}  // namespace pit::serve
