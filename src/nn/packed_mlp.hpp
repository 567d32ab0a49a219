// Packed inference engine: the §IV.B–C payoff, cashed in.
//
// `Mlp::forward` heap-allocates two std::vector<double> per call and
// multiplies densely through weights the pruning mask already zeroed. A
// PackedMlp is a compiled snapshot of a trained network optimised for the
// 10 µs decision path:
//
//   * each layer is stored in exactly one layout, chosen once at compile
//     time: the blocked dense panel, or SELL-4 (sliced ELLPACK) when the
//     layer is sparse enough that skipping its pruned weights pays for the
//     gathers (layouts in src/nn/simd.hpp). Layers of one layout share a
//     fused pool — one cache stream per pass;
//   * every SIMD tier, scalar included, runs those layouts through the same
//     kernel templates (src/nn/simd_kernels.hpp), so the layout and the
//     term order never depend on the host;
//   * the caller owns the ping-pong activation scratch, so a forward pass
//     performs zero heap allocations (enforced by the `hot-path-alloc`
//     ssm_lint rule on this header and asserted by tests/test_packed.cpp);
//   * a batched entry point evaluates many feature rows in one call with
//     one traversal of the weight stream per layer (Decision-maker over
//     all clusters, Calibrator over all V/f levels, evaluation loops).
//
// Numerical contract: for finite inputs the packed pass reproduces
// `Mlp::forward` exactly — the dense panel adds every term in the dense
// loop's order, SELL-4 only skips terms whose stored weight is exactly zero
// and keeps the survivors in that order — so governors, sweeps and datagen
// switch engines without changing a single decision (goldens stay
// byte-identical).
//
// Staleness contract: a PackedMlp is a snapshot. After mutating the source
// network's weights or masks (pruning, fine-tuning), recompile; SsmModel
// owns that trigger via recompilePacked(), and audit builds cross-check
// packed output against the reference net on every decision.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "nn/mlp.hpp"
#include "nn/simd.hpp"

namespace ssm {

class QuantizedMlp;

class PackedMlp {
 public:
  /// Caller-owned activation buffers. Create with makeScratch() (sized for
  /// one row) and grow with reserveBatchScratch() before batched calls; a
  /// correctly sized scratch makes every forward entry allocation-free.
  struct Scratch {
    std::vector<double> ping;
    std::vector<double> pong;
    std::vector<double> head;  ///< output row for predictClass/predictScalar
  };

  PackedMlp() = default;

  /// Compiles a float network. The source net is not referenced afterwards.
  explicit PackedMlp(const Mlp& net);

  /// Compiles a quantized network: weights are pre-dequantized
  /// (w_q * weight_scale) and the inter-layer activation requantization is
  /// replayed as a per-layer post-op, reproducing QuantizedMlp::forward
  /// exactly.
  explicit PackedMlp(const QuantizedMlp& net);

  [[nodiscard]] bool compiled() const noexcept { return !layers_.empty(); }
  [[nodiscard]] int inputDim() const noexcept { return input_dim_; }
  [[nodiscard]] int outputDim() const noexcept { return output_dim_; }
  [[nodiscard]] Head head() const noexcept { return head_; }
  [[nodiscard]] std::size_t layerCount() const noexcept {
    return layers_.size();
  }
  /// FLOPs one forward pass actually executes: 2 per weight the layer's
  /// kernel walks (every in x out weight of a dense panel, the non-zero
  /// ones of a SELL-4 layer) + one bias add per output neuron + one ReLU
  /// per hidden neuron.
  [[nodiscard]] std::int64_t flopsExecuted() const noexcept;

  /// Allocates scratch sized for single-row inference (cold path).
  [[nodiscard]] Scratch makeScratch() const;

  /// Grows `s` so forwardBatch can process up to `rows` rows without
  /// allocating (cold path; no-op when already large enough).
  void reserveBatchScratch(Scratch& s, std::size_t rows) const;

  /// Single-row forward. `out.size()` must equal outputDim(); for the
  /// classifier head `out` receives the softmax probabilities. Performs no
  /// heap allocation.
  void forward(std::span<const double> input, Scratch& s,
               std::span<double> out) const {
    checkSingle(input, s);
    SSM_CHECK(static_cast<int>(out.size()) == output_dim_,
              "output width mismatch");
    forwardRaw(input.data(), s, out.data());
    finishHead(out.data());
  }

  /// Classifier convenience: argmax class. Allocation-free.
  [[nodiscard]] int predictClass(std::span<const double> input,
                                 Scratch& s) const {
    SSM_CHECK(head_ == Head::kSoftmaxClassifier,
              "predictClass requires a classifier head");
    checkSingle(input, s);
    forwardRaw(input.data(), s, s.head.data());
    // No softmax needed: argmax over logits == argmax over probabilities.
    const double* h = s.head.data();
    return static_cast<int>(std::max_element(h, h + output_dim_) - h);
  }

  /// Regression convenience: first output. Allocation-free.
  [[nodiscard]] double predictScalar(std::span<const double> input,
                                     Scratch& s) const {
    SSM_CHECK(head_ == Head::kRegression,
              "predictScalar requires a regression head");
    checkSingle(input, s);
    forwardRaw(input.data(), s, s.head.data());
    return s.head[0];
  }

  /// Batched forward: `rows` is R x inputDim, `out` must be R x outputDim.
  /// Each layer's weight stream is traversed once for the whole batch;
  /// per-row results are identical to R single-row forward calls. Grows the
  /// scratch on first use for a given R (amortised allocation-free).
  void forwardBatch(const Matrix& rows, Scratch& s, Matrix& out) const;

 private:
  /// One compiled layer; the offsets of its layout index the pools below.
  struct Layer {
    int in = 0;
    int out = 0;
    bool sell = false;  ///< SELL-4 streams instead of the dense panel
    SimdPostOp post;    ///< ReLU / quantized-activation post-ops
    std::size_t bbias_off = 0;  ///< blk_bias_: ceil(out/4)*4 doubles
    std::size_t blk_off = 0;    ///< blk_w_: ceil(out/4)*4*in doubles (dense)
    std::size_t sell_off = 0;   ///< sell_vals_/sell_cols_ (SELL)
    std::size_t grp_off = 0;    ///< sell_grpoff_: ngroups+1 entries (SELL)
    std::size_t nnz_off = 0;    ///< sell_nnz_: ceil(out/4)*4 entries (SELL)
  };

  /// Shared compile tail: lowers `layer` from a dense row-major weight
  /// view into its chosen layout and appends it to the pools.
  void packLayer(std::span<const double> weights, std::span<const double> bias,
                 int in_dim, int out_dim);

  void checkSingle(std::span<const double> input, const Scratch& s) const {
    SSM_CHECK(compiled(), "PackedMlp not compiled");
    SSM_CHECK(static_cast<int>(input.size()) == input_dim_,
              "input width mismatch");
    SSM_CHECK(s.ping.size() >= static_cast<std::size_t>(padded_width_) &&
                  s.pong.size() >= static_cast<std::size_t>(padded_width_) &&
                  s.head.size() >= static_cast<std::size_t>(output_dim_),
              "scratch too small; create it with makeScratch()");
  }

  /// y = mask(W) x + b for one compiled layer, then the ReLU / requant
  /// post-ops, through the kernel table the dispatcher selected at compile
  /// time. Each SIMD lane owns one output neuron and accumulates in the
  /// reference loop's order, so every tier is bit-identical to
  /// Mlp::forward for finite inputs (see src/nn/simd.hpp).
  void layerForward(const Layer& l, const double* in,
                    double* out) const noexcept {
    const double* bias = blk_bias_.data() + l.bbias_off;
    // The kernels re-read the post-op after every block store (`out` may
    // alias it as far as they know), so hand them a stack copy: passing a
    // reference into the layer table measured slower in bench_micro_perf
    // on an AVX2 host.
    const SimdPostOp post = l.post;
    if (l.sell)
      kernels_->sell(sell_vals_.data() + l.sell_off,
                     sell_cols_.data() + l.sell_off,
                     sell_grpoff_.data() + l.grp_off,
                     sell_nnz_.data() + l.nnz_off, bias, in, l.out, post,
                     out);
    else
      kernels_->dense(blk_w_.data() + l.blk_off, bias, in, l.in, l.out, post,
                      out);
  }

  /// Runs every layer ping-pong and writes the raw head row (pre-softmax)
  /// into `out` (>= outputDim doubles). The first layer reads the caller's
  /// input in place, so nothing is copied into the scratch up front.
  void forwardRaw(const double* input, Scratch& s,
                  double* out) const noexcept {
    const double* in = input;
    double* cur = s.ping.data();
    double* nxt = s.pong.data();
    for (const Layer& l : layers_) {
      layerForward(l, in, cur);
      in = cur;
      std::swap(cur, nxt);
    }
    for (int o = 0; o < output_dim_; ++o) out[o] = in[o];
  }

  /// Head post-op on a raw output row (softmax for classifiers).
  void finishHead(double* out) const noexcept {
    if (head_ == Head::kSoftmaxClassifier)
      softmaxInPlace({out, static_cast<std::size_t>(output_dim_)});
  }

  Head head_ = Head::kRegression;
  int input_dim_ = 0;
  int output_dim_ = 0;
  /// Scratch row width: the widest activation row with every layer's
  /// output rounded up to a multiple of 4, so the kernels' full-width
  /// vector stores land inside the row regardless of ragged tails. Padding
  /// lanes hold junk that no layer reads.
  int padded_width_ = 0;
  /// Kernel table the dispatcher selected when this model was compiled.
  const SimdKernels* kernels_ = nullptr;
  std::vector<Layer> layers_;
  std::vector<double> blk_w_;          ///< blocked-interleaved dense panels
  std::vector<double> blk_bias_;       ///< biases padded to 4-row blocks
  std::vector<double> sell_vals_;      ///< SELL-4 values (slot-major)
  std::vector<std::int32_t> sell_cols_;
  std::vector<std::size_t> sell_grpoff_;
  std::vector<std::int64_t> sell_nnz_; ///< per padded row true nnz
};

}  // namespace ssm
