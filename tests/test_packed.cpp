// Tests for the packed inference engine: exact agreement with the
// reference Mlp / QuantizedMlp forward passes across randomized shapes,
// masks and prune levels (dense-panel, SELL-4 and quantized lowerings;
// single-row and batched), the per-layer kernel choice and its FLOP
// accounting, plus the zero-allocation guarantee of the hot entry points,
// asserted with a counting global allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "compress/pruning.hpp"
#include "nn/mlp.hpp"
#include "nn/packed_mlp.hpp"
#include "nn/quantize.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every operator-new in this binary bumps the counter
// while the gate is open. The hot-path tests open the gate around a call
// that must not allocate and assert the counter did not move.
//
// GCC pairs the replaced operator new with the library's delete when it
// inlines across this TU and warns about malloc/free mixing; the pairing
// here is internally consistent (new -> malloc, delete -> free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<long>& allocCount() {
  static std::atomic<long> count{0};
  return count;
}
std::atomic<bool>& allocGate() {
  static std::atomic<bool> gate{false};
  return gate;
}

class AllocationGuard {
 public:
  AllocationGuard() : before_(allocCount().load()) {
    allocGate().store(true);
  }
  ~AllocationGuard() { allocGate().store(false); }
  [[nodiscard]] long count() const {
    return allocCount().load() - before_;
  }

 private:
  long before_;
};
}  // namespace

void* operator new(std::size_t size) {
  if (allocGate().load(std::memory_order_relaxed)) ++allocCount();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ssm {
namespace {

// Random network with a random per-weight mask at the given zero-fraction.
Mlp makeMaskedNet(Rng& rng, const std::vector<int>& dims, Head head,
                  double zero_fraction) {
  Mlp net(dims, head, rng.fork(1));
  if (zero_fraction > 0.0) {
    for (std::size_t l = 0; l < net.layerCount(); ++l) {
      auto mask = net.layer(l).mask().flat();
      for (double& m : mask) m = rng.nextBernoulli(zero_fraction) ? 0.0 : 1.0;
    }
    net.applyMasks();
  }
  return net;
}

std::vector<double> randomInput(Rng& rng, int dim) {
  std::vector<double> x(static_cast<std::size_t>(dim));
  for (double& v : x) v = rng.nextGaussian(0.0, 2.0);
  return x;
}

void expectExactlyEqual(std::span<const double> ref,
                        std::span<const double> got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(ref[i], got[i]) << "component " << i;
}

TEST(PackedT, MatchesReferenceAcrossShapesAndMasks) {
  Rng rng(0xfadedUL);
  const std::vector<std::vector<int>> shapes = {
      {3, 4}, {6, 12, 12, 6}, {6, 20, 20, 20, 20, 20, 6}, {1, 7, 1}, {5, 3, 2}};
  // 0.0 keeps every layer on the dense panel, 0.95 sends the wide layers
  // to SELL-4, and the middle fractions mix both in one network.
  const std::vector<double> zero_fractions = {0.0, 0.3, 0.6, 0.95};
  for (const auto& dims : shapes) {
    for (Head head : {Head::kSoftmaxClassifier, Head::kRegression}) {
      for (double zf : zero_fractions) {
        Mlp net = makeMaskedNet(rng, dims, head, zf);
        PackedMlp packed(net);
        EXPECT_EQ(packed.inputDim(), net.inputDim());
        EXPECT_EQ(packed.outputDim(), net.outputDim());
        auto scratch = packed.makeScratch();
        std::vector<double> out(static_cast<std::size_t>(net.outputDim()));
        for (int trial = 0; trial < 8; ++trial) {
          const auto x = randomInput(rng, net.inputDim());
          const auto ref = net.forward(x);
          packed.forward(x, scratch, out);
          expectExactlyEqual(ref, out);
          if (head == Head::kSoftmaxClassifier)
            EXPECT_EQ(packed.predictClass(x, scratch), net.predictClass(x));
          else
            EXPECT_EQ(packed.predictScalar(x, scratch), net.predictScalar(x));
        }
      }
    }
  }
}

/// A layer's kernel under the slot-cost rule plus the 0.6 density gate the
/// engine once applied on top of it: SELL-4 only below 0.6 density and only
/// when its slot count is under 40% of the dense panel's. Matching it on the
/// shapes below shows that dropping the gate moves no layer to another
/// kernel.
struct RuleChoice {
  bool sell = false;
  std::int64_t flops = 0;  ///< MACs the kernel walks x2 + bias adds + ReLUs
};

RuleChoice densityGatedRule(const DenseLayer& layer, bool relu) {
  const int in = layer.inDim();
  const int out = layer.outDim();
  const int ngroups = (out + 3) / 4;
  std::vector<std::int64_t> row_nnz(static_cast<std::size_t>(4 * ngroups), 0);
  std::int64_t nnz = 0;
  for (int o = 0; o < out; ++o)
    for (int i = 0; i < in; ++i)
      if (layer.weights()(static_cast<std::size_t>(o),
                          static_cast<std::size_t>(i)) != 0.0) {
        ++row_nnz[static_cast<std::size_t>(o)];
        ++nnz;
      }
  std::int64_t sell_slots = 0;
  for (int g = 0; g < ngroups; ++g) {
    std::int64_t width = 0;
    for (int lane = 0; lane < 4; ++lane)
      width = std::max(width, row_nnz[static_cast<std::size_t>(4 * g + lane)]);
    sell_slots += width;
  }
  const std::int64_t dense_slots = static_cast<std::int64_t>(ngroups) * in;
  const double density = static_cast<double>(nnz) / (in * out);
  RuleChoice r;
  r.sell = density < 0.6 && 5 * sell_slots < 2 * dense_slots;
  r.flops = 2 * (r.sell ? nnz : static_cast<std::int64_t>(in) * out) + out +
            (relu ? out : 0);
  return r;
}

/// The one-layer network holding `layer`'s weights and bias, so the packed
/// FLOP count isolates that layer's kernel choice.
Mlp singleLayerNet(const DenseLayer& layer) {
  Mlp one({layer.inDim(), layer.outDim()}, Head::kRegression, Rng(1));
  one.layer(0).weights() = layer.weights();
  one.layer(0).bias() = layer.bias();
  return one;
}

TEST(PackedT, KernelChoiceAndFlopsFollowTheDensityGatedRule) {
  Rng rng(0x5e11UL);
  const std::vector<std::vector<int>> shapes = {
      {3, 4}, {6, 12, 12, 6}, {6, 20, 20, 20, 20, 20, 6}, {1, 7, 1},
      {5, 3, 2}, {12, 6}, {12, 1}, {20, 21, 9}};
  for (const auto& dims : shapes) {
    for (double zf : {0.0, 0.3, 0.5, 0.6, 0.75, 0.95}) {
      Mlp net = makeMaskedNet(rng, dims, Head::kRegression, zf);
      std::int64_t want = 0;
      for (std::size_t l = 0; l < net.layerCount(); ++l) {
        const DenseLayer& layer = net.layer(l);
        want += densityGatedRule(layer, l + 1 < net.layerCount()).flops;
        EXPECT_EQ(PackedMlp(singleLayerNet(layer)).flopsExecuted(),
                  densityGatedRule(layer, /*relu=*/false).flops)
            << "layer " << l << " of a " << dims.size() - 1
            << "-layer net at zero fraction " << zf;
      }
      EXPECT_EQ(PackedMlp(net).flopsExecuted(), want);
    }
  }
  // A 0.95-zero wide layer must take SELL-4 and walk only its non-zeros.
  Mlp wide = makeMaskedNet(rng, {20, 20}, Head::kRegression, 0.95);
  const RuleChoice rule = densityGatedRule(wide.layer(0), false);
  ASSERT_TRUE(rule.sell);
  EXPECT_EQ(PackedMlp(wide).flopsExecuted(),
            2 * wide.layer(0).nonzeroWeights() + 20);
  EXPECT_EQ(PackedMlp(wide).flopsExecuted(), rule.flops);
  // An unpruned network packs all-dense and executes exactly denseFlops().
  Mlp dense_net({6, 12, 6}, Head::kRegression, Rng(11));
  EXPECT_EQ(PackedMlp(dense_net).flopsExecuted(), dense_net.denseFlops());
}

TEST(PackedT, MatchesReferenceAfterTwoStagePruning) {
  Rng rng(0x9e1dUL);
  Mlp net({6, 20, 20, 20, 20, 20, 6}, Head::kSoftmaxClassifier, rng.fork(2));
  magnitudePruneTo(net, 0.6);
  neuronPrune(net, 0.9);
  PackedMlp packed(net);
  // Executed work sits between the paper's mask-aware accounting (live
  // neurons only) and the dense pass the reference engine runs. The bound
  // is inclusive: a layer whose SELL-4 slots would not undercut 40% of its
  // dense panel keeps the panel and walks every weight.
  EXPECT_GE(packed.flopsExecuted(), net.flops());
  EXPECT_LE(packed.flopsExecuted(), net.denseFlops());
  auto scratch = packed.makeScratch();
  std::vector<double> out(static_cast<std::size_t>(net.outputDim()));
  for (int trial = 0; trial < 16; ++trial) {
    const auto x = randomInput(rng, net.inputDim());
    packed.forward(x, scratch, out);
    expectExactlyEqual(net.forward(x), out);
  }
}

TEST(PackedT, BatchedMatchesSingleRowBitForBit) {
  Rng rng(0xba7cUL);
  for (double zf : {0.0, 0.7}) {
    Mlp net = makeMaskedNet(rng, {6, 12, 12, 6}, Head::kSoftmaxClassifier, zf);
    PackedMlp packed(net);
    auto scratch = packed.makeScratch();
    const std::size_t n = 17;
    Matrix rows(n, static_cast<std::size_t>(net.inputDim()));
    for (std::size_t r = 0; r < n; ++r) {
      const auto x = randomInput(rng, net.inputDim());
      std::copy(x.begin(), x.end(), rows.row(r).begin());
    }
    Matrix out(n, static_cast<std::size_t>(net.outputDim()));
    packed.forwardBatch(rows, scratch, out);
    std::vector<double> single(static_cast<std::size_t>(net.outputDim()));
    for (std::size_t r = 0; r < n; ++r) {
      packed.forward(rows.row(r), scratch, single);
      expectExactlyEqual(single, out.row(r));
      expectExactlyEqual(net.forward(rows.row(r)), out.row(r));
    }
  }
}

TEST(PackedT, QuantizedLoweringMatchesQuantizedReference) {
  Rng rng(0x0123UL);
  for (bool quantize_acts : {false, true}) {
    for (QuantBits bits : {QuantBits::kInt8, QuantBits::kInt16}) {
      Mlp net = makeMaskedNet(rng, {6, 12, 12, 6}, Head::kRegression, 0.5);
      Matrix calib(32, static_cast<std::size_t>(net.inputDim()));
      for (double& v : calib.flat()) v = rng.nextGaussian(0.0, 2.0);
      QuantizedMlp qnet(
          net, {.weight_bits = bits, .quantize_activations = quantize_acts},
          calib);
      PackedMlp packed(qnet);
      EXPECT_EQ(packed.inputDim(), net.inputDim());
      EXPECT_EQ(packed.outputDim(), net.outputDim());
      auto scratch = packed.makeScratch();
      std::vector<double> out(static_cast<std::size_t>(net.outputDim()));
      for (int trial = 0; trial < 8; ++trial) {
        const auto x = randomInput(rng, net.inputDim());
        packed.forward(x, scratch, out);
        expectExactlyEqual(qnet.forward(x), out);
        EXPECT_EQ(packed.predictScalar(x, scratch), qnet.predictScalar(x));
      }
    }
  }
}

TEST(PackedT, ForwardPerformsZeroHeapAllocations) {
  Rng rng(0x2a110cUL);
  Mlp net = makeMaskedNet(rng, {6, 20, 20, 20, 20, 20, 6},
                          Head::kSoftmaxClassifier, 0.8);
  PackedMlp packed(net);
  auto scratch = packed.makeScratch();
  std::vector<double> out(static_cast<std::size_t>(net.outputDim()));
  const auto x = randomInput(rng, net.inputDim());
  // Warm call outside the guard (first-touch, lazy anything).
  packed.forward(x, scratch, out);
  {
    AllocationGuard guard;
    for (int i = 0; i < 100; ++i) {
      packed.forward(x, scratch, out);
      (void)packed.predictClass(x, scratch);
    }
    EXPECT_EQ(guard.count(), 0);
  }
  // Batched path: allocation-free once the scratch is reserved.
  const std::size_t n = 8;
  Matrix rows(n, static_cast<std::size_t>(net.inputDim()));
  for (double& v : rows.flat()) v = rng.nextGaussian(0.0, 1.0);
  Matrix batch_out(n, static_cast<std::size_t>(net.outputDim()));
  packed.reserveBatchScratch(scratch, n);
  {
    AllocationGuard guard;
    for (int i = 0; i < 50; ++i) packed.forwardBatch(rows, scratch, batch_out);
    EXPECT_EQ(guard.count(), 0);
  }
}

TEST(PackedT, ScratchContractIsEnforced) {
  Rng rng(0x77UL);
  Mlp net = makeMaskedNet(rng, {4, 8, 3}, Head::kRegression, 0.0);
  PackedMlp packed(net);
  PackedMlp::Scratch tiny;  // deliberately unsized
  std::vector<double> out(3);
  const auto x = randomInput(rng, 4);
  EXPECT_THROW(packed.forward(x, tiny, out), ContractError);
  PackedMlp empty;
  auto scratch = packed.makeScratch();
  EXPECT_THROW(empty.forward(x, scratch, out), ContractError);
  EXPECT_THROW(static_cast<void>(PackedMlp::Scratch{empty.makeScratch()}),
               ContractError);
}

}  // namespace
}  // namespace ssm
