// Tests for the runtime-dispatched SIMD inference kernels and the packed
// int8 engine: bitwise SIMD-vs-scalar equivalence property tests across
// layer shapes, densities and ragged tails (kernel level and PackedMlp
// level), dispatcher consistency, PackedInt8Mlp bit-exactness against
// QuantizedMlp::forwardInt8, the ASIC cycle model, and zero-allocation
// guarantees for the new hot paths (counting global allocator).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "nn/packed_int8.hpp"
#include "nn/packed_mlp.hpp"
#include "nn/quantize.hpp"
#include "nn/simd.hpp"

// ---------------------------------------------------------------------------
// Counting allocator (same pattern as tests/test_packed.cpp): operator-new
// bumps the counter while the gate is open; hot-path tests assert zero.
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

/// Restores runtime tier detection when a test overrides it.
struct TierOverrideGuard {
  ~TierOverrideGuard() { clearSimdTierOverrideForTest(); }
};

/// The host's real tier, independent of any active override.
SimdTier hostTier() {
  clearSimdTierOverrideForTest();
  return activeSimdTier();
}

void expectExactlyEqual(std::span<const double> ref,
                        std::span<const double> got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(ref[i], got[i]) << "component " << i;
}

// -- kernel-level layout builders (clean-room from the simd.hpp contract) ---

struct KernelInputs {
  int in_dim = 0;
  int out_dim = 0;
  std::vector<double> w;  ///< row-major out_dim x in_dim, zeros = pruned
  std::vector<double> bias_padded;
  std::vector<double> panel;           ///< blocked-interleaved dense
  std::vector<double> sell_vals;       ///< SELL-4 slot-major values
  std::vector<std::int32_t> sell_cols;
  std::vector<std::size_t> grpoff;
  std::vector<std::int64_t> nnz;
};

KernelInputs buildLayouts(Rng& rng, int in_dim, int out_dim,
                          double zero_fraction) {
  KernelInputs k;
  k.in_dim = in_dim;
  k.out_dim = out_dim;
  k.w.resize(static_cast<std::size_t>(in_dim) *
             static_cast<std::size_t>(out_dim));
  for (double& v : k.w)
    v = rng.nextBernoulli(zero_fraction) ? 0.0 : rng.nextGaussian(0.0, 1.5);
  const int ngroups = (out_dim + 3) / 4;
  for (int o = 0; o < 4 * ngroups; ++o)
    k.bias_padded.push_back(o < out_dim ? rng.nextGaussian(0.0, 0.5) : 0.0);
  const auto at = [&](int o, int i) {
    return k.w[static_cast<std::size_t>(o) * static_cast<std::size_t>(in_dim) +
               static_cast<std::size_t>(i)];
  };
  // Dense panels: per block, in_dim groups of 4 lane weights.
  for (int g = 0; g < ngroups; ++g)
    for (int i = 0; i < in_dim; ++i)
      for (int lane = 0; lane < 4; ++lane) {
        const int o = 4 * g + lane;
        k.panel.push_back(o < out_dim ? at(o, i) : 0.0);
      }
  // SELL-4 streams with per-row true nnz.
  for (int o = 0; o < 4 * ngroups; ++o) {
    std::int64_t count = 0;
    if (o < out_dim)
      for (int i = 0; i < in_dim; ++i) count += (at(o, i) != 0.0);
    k.nnz.push_back(count);
  }
  std::size_t rel = 0;
  k.grpoff.push_back(rel);
  for (int g = 0; g < ngroups; ++g) {
    std::int64_t width = 0;
    for (int lane = 0; lane < 4; ++lane)
      width = std::max(width, k.nnz[static_cast<std::size_t>(4 * g + lane)]);
    for (std::int64_t s = 0; s < width; ++s)
      for (int lane = 0; lane < 4; ++lane) {
        const int o = 4 * g + lane;
        double val = 0.0;
        std::int32_t col = 0;
        if (o < out_dim && s < k.nnz[static_cast<std::size_t>(o)]) {
          std::int64_t seen = -1;
          for (int i = 0; i < in_dim; ++i) {
            if (at(o, i) != 0.0 && ++seen == s) {
              val = at(o, i);
              col = i;
              break;
            }
          }
        }
        k.sell_vals.push_back(val);
        k.sell_cols.push_back(col);
      }
    rel += static_cast<std::size_t>(4 * width);
    k.grpoff.push_back(rel);
  }
  return k;
}

/// Naive reference for one layer + post-ops. `skip_zeros` mirrors the
/// SELL-4 contract (only exact-zero stored weights are skipped, column order
/// kept).
std::vector<double> naiveLayer(const KernelInputs& k,
                               std::span<const double> in,
                               const SimdPostOp& post, bool skip_zeros) {
  std::vector<double> out(static_cast<std::size_t>(k.out_dim));
  for (int o = 0; o < k.out_dim; ++o) {
    double acc = k.bias_padded[static_cast<std::size_t>(o)];
    for (int i = 0; i < k.in_dim; ++i) {
      const double w = k.w[static_cast<std::size_t>(o) *
                               static_cast<std::size_t>(k.in_dim) +
                           static_cast<std::size_t>(i)];
      if (skip_zeros && w == 0.0) continue;
      acc += w * in[static_cast<std::size_t>(i)];
    }
    if (post.relu) acc = std::max(0.0, acc);
    if (post.requant)
      acc = std::clamp(std::nearbyint(acc / post.act_scale), -post.act_qmax,
                       post.act_qmax) *
            post.act_scale;
    out[static_cast<std::size_t>(o)] = acc;
  }
  return out;
}

/// Every kernel table this binary can execute on the current host.
std::vector<const SimdKernels*> executableTables() {
  std::vector<const SimdKernels*> tables;
  tables.push_back(kernelsForTier(SimdTier::kScalar));
  if (hostTier() != SimdTier::kScalar)
    tables.push_back(kernelsForTier(hostTier()));
  return tables;
}

TEST(SimdDispatch, TierAndTablesAreConsistent) {
  TierOverrideGuard guard;
  const SimdTier tier = hostTier();
  EXPECT_EQ(activeKernels(), kernelsForTier(tier));
  ASSERT_NE(activeKernels(), nullptr);
  EXPECT_NE(activeKernels()->dense, nullptr);
  EXPECT_NE(activeKernels()->sell, nullptr);
  // The template-scalar table always exists (it is the scalar tier).
  const SimdKernels* scalar = kernelsForTier(SimdTier::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_NE(scalar->dense, nullptr);
  EXPECT_NE(scalar->sell, nullptr);
  EXPECT_STREQ(simdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(simdTierName(SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(simdTierName(SimdTier::kNeon), "neon");
  // Overrides take effect and clear.
  overrideSimdTierForTest(SimdTier::kScalar);
  EXPECT_EQ(activeSimdTier(), SimdTier::kScalar);
  EXPECT_EQ(activeKernels(), kernelsForTier(SimdTier::kScalar));
  clearSimdTierOverrideForTest();
  EXPECT_EQ(activeSimdTier(), tier);
}

TEST(SimdKernelsT, DenseAndSellMatchNaiveAcrossShapesAndDensities) {
  Rng rng(0x51d0UL);
  const auto tables = executableTables();
  // Ragged tails (out % 4 != 0), single-row groups, wide/narrow layers.
  const std::vector<std::pair<int, int>> shapes = {
      {1, 1}, {3, 2}, {4, 4}, {7, 5}, {12, 6},
      {6, 12}, {13, 9}, {20, 21}, {5, 16}};
  const std::vector<double> zero_fractions = {0.0, 0.3, 0.7, 0.95, 1.0};
  const std::vector<SimdPostOp> posts = {
      {},
      {.relu = true},
      {.relu = true, .requant = true, .act_scale = 0.37, .act_qmax = 127.0},
      {.requant = true, .act_scale = 0.02, .act_qmax = 32767.0}};
  for (const auto& [in_dim, out_dim] : shapes) {
    for (double zf : zero_fractions) {
      const KernelInputs k = buildLayouts(rng, in_dim, out_dim, zf);
      std::vector<double> in(static_cast<std::size_t>(in_dim));
      for (double& v : in) v = rng.nextGaussian(0.0, 2.0);
      const int ngroups = (out_dim + 3) / 4;
      std::vector<double> out(static_cast<std::size_t>(4 * ngroups));
      for (const SimdPostOp& post : posts) {
        const auto dense_ref = naiveLayer(k, in, post, /*skip_zeros=*/false);
        const auto sparse_ref = naiveLayer(k, in, post, /*skip_zeros=*/true);
        for (const SimdKernels* t : tables) {
          t->dense(k.panel.data(), k.bias_padded.data(), in.data(), in_dim,
                   out_dim, post, out.data());
          expectExactlyEqual(dense_ref, {out.data(), dense_ref.size()});
          t->sell(k.sell_vals.data(), k.sell_cols.data(), k.grpoff.data(),
                  k.nnz.data(), k.bias_padded.data(), in.data(), out_dim,
                  post, out.data());
          expectExactlyEqual(sparse_ref, {out.data(), sparse_ref.size()});
        }
      }
    }
  }
}

TEST(SimdKernelsT, MaskedSellSlotsPreserveNegativeZeroAccumulators) {
  // A padded slot must be excluded by mask, not added: bias -0.0 with no
  // live terms in one lane of a group whose other lane has terms would
  // otherwise flip to +0.0 (-0.0 + 0.0 == +0.0).
  KernelInputs k;
  k.in_dim = 2;
  k.out_dim = 2;  // one group of 4, two padded rows
  k.w = {0.0, 0.0,   // row 0: fully pruned -> zero live slots
         1.0, 2.0};  // row 1: two live slots -> group width 2
  k.bias_padded = {-0.0, 1.0, 0.0, 0.0};
  k.nnz = {0, 2, 0, 0};
  k.grpoff = {0, 8};
  k.sell_vals = {0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0};
  k.sell_cols = {0, 0, 0, 0, 0, 1, 0, 0};
  const std::vector<double> in = {3.0, 4.0};
  std::vector<double> out(4);
  for (const SimdKernels* t : executableTables()) {
    t->sell(k.sell_vals.data(), k.sell_cols.data(), k.grpoff.data(),
            k.nnz.data(), k.bias_padded.data(), in.data(), k.out_dim,
            SimdPostOp{}, out.data());
    EXPECT_TRUE(std::signbit(out[0])) << "dead row lost its -0.0 bias";
    EXPECT_EQ(out[1], 1.0 + 3.0 + 8.0);
  }
}

TEST(SimdPackedT, TierOverrideMatchesScalarEngineBitForBit) {
  Rng rng(0xd15eUL);
  const SimdTier host = hostTier();
  TierOverrideGuard guard;
  const std::vector<std::vector<int>> shapes = {
      {3, 4}, {6, 12, 12, 6}, {5, 21, 7, 3}, {1, 7, 1}};
  for (const auto& dims : shapes) {
    for (Head head : {Head::kSoftmaxClassifier, Head::kRegression}) {
      for (double zf : {0.0, 0.5, 0.9}) {
        Mlp net(dims, head, rng.fork(3));
        if (zf > 0.0) {
          for (std::size_t l = 0; l < net.layerCount(); ++l) {
            auto mask = net.layer(l).mask().flat();
            for (double& m : mask) m = rng.nextBernoulli(zf) ? 0.0 : 1.0;
          }
          net.applyMasks();
        }
        // Scalar-pinned engine: the SSMDVFS_FORCE_SCALAR golden path.
        overrideSimdTierForTest(SimdTier::kScalar);
        PackedMlp scalar_packed(net);
        // Host-tier engine (no-op comparison on scalar-only hosts).
        overrideSimdTierForTest(host);
        PackedMlp vec_packed(net);
        auto s1 = scalar_packed.makeScratch();
        auto s2 = vec_packed.makeScratch();
        std::vector<double> out1(static_cast<std::size_t>(net.outputDim()));
        std::vector<double> out2(out1.size());
        for (int trial = 0; trial < 8; ++trial) {
          std::vector<double> x(static_cast<std::size_t>(net.inputDim()));
          for (double& v : x) v = rng.nextGaussian(0.0, 2.0);
          scalar_packed.forward(x, s1, out1);
          vec_packed.forward(x, s2, out2);
          expectExactlyEqual(out1, out2);
          expectExactlyEqual(net.forward(x), out2);
        }
        // Batched path through the dispatched kernels.
        const std::size_t n = 9;
        Matrix rows(n, static_cast<std::size_t>(net.inputDim()));
        for (double& v : rows.flat()) v = rng.nextGaussian(0.0, 2.0);
        Matrix b1(n, static_cast<std::size_t>(net.outputDim()));
        Matrix b2(n, static_cast<std::size_t>(net.outputDim()));
        scalar_packed.forwardBatch(rows, s1, b1);
        vec_packed.forwardBatch(rows, s2, b2);
        for (std::size_t r = 0; r < n; ++r)
          expectExactlyEqual(b1.row(r), b2.row(r));
      }
    }
  }
}

TEST(SimdPackedT, QuantizedRequantPostOpMatchesAcrossTiers) {
  Rng rng(0x0aceUL);
  const SimdTier host = hostTier();
  TierOverrideGuard guard;
  Mlp net({6, 12, 12, 6}, Head::kSoftmaxClassifier, rng.fork(4));
  Matrix calib(24, 6);
  for (double& v : calib.flat()) v = rng.nextGaussian(0.0, 2.0);
  const QuantizedMlp qnet(
      net, {.weight_bits = QuantBits::kInt8, .quantize_activations = true},
      calib);
  overrideSimdTierForTest(SimdTier::kScalar);
  PackedMlp scalar_packed(qnet);
  overrideSimdTierForTest(host);
  PackedMlp vec_packed(qnet);
  auto s1 = scalar_packed.makeScratch();
  auto s2 = vec_packed.makeScratch();
  std::vector<double> out1(6);
  std::vector<double> out2(6);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.nextGaussian(0.0, 2.0);
    scalar_packed.forward(x, s1, out1);
    vec_packed.forward(x, s2, out2);
    expectExactlyEqual(out1, out2);
    expectExactlyEqual(qnet.forward(x), out2);
  }
}

// -- packed int8 engine -----------------------------------------------------

TEST(PackedInt8T, MatchesForwardInt8BitForBit) {
  Rng rng(0x1888UL);
  for (Head head : {Head::kSoftmaxClassifier, Head::kRegression}) {
    for (const auto& dims : {std::vector<int>{6, 12, 12, 6},
                             std::vector<int>{4, 9, 3},
                             std::vector<int>{5, 7, 7, 7, 2}}) {
      Mlp net(dims, head, rng.fork(5));
      Matrix calib(32, static_cast<std::size_t>(net.inputDim()));
      for (double& v : calib.flat()) v = rng.nextGaussian(0.0, 2.0);
      const QuantizedMlp qnet(
          net, {.weight_bits = QuantBits::kInt8, .quantize_activations = true},
          calib);
      const PackedInt8Mlp packed(qnet);
      EXPECT_EQ(packed.inputDim(), net.inputDim());
      EXPECT_EQ(packed.outputDim(), net.outputDim());
      EXPECT_EQ(packed.layerCount(), net.layerCount());
      auto scratch = packed.makeScratch();
      std::vector<double> out(static_cast<std::size_t>(net.outputDim()));
      for (int trial = 0; trial < 16; ++trial) {
        std::vector<double> x(static_cast<std::size_t>(net.inputDim()));
        for (double& v : x) v = rng.nextGaussian(0.0, 2.0);
        const auto ref = qnet.forwardInt8(x);
        packed.forward(x, scratch, out);
        expectExactlyEqual(ref, out);
        if (head == Head::kSoftmaxClassifier) {
          const int want = static_cast<int>(
              std::max_element(ref.begin(), ref.end()) - ref.begin());
          EXPECT_EQ(packed.predictClass(x, scratch), want);
        }
      }
    }
  }
}

TEST(PackedInt8T, DecisionAgreementWithFloatEngineIsBounded) {
  // Untrained random nets are the worst case for argmax stability; int8
  // weights + activations must still agree on a clear majority of inputs.
  Rng rng(0xfee1UL);
  Mlp net({6, 12, 12, 6}, Head::kSoftmaxClassifier, rng.fork(6));
  Matrix calib(64, 6);
  for (double& v : calib.flat()) v = rng.nextGaussian(0.0, 2.0);
  const QuantizedMlp qnet(
      net, {.weight_bits = QuantBits::kInt8, .quantize_activations = true},
      calib);
  const PackedInt8Mlp packed(qnet);
  auto scratch = packed.makeScratch();
  int agree = 0;
  const int probes = 200;
  for (int t = 0; t < probes; ++t) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.nextGaussian(0.0, 2.0);
    agree += (packed.predictClass(x, scratch) == net.predictClass(x));
  }
  EXPECT_GE(agree, probes / 2);
}

TEST(PackedInt8T, AsicCycleModelMatchesPaper) {
  Rng rng(0xc1caUL);
  // The compressed Decision-maker (§IV.B): 6 -> 12 -> 12 -> 6, 288 MACs.
  // At 2 MACs/cycle + 16 overhead cycles per layer the engine model lands
  // exactly on the paper's 192 cycles/inference (§V.D).
  Mlp compressed({6, 12, 12, 6}, Head::kSoftmaxClassifier, rng.fork(7));
  Matrix calib(8, 6);
  for (double& v : calib.flat()) v = rng.nextGaussian(0.0, 1.0);
  const QuantizedMlp qnet(
      compressed,
      {.weight_bits = QuantBits::kInt8, .quantize_activations = true}, calib);
  const PackedInt8Mlp packed(qnet);
  EXPECT_EQ(packed.asicCyclesPerInference(), 192);
  // Explicit config: {6,12,6} = 72 + 72 MACs -> 36 + 36 cycles + 2*4.
  Mlp tiny({6, 12, 6}, Head::kRegression, rng.fork(8));
  Matrix calib2(8, 6);
  for (double& v : calib2.flat()) v = rng.nextGaussian(0.0, 1.0);
  const QuantizedMlp qtiny(
      tiny, {.weight_bits = QuantBits::kInt8, .quantize_activations = true},
      calib2);
  const PackedInt8Mlp ptiny(qtiny);
  EXPECT_EQ(ptiny.asicCyclesPerInference({.mac_lanes = 2, .pipeline_depth = 4}),
            80);
  // Storage: one byte per weight + 4 bytes per bias.
  EXPECT_EQ(ptiny.modelBytes(), (6 * 12 + 12 * 6) + (12 + 6) * 4);
}

TEST(PackedInt8T, ForwardPerformsZeroHeapAllocations) {
  Rng rng(0xa110cUL);
  Mlp net({6, 12, 12, 6}, Head::kSoftmaxClassifier, rng.fork(9));
  Matrix calib(16, 6);
  for (double& v : calib.flat()) v = rng.nextGaussian(0.0, 2.0);
  const QuantizedMlp qnet(
      net, {.weight_bits = QuantBits::kInt8, .quantize_activations = true},
      calib);
  const PackedInt8Mlp packed(qnet);
  auto scratch = packed.makeScratch();
  std::vector<double> out(6);
  std::vector<double> x(6);
  for (double& v : x) v = rng.nextGaussian(0.0, 2.0);
  packed.forward(x, scratch, out);  // warm call outside the guard
  {
    AllocationGuard guard;
    for (int i = 0; i < 100; ++i) {
      packed.forward(x, scratch, out);
      (void)packed.predictClass(x, scratch);
    }
    EXPECT_EQ(guard.count(), 0);
  }
}

TEST(PackedInt8T, ContractsAreEnforced) {
  Rng rng(0xbadUL);
  Mlp net({4, 8, 3}, Head::kRegression, rng.fork(10));
  Matrix calib(8, 4);
  for (double& v : calib.flat()) v = rng.nextGaussian(0.0, 1.0);
  // No calibrated activations -> not packable and forwardInt8 refuses.
  const QuantizedMlp no_acts(
      net, {.weight_bits = QuantBits::kInt8, .quantize_activations = false},
      calib);
  EXPECT_THROW(static_cast<void>(PackedInt8Mlp{no_acts}), ContractError);
  const std::vector<double> probe = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(static_cast<void>(no_acts.forwardInt8(probe)), ContractError);
  // Int16 weights are outside the int8 datapath.
  const QuantizedMlp wide(
      net, {.weight_bits = QuantBits::kInt16, .quantize_activations = true},
      calib);
  EXPECT_THROW(static_cast<void>(PackedInt8Mlp{wide}), ContractError);
  // Scratch and compiledness contracts.
  const QuantizedMlp ok(
      net, {.weight_bits = QuantBits::kInt8, .quantize_activations = true},
      calib);
  const PackedInt8Mlp packed(ok);
  PackedInt8Mlp::Scratch tiny;
  std::vector<double> out(3);
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(packed.forward(x, tiny, out), ContractError);
  const PackedInt8Mlp empty;
  EXPECT_THROW(static_cast<void>(empty.makeScratch()), ContractError);
}

}  // namespace
}  // namespace ssm
