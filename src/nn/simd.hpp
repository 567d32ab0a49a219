// Runtime-dispatched inference kernels for the packed engine.
//
// The decision path runs one PackedMlp forward per 10 µs epoch, and the
// batched entry points (Calibrator, datagen, evaluation sweeps) run
// thousands; both bottom out in the dense-panel / SELL-4 matvec kernels
// declared here. Every tier runs the same kernel templates
// (simd_kernels.hpp) and differs only in which instructions carry the 4
// lanes, so for finite inputs the host's vector width never changes a
// result:
//
//   * the kernels vectorize ACROSS output rows — each lane owns one output
//     neuron and performs the reference loop's multiply-then-add chain, in
//     the same input order (no FMA contraction, no reassociation), so lane
//     results are bit-identical to Mlp::forward for finite inputs;
//   * post-ops (ReLU, activation requantization) use vector instructions
//     whose IEEE semantics match the scalar std::max / std::nearbyint /
//     std::clamp sequence exactly (see simd_kernels.hpp for the operand
//     order arguments);
//   * tier selection happens once at startup: AVX2 on x86-64 hosts that
//     report it, NEON on aarch64, otherwise the scalar tier, which runs the
//     templates with a plain-arithmetic 4-lane policy. A scalar host, the
//     SSMDVFS_FORCE_SCALAR=1 environment override and the
//     -DSSMDVFS_FORCE_SCALAR=ON CMake option therefore execute the same
//     layouts in the same term order as a vector host, and reproduce its
//     goldens byte-for-byte by construction.
//
// tests/test_simd.cpp property-checks every executable tier against naive
// loops across layer shapes, densities and ragged tails; bench_micro_perf
// records the dispatched tier in BENCH_inference.json so bench_check can
// skip SIMD-specific floors on scalar hosts.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ssm {

/// Vector instruction tier the dispatcher selected.
enum class SimdTier { kScalar, kAvx2, kNeon };

/// Post-op parameters for one layer (PackedMlp stores one per layer).
struct SimdPostOp {
  bool relu = false;
  bool requant = false;
  double act_scale = 1.0;
  double act_qmax = 0.0;
};

/// Whole-layer dense matvec over the blocked-interleaved weight layout:
/// for each 4-row output block, `wblk` stores in_dim groups of 4 lane
/// weights (rows past out_dim zero-padded); `bias` and `out` are padded to
/// a multiple of 4 entries.
using DenseLayerFn = void (*)(const double* wblk, const double* bias,
                              const double* in, int in_dim, int out_dim,
                              const SimdPostOp& post, double* out);

/// Whole-layer sparse matvec over the SELL-4 layout: rows are grouped in
/// fours, `grpoff` holds ngroups+1 offsets into the interleaved
/// `vals`/`cols` streams (group width = (grpoff[g+1]-grpoff[g])/4), and
/// `nnz` gives each row's true nonzero count for the slot-liveness mask.
using SellLayerFn = void (*)(const double* vals, const std::int32_t* cols,
                             const std::size_t* grpoff,
                             const std::int64_t* nnz, const double* bias,
                             const double* in, int out_dim,
                             const SimdPostOp& post, double* out);

struct SimdKernels {
  DenseLayerFn dense = nullptr;
  SellLayerFn sell = nullptr;
};

/// The tier selected for this process: runtime CPU detection, overridden
/// to kScalar by the SSMDVFS_FORCE_SCALAR environment variable / compile
/// definition, or by overrideSimdTierForTest(). Detection runs once and
/// is cached.
[[nodiscard]] SimdTier activeSimdTier() noexcept;

/// Kernel table for the active tier; never nullptr.
[[nodiscard]] const SimdKernels* activeKernels() noexcept;

/// Kernel table for an explicit tier (test hook). kScalar returns the
/// template-compiled scalar kernels — the same kernel templates as the
/// vector tiers lowered to lane-wise arithmetic. Returns nullptr for a
/// tier this binary was not compiled with; calling into a table the host
/// CPU cannot execute is the caller's responsibility to avoid.
[[nodiscard]] const SimdKernels* kernelsForTier(SimdTier tier) noexcept;

/// Stable lower-case tier name ("scalar", "avx2", "neon") for reports.
[[nodiscard]] const char* simdTierName(SimdTier tier) noexcept;

/// Forces activeSimdTier() to report `tier` for subsequent calls (affects
/// PackedMlp instances compiled afterwards). Test-only.
void overrideSimdTierForTest(SimdTier tier) noexcept;

/// Removes the test override, restoring cached runtime detection.
void clearSimdTierOverrideForTest() noexcept;

}  // namespace ssm
