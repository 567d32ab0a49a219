// Tier selection for the inference kernels. Detection runs once per
// process: the SSMDVFS_FORCE_SCALAR compile definition / environment
// variable pins the scalar tier, otherwise x86-64 hosts that report AVX2
// get the AVX2 table and aarch64 hosts get NEON. A tier is only selected
// when this binary carries its table, so activeKernels() always has one.
#include "nn/simd.hpp"

#include <cstdlib>

#include "nn/simd_kernels.hpp"

namespace ssm {

namespace {

const SimdKernels kScalarKernels{
    &simd_detail::denseLayer<simd_detail::ScalarPolicy>,
    &simd_detail::sellLayer<simd_detail::ScalarPolicy>};

SimdTier detectTier() noexcept {
#if defined(SSMDVFS_FORCE_SCALAR)
  return SimdTier::kScalar;
#else
  // Opt-out escape hatch: any non-empty value other than "0" forces the
  // scalar tier (CI runs the goldens under it).
  const char* env = std::getenv("SSMDVFS_FORCE_SCALAR");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0'))
    return SimdTier::kScalar;
#if defined(__x86_64__)
  const bool avx2 = __builtin_cpu_supports("avx2") &&
                    simd_detail::avx2Kernels() != nullptr;
  return avx2 ? SimdTier::kAvx2 : SimdTier::kScalar;
#elif defined(__aarch64__)
  return SimdTier::kNeon;
#else
  return SimdTier::kScalar;
#endif
#endif
}

bool g_override_set = false;
SimdTier g_override_tier = SimdTier::kScalar;

}  // namespace

SimdTier activeSimdTier() noexcept {
  if (g_override_set) return g_override_tier;
  static const SimdTier detected = detectTier();
  return detected;
}

const SimdKernels* kernelsForTier(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalar:
      return &kScalarKernels;
    case SimdTier::kAvx2:
      return simd_detail::avx2Kernels();
    case SimdTier::kNeon:
      return simd_detail::neonKernels();
  }
  return nullptr;
}

const SimdKernels* activeKernels() noexcept {
  return kernelsForTier(activeSimdTier());
}

const char* simdTierName(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kNeon:
      return "neon";
  }
  return "scalar";
}

void overrideSimdTierForTest(SimdTier tier) noexcept {
  g_override_tier = tier;
  g_override_set = true;
}

void clearSimdTierOverrideForTest() noexcept { g_override_set = false; }

}  // namespace ssm
