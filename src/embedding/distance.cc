// Runtime-dispatched distance kernels. The scalar reference kernels are
// the semantic ground truth; the AVX2+FMA (x86) and NEON (aarch64)
// variants reorder the accumulation (wider partial sums) but keep every
// multiply/subtract bit-identical per lane, so they agree with the scalar
// kernels to within re-association error (~1e-6 relative at dim 300).
//
// Dispatch happens once, at static-initialization time, into plain
// function pointers: the hot loops in brute-force scan, HNSW traversal,
// IVF probing, and k-means assignment all call through `simd::dot_product`
// / `simd::l2_squared` with no per-call feature test. The pointers are
// constant-initialized to the scalar kernels so any caller that runs
// before this TU's dynamic initializers (e.g. another TU's static
// constructor) still gets correct results.

#include "embedding/distance.h"

#include "common/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MLFS_DISTANCE_X86 1
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#define MLFS_DISTANCE_NEON 1
#endif

namespace mlfs {

float DotProductScalar(const float* a, const float* b, size_t dim) {
  float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    s0 += a[j] * b[j];
    s1 += a[j + 1] * b[j + 1];
    s2 += a[j + 2] * b[j + 2];
    s3 += a[j + 3] * b[j + 3];
  }
  for (; j < dim; ++j) s0 += a[j] * b[j];
  return s0 + s1 + s2 + s3;
}

float L2SquaredScalar(const float* a, const float* b, size_t dim) {
  float s0 = 0, s1 = 0;
  size_t j = 0;
  for (; j + 2 <= dim; j += 2) {
    float d0 = a[j] - b[j];
    float d1 = a[j + 1] - b[j + 1];
    s0 += d0 * d0;
    s1 += d1 * d1;
  }
  for (; j < dim; ++j) {
    float d = a[j] - b[j];
    s0 += d * d;
  }
  return s0 + s1;
}

namespace simd {
namespace {

#if MLFS_DISTANCE_X86

__attribute__((target("avx2,fma"))) float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_movehdup_ps(sum));
  return _mm_cvtss_f32(sum);
}

__attribute__((target("avx2,fma"))) float DotProductAvx2(const float* a,
                                                         const float* b,
                                                         size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t j = 0;
  for (; j + 16 <= dim; j += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 8),
                           _mm256_loadu_ps(b + j + 8), acc1);
  }
  if (j + 8 <= dim) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
    j += 8;
  }
  float sum = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; j < dim; ++j) sum += a[j] * b[j];
  return sum;
}

__attribute__((target("avx2,fma"))) float L2SquaredAvx2(const float* a,
                                                        const float* b,
                                                        size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t j = 0;
  for (; j + 16 <= dim; j += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j));
    __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + j + 8),
                              _mm256_loadu_ps(b + j + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  if (j + 8 <= dim) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
    j += 8;
  }
  float sum = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; j < dim; ++j) {
    float d = a[j] - b[j];
    sum += d * d;
  }
  return sum;
}

#endif  // MLFS_DISTANCE_X86

#if MLFS_DISTANCE_NEON

float DotProductNeon(const float* a, const float* b, size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0);
  float32x4_t acc1 = vdupq_n_f32(0);
  size_t j = 0;
  for (; j + 8 <= dim; j += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + j), vld1q_f32(b + j));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + j + 4), vld1q_f32(b + j + 4));
  }
  if (j + 4 <= dim) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + j), vld1q_f32(b + j));
    j += 4;
  }
  float sum = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; j < dim; ++j) sum += a[j] * b[j];
  return sum;
}

float L2SquaredNeon(const float* a, const float* b, size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0);
  float32x4_t acc1 = vdupq_n_f32(0);
  size_t j = 0;
  for (; j + 8 <= dim; j += 8) {
    float32x4_t d0 = vsubq_f32(vld1q_f32(a + j), vld1q_f32(b + j));
    float32x4_t d1 = vsubq_f32(vld1q_f32(a + j + 4), vld1q_f32(b + j + 4));
    acc0 = vfmaq_f32(acc0, d0, d0);
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  if (j + 4 <= dim) {
    float32x4_t d = vsubq_f32(vld1q_f32(a + j), vld1q_f32(b + j));
    acc0 = vfmaq_f32(acc0, d, d);
    j += 4;
  }
  float sum = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; j < dim; ++j) {
    float d = a[j] - b[j];
    sum += d * d;
  }
  return sum;
}

#endif  // MLFS_DISTANCE_NEON

std::string_view g_level = "scalar";

}  // namespace

KernelFn dot_product = DotProductScalar;
KernelFn l2_squared = L2SquaredScalar;

namespace {

// Dynamic initializer: upgrades the constant-initialized scalar pointers
// to the best ISA available. Runs before main(); callers that run earlier
// (other TUs' static initializers) see the scalar kernels, which is safe.
const bool g_dispatched = [] {
#if MLFS_DISTANCE_X86
  if (CpuHasAvx2Fma()) {
    dot_product = DotProductAvx2;
    l2_squared = L2SquaredAvx2;
    g_level = "avx2+fma";
  }
#elif MLFS_DISTANCE_NEON
  dot_product = DotProductNeon;
  l2_squared = L2SquaredNeon;
  g_level = "neon";
#endif
  return true;
}();

}  // namespace

std::string_view LevelName() { return g_level; }

}  // namespace simd
}  // namespace mlfs
