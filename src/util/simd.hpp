// Portable fixed-width SIMD layer: vec<double, W> over AVX-512 / AVX2 /
// SSE2 / NEON with a generic scalar fallback.
//
// Why an explicit layer instead of autovectorizer hints: the hot row kernels
// (Jacobi, varcoef, box27 and above all the 19-array D3Q19 gather) are
// exactly the loops compilers vectorize unreliably, and the perfmodel
// ranks schedules assuming full-width stores.  vec gives the kernels
// guaranteed vector code while preserving the library's bit-identity
// contract: every vec operation is the ELEMENTWISE IEEE-754 double
// operation — one add/sub/mul/div per lane, no reductions, no FMA — so a
// kernel that evaluates the scalar expression tree per lane produces
// bit-identical results to the scalar kernel, lane for lane.  (The build
// adds -ffp-contract=off globally so the scalar side cannot silently
// contract a*b+c into the FMA the vector side never uses.)
//
// ISA selection is a CMake decision (TB_SIMD=auto|avx512|avx2|neon|
// scalar, see the root CMakeLists.txt):
//  * auto    — whatever the compiler flags enable (__AVX512F__ &c.)
//  * forced  — TB_SIMD_REQUIRE_<ISA> makes a missing ISA a compile error
//              instead of a silent scalar fallback
//  * scalar  — TB_SIMD_FORCE_SCALAR disables every intrinsic path; the
//              generic array-backed template remains (and is free to be
//              auto-vectorized — elementwise semantics are unchanged)
//
// The primary template works for ANY width (vec<double, 3> is legal) and
// is the reference the specializations are tested against bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

#if !defined(TB_SIMD_FORCE_SCALAR)
#if defined(__AVX512F__)
#define TB_SIMD_AVX512 1
#endif
#if defined(__AVX2__)
#define TB_SIMD_AVX2 1
#endif
#if defined(__SSE2__)
#define TB_SIMD_SSE2 1
#endif
#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#define TB_SIMD_NEON 1
#endif
#endif  // !TB_SIMD_FORCE_SCALAR

// TB_SIMD=<isa> promised an ISA the compiler flags do not deliver: fail
// the build instead of silently running scalar code.
#if defined(TB_SIMD_REQUIRE_AVX512) && !defined(TB_SIMD_AVX512)
#error "TB_SIMD=avx512 but __AVX512F__ is not enabled (missing -mavx512f?)"
#endif
#if defined(TB_SIMD_REQUIRE_AVX2) && !defined(TB_SIMD_AVX2)
#error "TB_SIMD=avx2 but __AVX2__ is not enabled (missing -mavx2?)"
#endif
#if defined(TB_SIMD_REQUIRE_NEON) && !defined(TB_SIMD_NEON)
#error "TB_SIMD=neon but __ARM_NEON is not enabled"
#endif

#if defined(TB_SIMD_AVX512) || defined(TB_SIMD_AVX2) || defined(TB_SIMD_SSE2)
#include <immintrin.h>
#elif defined(TB_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace tb::util::simd {

/// The widest double vector the build targets, its display name, and
/// whether true non-temporal (streaming) stores exist for it.  NEON has
/// no cache-bypassing store for float64x2, so streaming reports false
/// there and vec::stream degrades to an aligned store.
#if defined(TB_SIMD_AVX512)
inline constexpr int kNativeWidth = 8;
inline constexpr const char* kIsaName = "avx512";
inline constexpr bool kHasStream = true;
#elif defined(TB_SIMD_AVX2)
inline constexpr int kNativeWidth = 4;
inline constexpr const char* kIsaName = "avx2";
inline constexpr bool kHasStream = true;
#elif defined(TB_SIMD_SSE2)
inline constexpr int kNativeWidth = 2;
inline constexpr const char* kIsaName = "sse2";
inline constexpr bool kHasStream = true;
#elif defined(TB_SIMD_NEON)
inline constexpr int kNativeWidth = 2;
inline constexpr const char* kIsaName = "neon";
inline constexpr bool kHasStream = false;
#else
inline constexpr int kNativeWidth = 1;
inline constexpr const char* kIsaName = "scalar";
inline constexpr bool kHasStream = false;
#endif

/// Generic array-backed vector: the scalar fallback AND the reference
/// semantics of every intrinsic specialization below.  All operations
/// are elementwise IEEE doubles, so any width is bit-identical to the
/// scalar expression per lane.
template <typename T, int W>
struct vec {
  static_assert(W >= 1, "vec width must be positive");
  static constexpr int kWidth = W;
  T lane[W];

  [[nodiscard]] static vec broadcast(T v) {
    vec r;
    for (int l = 0; l < W; ++l) r.lane[l] = v;
    return r;
  }
  [[nodiscard]] static vec load(const T* p) {
    vec r;
    for (int l = 0; l < W; ++l) r.lane[l] = p[l];
    return r;
  }
  [[nodiscard]] static vec loada(const T* p) { return load(p); }
  void store(T* p) const {
    for (int l = 0; l < W; ++l) p[l] = lane[l];
  }
  void storea(T* p) const { store(p); }
  /// Non-temporal store; plain store where no streaming instruction
  /// exists (`p` must be W*sizeof(T)-aligned either way).
  void stream(T* p) const { storea(p); }

  [[nodiscard]] T operator[](int l) const { return lane[l]; }

  friend vec operator+(vec a, vec b) {
    vec r;
    for (int l = 0; l < W; ++l) r.lane[l] = a.lane[l] + b.lane[l];
    return r;
  }
  friend vec operator-(vec a, vec b) {
    vec r;
    for (int l = 0; l < W; ++l) r.lane[l] = a.lane[l] - b.lane[l];
    return r;
  }
  friend vec operator*(vec a, vec b) {
    vec r;
    for (int l = 0; l < W; ++l) r.lane[l] = a.lane[l] * b.lane[l];
    return r;
  }
  friend vec operator/(vec a, vec b) {
    vec r;
    for (int l = 0; l < W; ++l) r.lane[l] = a.lane[l] / b.lane[l];
    return r;
  }

  /// Lanes where cond > 0 take a, the rest take b (the varcoef denom
  /// guard).  The comparison is exact, so per-lane results match the
  /// scalar ternary bit for bit.
  [[nodiscard]] static vec select_gt_zero(vec cond, vec a, vec b) {
    vec r;
    for (int l = 0; l < W; ++l)
      r.lane[l] = cond.lane[l] > T(0) ? a.lane[l] : b.lane[l];
    return r;
  }
};

#if defined(TB_SIMD_SSE2)
template <>
struct vec<double, 2> {
  static constexpr int kWidth = 2;
  __m128d v;

  vec() = default;
  explicit vec(__m128d x) : v(x) {}

  [[nodiscard]] static vec broadcast(double x) {
    return vec(_mm_set1_pd(x));
  }
  [[nodiscard]] static vec load(const double* p) {
    return vec(_mm_loadu_pd(p));
  }
  [[nodiscard]] static vec loada(const double* p) {
    return vec(_mm_load_pd(p));
  }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  void storea(double* p) const { _mm_store_pd(p, v); }
  void stream(double* p) const { _mm_stream_pd(p, v); }

  [[nodiscard]] double operator[](int l) const {
    alignas(16) double t[2];
    storea(t);
    return t[l];
  }

  friend vec operator+(vec a, vec b) { return vec(_mm_add_pd(a.v, b.v)); }
  friend vec operator-(vec a, vec b) { return vec(_mm_sub_pd(a.v, b.v)); }
  friend vec operator*(vec a, vec b) { return vec(_mm_mul_pd(a.v, b.v)); }
  friend vec operator/(vec a, vec b) { return vec(_mm_div_pd(a.v, b.v)); }

  [[nodiscard]] static vec select_gt_zero(vec cond, vec a, vec b) {
    const __m128d m = _mm_cmpgt_pd(cond.v, _mm_setzero_pd());
    return vec(_mm_or_pd(_mm_and_pd(m, a.v), _mm_andnot_pd(m, b.v)));
  }
};
#elif defined(TB_SIMD_NEON)
template <>
struct vec<double, 2> {
  static constexpr int kWidth = 2;
  float64x2_t v;

  vec() = default;
  explicit vec(float64x2_t x) : v(x) {}

  [[nodiscard]] static vec broadcast(double x) {
    return vec(vdupq_n_f64(x));
  }
  [[nodiscard]] static vec load(const double* p) {
    return vec(vld1q_f64(p));
  }
  [[nodiscard]] static vec loada(const double* p) { return load(p); }
  void store(double* p) const { vst1q_f64(p, v); }
  void storea(double* p) const { store(p); }
  void stream(double* p) const { storea(p); }  // no NT store on NEON

  [[nodiscard]] double operator[](int l) const {
    return l == 0 ? vgetq_lane_f64(v, 0) : vgetq_lane_f64(v, 1);
  }

  friend vec operator+(vec a, vec b) { return vec(vaddq_f64(a.v, b.v)); }
  friend vec operator-(vec a, vec b) { return vec(vsubq_f64(a.v, b.v)); }
  friend vec operator*(vec a, vec b) { return vec(vmulq_f64(a.v, b.v)); }
  friend vec operator/(vec a, vec b) { return vec(vdivq_f64(a.v, b.v)); }

  [[nodiscard]] static vec select_gt_zero(vec cond, vec a, vec b) {
    const uint64x2_t m = vcgtq_f64(cond.v, vdupq_n_f64(0.0));
    return vec(vbslq_f64(m, a.v, b.v));
  }
};
#endif

#if defined(TB_SIMD_AVX2)
template <>
struct vec<double, 4> {
  static constexpr int kWidth = 4;
  __m256d v;

  vec() = default;
  explicit vec(__m256d x) : v(x) {}

  [[nodiscard]] static vec broadcast(double x) {
    return vec(_mm256_set1_pd(x));
  }
  [[nodiscard]] static vec load(const double* p) {
    return vec(_mm256_loadu_pd(p));
  }
  [[nodiscard]] static vec loada(const double* p) {
    return vec(_mm256_load_pd(p));
  }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  void storea(double* p) const { _mm256_store_pd(p, v); }
  void stream(double* p) const { _mm256_stream_pd(p, v); }

  [[nodiscard]] double operator[](int l) const {
    alignas(32) double t[4];
    storea(t);
    return t[l];
  }

  friend vec operator+(vec a, vec b) { return vec(_mm256_add_pd(a.v, b.v)); }
  friend vec operator-(vec a, vec b) { return vec(_mm256_sub_pd(a.v, b.v)); }
  friend vec operator*(vec a, vec b) { return vec(_mm256_mul_pd(a.v, b.v)); }
  friend vec operator/(vec a, vec b) { return vec(_mm256_div_pd(a.v, b.v)); }

  [[nodiscard]] static vec select_gt_zero(vec cond, vec a, vec b) {
    const __m256d m =
        _mm256_cmp_pd(cond.v, _mm256_setzero_pd(), _CMP_GT_OQ);
    return vec(_mm256_blendv_pd(b.v, a.v, m));
  }
};
#endif

#if defined(TB_SIMD_AVX512)
template <>
struct vec<double, 8> {
  static constexpr int kWidth = 8;
  __m512d v;

  vec() = default;
  explicit vec(__m512d x) : v(x) {}

  [[nodiscard]] static vec broadcast(double x) {
    return vec(_mm512_set1_pd(x));
  }
  [[nodiscard]] static vec load(const double* p) {
    return vec(_mm512_loadu_pd(p));
  }
  [[nodiscard]] static vec loada(const double* p) {
    return vec(_mm512_load_pd(p));
  }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  void storea(double* p) const { _mm512_store_pd(p, v); }
  void stream(double* p) const { _mm512_stream_pd(p, v); }

  [[nodiscard]] double operator[](int l) const {
    alignas(64) double t[8];
    storea(t);
    return t[l];
  }

  friend vec operator+(vec a, vec b) { return vec(_mm512_add_pd(a.v, b.v)); }
  friend vec operator-(vec a, vec b) { return vec(_mm512_sub_pd(a.v, b.v)); }
  friend vec operator*(vec a, vec b) { return vec(_mm512_mul_pd(a.v, b.v)); }
  friend vec operator/(vec a, vec b) { return vec(_mm512_div_pd(a.v, b.v)); }

  [[nodiscard]] static vec select_gt_zero(vec cond, vec a, vec b) {
    const __mmask8 m =
        _mm512_cmp_pd_mask(cond.v, _mm512_setzero_pd(), _CMP_GT_OQ);
    return vec(_mm512_mask_blend_pd(m, b.v, a.v));
  }
};
#endif

/// The build's native double vector.
using dvec = vec<double, kNativeWidth>;

/// Read-prefetch hint (high temporal locality).  Safe on any address —
/// prefetches never fault — so software-prefetch distances need no
/// end-of-row clamping.
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// Store fence after a run of non-temporal stores (no-op on targets
/// without streaming stores).
inline void store_fence() {
#if defined(TB_SIMD_AVX512) || defined(TB_SIMD_AVX2) || defined(TB_SIMD_SSE2)
  _mm_sfence();
#endif
}

}  // namespace tb::util::simd
