// AVX2 block kernel: a level-synchronous sweep with 8 lanes per step. Node
// fields are fetched with vector gathers, the numeric predicate is one
// vcmppd (NLE_UQ, so NaN goes right exactly like Classify's `!(v <= t)`),
// categorical membership is a masked 64-bit gather into the shared bitset
// pool plus a variable shift, and the surviving (still internal) lanes are
// left-packed with a permutevar LUT. Predictions are byte-identical to
// DecisionTree::Classify — only the schedule differs.
//
// This translation unit alone is built with -mavx2 (see src/CMakeLists.txt);
// callers must check Avx2Supported() first, which keeps the rest of the
// library runnable on any x86-64.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstdint>

#include "tree/predict_kernels.h"

namespace boat::detail {

namespace {

// lut[mask] packs, one byte each, the lane indices of mask's set bits in
// ascending order; _mm256_cvtepu8_epi32 of it feeds permutevar8x32 to
// left-pack surviving lanes.
struct CompactLut {
  alignas(64) uint64_t packed[256];
  constexpr CompactLut() : packed() {
    for (int m = 0; m < 256; ++m) {
      uint64_t p = 0;
      int out = 0;
      for (int b = 0; b < 8; ++b) {
        if ((m & (1 << b)) != 0) {
          p |= static_cast<uint64_t>(b) << (8 * out);
          ++out;
        }
      }
      packed[m] = p;
    }
  }
};
constexpr CompactLut kCompactLut{};

// Packs the sign dwords of two 4x64-bit compare masks into one 8x32 mask
// (lanes 0-3 from lo, 4-7 from hi).
inline __m256i PackMask64(__m256i lo, __m256i hi) {
  const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m128i l =
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(lo, even));
  const __m128i h =
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(hi, even));
  return _mm256_set_m128i(h, l);
}

// Unconditional f64 gather via the masked form: GCC's unmasked
// _mm256_i32gather_pd expands through _mm256_undefined_pd and trips
// -Wmaybe-uninitialized under -Werror; the all-ones-mask form is the same
// instruction without the bogus warning.
inline __m256d GatherPd(const double* base, __m128i vindex) {
  const __m256d ones =
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, vindex, ones, 8);
}

}  // namespace

bool Avx2Supported() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void ScoreBlockAvx2(const NodePoolView& pool, const double* col,
                    int64_t stride, int64_t nb, int32_t* act_idx,
                    int32_t* act_node, int32_t* out) {
  if (nb <= 0) return;
  if (pool.pair_child[0] == 0) {  // single-leaf tree
    for (int64_t i = 0; i < nb; ++i) out[i] = pool.label[0];
    return;
  }
  for (int64_t i = 0; i < nb; ++i) {
    act_idx[i] = static_cast<int32_t>(i);
    act_node[i] = 0;
  }
  // Pad so full-width loads past the live prefix see valid lane values
  // (results of padding lanes are discarded via the valid-bit mask).
  for (int64_t i = nb; i < nb + kActPad; ++i) {
    act_idx[i] = 0;
    act_node[i] = 0;
  }

  const auto* node_i32 = reinterpret_cast<const int*>(pool.slot);
  const auto* off_i32 = reinterpret_cast<const int*>(pool.bitset_offset);
  const auto* pair_i32 = reinterpret_cast<const int*>(pool.pair_child);
  const auto* dw_i32 = reinterpret_cast<const int*>(pool.slot_domain_bits);
  const auto* label_i32 = reinterpret_cast<const int*>(pool.label);
  const auto* bits_i64 = reinterpret_cast<const long long*>(pool.bits);

  const __m256i vstride = _mm256_set1_epi32(static_cast<int32_t>(stride));
  const __m256i vneg1 = _mm256_set1_epi32(-1);
  const __m256i v63_64 = _mm256_set1_epi64x(63);
  const __m256i vone_64 = _mm256_set1_epi64x(1);

  int64_t na = nb;
  while (na > 0) {
    int64_t m = 0;
    for (int64_t k = 0; k < na; k += 8) {
      const int valid = static_cast<int>(na - k < 8 ? na - k : 8);
      const unsigned valid_mask = (1u << valid) - 1u;
      const __m256i vidx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(act_idx + k));
      const __m256i vnode = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(act_node + k));

      const __m256i slot = _mm256_i32gather_epi32(node_i32, vnode, 4);
      const __m256i colidx =
          _mm256_add_epi32(_mm256_mullo_epi32(slot, vstride), vidx);
      const __m128i colidx_lo = _mm256_castsi256_si128(colidx);
      const __m128i colidx_hi = _mm256_extracti128_si256(colidx, 1);
      const __m256d v_lo = GatherPd(col, colidx_lo);
      const __m256d v_hi = GatherPd(col, colidx_hi);
      const __m128i vnode_lo = _mm256_castsi256_si128(vnode);
      const __m128i vnode_hi = _mm256_extracti128_si256(vnode, 1);
      const __m256d t_lo = GatherPd(pool.threshold, vnode_lo);
      const __m256d t_hi = GatherPd(pool.threshold, vnode_hi);

      // Numeric: go right iff !(v <= t); NLE_UQ is true for NaN, matching
      // Classify's comparison semantics exactly.
      const __m256i right_num = PackMask64(
          _mm256_castpd_si256(_mm256_cmp_pd(v_lo, t_lo, _CMP_NLE_UQ)),
          _mm256_castpd_si256(_mm256_cmp_pd(v_hi, t_hi, _CMP_NLE_UQ)));

      const __m256i off = _mm256_i32gather_epi32(off_i32, vnode, 4);
      const __m256i is_cat = _mm256_cmpgt_epi32(off, vneg1);
      __m256i right = _mm256_andnot_si256(is_cat, right_num);

      if (_mm256_movemask_epi8(is_cat) != 0) {
        // Categorical: c = (int32)v truncated toward zero (cvttpd matches
        // a C++ cast), left iff 0 <= c < width and bit c is set.
        const __m256i c = _mm256_set_m128i(_mm256_cvttpd_epi32(v_hi),
                                           _mm256_cvttpd_epi32(v_lo));
        const __m256i dw = _mm256_i32gather_epi32(dw_i32, slot, 4);
        const __m256i in_dom = _mm256_and_si256(
            _mm256_cmpgt_epi32(c, vneg1), _mm256_cmpgt_epi32(dw, c));
        const __m256i probe = _mm256_and_si256(is_cat, in_dom);
        const __m256i widx =
            _mm256_add_epi32(off, _mm256_srai_epi32(c, 6));
        const __m128i probe_lo_m = _mm256_castsi256_si128(probe);
        const __m128i probe_hi_m = _mm256_extracti128_si256(probe, 1);
        const __m256i mask_lo = _mm256_cvtepi32_epi64(probe_lo_m);
        const __m256i mask_hi = _mm256_cvtepi32_epi64(probe_hi_m);
        // Out-of-domain / numeric / padding lanes gather nothing (word 0),
        // so their bit is 0 and they fall through to "right", exactly like
        // Classify's short-circuit.
        const __m256i word_lo = _mm256_mask_i32gather_epi64(
            _mm256_setzero_si256(), bits_i64, _mm256_castsi256_si128(widx),
            mask_lo, 8);
        const __m256i word_hi = _mm256_mask_i32gather_epi64(
            _mm256_setzero_si256(), bits_i64,
            _mm256_extracti128_si256(widx, 1), mask_hi, 8);
        const __m256i c64_lo =
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(c));
        const __m256i c64_hi =
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256(c, 1));
        const __m256i bit_lo = _mm256_and_si256(
            _mm256_srlv_epi64(word_lo, _mm256_and_si256(c64_lo, v63_64)),
            vone_64);
        const __m256i bit_hi = _mm256_and_si256(
            _mm256_srlv_epi64(word_hi, _mm256_and_si256(c64_hi, v63_64)),
            vone_64);
        const __m256i left_cat =
            PackMask64(_mm256_cmpeq_epi64(bit_lo, vone_64),
                       _mm256_cmpeq_epi64(bit_hi, vone_64));
        const __m256i right_cat = _mm256_andnot_si256(left_cat, vneg1);
        right = _mm256_or_si256(
            right, _mm256_and_si256(is_cat, right_cat));
      }

      // next = pair_child[2 * node + go_right]; settled iff next self-loops.
      const __m256i right01 = _mm256_srli_epi32(right, 31);
      const __m256i childidx =
          _mm256_add_epi32(_mm256_add_epi32(vnode, vnode), right01);
      const __m256i next = _mm256_i32gather_epi32(pair_i32, childidx, 4);
      const __m256i pc = _mm256_i32gather_epi32(
          pair_i32, _mm256_add_epi32(next, next), 4);
      const __m256i settled = _mm256_cmpeq_epi32(pc, next);
      const __m256i lbl = _mm256_i32gather_epi32(label_i32, next, 4);

      // AVX2 has no scatter: spill lanes and store labels scalar. Internal
      // nodes write -1, overwritten when the lane settles; every lane writes
      // its real label exactly once, so `out` may start uninitialized.
      alignas(32) int32_t idx_buf[8];
      alignas(32) int32_t lbl_buf[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(idx_buf), vidx);
      _mm256_store_si256(reinterpret_cast<__m256i*>(lbl_buf), lbl);
      for (int j = 0; j < valid; ++j) out[idx_buf[j]] = lbl_buf[j];

      // Left-pack surviving lanes onto the active arrays. m <= k always, so
      // the in-place store never overwrites a chunk not yet read.
      const unsigned keep =
          static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(
              _mm256_xor_si256(settled, vneg1)))) &
          valid_mask;
      const __m256i perm = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(
          static_cast<long long>(kCompactLut.packed[keep])));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(act_idx + m),
                          _mm256_permutevar8x32_epi32(vidx, perm));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(act_node + m),
                          _mm256_permutevar8x32_epi32(next, perm));
      m += __builtin_popcount(keep);
    }
    // Re-pad: the tail of the last packed store may hold copies of settled
    // lanes; point padding back at safe lane values.
    for (int64_t i = m; i < m + kActPad && i < nb + kActPad; ++i) {
      act_idx[i] = 0;
      act_node[i] = 0;
    }
    na = m;
  }
}

}  // namespace boat::detail

#endif  // x86-64
