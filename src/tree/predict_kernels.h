// Block scoring kernel for CompiledTree::Predict.
//
// The batch path scores tuples in L2-sized blocks. Each block is transposed
// once into a column-major scratch pane (one contiguous row of doubles per
// split attribute), then the kernel walks *tree levels over the whole block*
// instead of whole root-to-leaf paths over one tuple: every active lane
// advances one level per sweep through branchless index arithmetic
// (`next = pair_child[2 * node + go_right]`, leaves self-loop), settled
// lanes are compacted out, and their labels are written the moment they
// reach a leaf. The loads of different lanes are independent, so the
// memory-level parallelism the per-tuple walk cannot express is exposed to
// the hardware — and to SIMD.
//
// The one block kernel is AVX2, on x86-64 CPUs that support it; everywhere
// else CompiledTree scores with the per-tuple loop. Its predictions must be
// byte-identical to DecisionTree::Classify (the equivalence matrix in
// tests/compiled_tree_test.cpp checks it against the pointer walk).

#ifndef BOAT_TREE_PREDICT_KERNELS_H_
#define BOAT_TREE_PREDICT_KERNELS_H_

#include <cstdint>

namespace boat::detail {

/// \brief POD view over a CompiledTree's node pool, precomputed for the
/// block kernel. All arrays are indexed by the dense preorder node id
/// except `slot_domain_bits`, which is indexed by column slot.
struct NodePoolView {
  const int32_t* slot;           ///< column slot of the split attr; leaf: 0
  const double* threshold;       ///< numeric: go left iff value <= threshold
  const int32_t* bitset_offset;  ///< word offset into bits; -1 = numeric
  /// Adjacent child pairs: [2n] = left child, [2n + 1] = right child.
  /// Leaves store their own id in both slots (self-loop), so
  /// `pair_child[2n] == n` is the leaf test and level sweeps never branch
  /// on node kind.
  const int32_t* pair_child;
  const uint64_t* bits;          ///< shared categorical bitset pool
  const int32_t* slot_domain_bits;  ///< per-slot bitset width; 0 = numeric
  const int32_t* label;          ///< leaf: precomputed majority label
};

/// \brief Scores one transposed block. `col` is column-major scratch:
/// the value of column slot s for block-lane i is col[s * stride + i],
/// i in [0, nb). Writes out[i] for every lane. `act_idx` and `act_node` are
/// caller-provided scratch of at least nb + kActPad int32 each (the kernel
/// pads past the live prefix so vector sweeps can overread safely).
using BlockKernelFn = void (*)(const NodePoolView& pool, const double* col,
                               int64_t stride, int64_t nb, int32_t* act_idx,
                               int32_t* act_node, int32_t* out);

/// Scratch padding required past nb in act_idx / act_node.
inline constexpr int64_t kActPad = 8;

#if defined(__x86_64__) || defined(_M_X64)
/// \brief AVX2 block kernel: 8 lanes per sweep, gathered node fields,
/// vector predicate evaluation, mask-compacted active set. Call only when
/// Avx2Supported() is true.
void ScoreBlockAvx2(const NodePoolView& pool, const double* col,
                    int64_t stride, int64_t nb, int32_t* act_idx,
                    int32_t* act_node, int32_t* out);
bool Avx2Supported();
#endif

}  // namespace boat::detail

#endif  // BOAT_TREE_PREDICT_KERNELS_H_
