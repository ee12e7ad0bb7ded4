// CompiledTree: an immutable, flat, structure-of-arrays compilation of a
// DecisionTree for high-throughput inference.
//
// DecisionTree::Classify chases std::unique_ptr children one tuple at a
// time; every hop is a dependent pointer load into an arbitrary heap
// location. CompiledTree lays the same tree out as parallel arrays indexed
// by a dense int32 node id (preorder, so the left child of node i is always
// i+1 and the hot edge is a sequential prefetch), replaces categorical
// subset binary searches by packed-bitset probes over the attribute's
// domain, and precomputes every leaf's majority label. Predictions are
// guaranteed identical to DecisionTree::Classify for every input — the
// compilation is a pure layout change (see DESIGN.md, "CompiledTree").
//
// Batched scoring (Predict) stripes the input statically over worker
// threads (contiguous per-thread output slabs, boundaries on cache-line
// multiples — no shared work-queue counter, no false sharing). Each stripe
// runs one of two kernels: the per-tuple Classify loop, or — on x86-64 CPUs
// with AVX2 — the blocked kernel, which transposes L2-sized blocks into a
// column-major scratch pane and walks tree levels over the whole block
// (tree/predict_kernels.h; DESIGN.md, "Blocked batch inference"). Every
// kernel x thread-count combination produces predictions byte-identical to
// DecisionTree::Classify. kAuto picks the per-tuple loop for batches below
// a measured batch-size/depth crossover (small or cache-resident batches,
// shallow trees) and the AVX2 kernel above it when the CPU has one.

#ifndef BOAT_TREE_COMPILED_TREE_H_
#define BOAT_TREE_COMPILED_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "tree/decision_tree.h"
#include "tree/predict_kernels.h"

namespace boat {

/// \brief Batch-scoring kernel selection for CompiledTree::PredictWithKernel.
/// All kernels produce byte-identical predictions; this exists for the
/// equivalence tests and benchmarks.
enum class PredictKernel {
  kAuto = 0,     ///< batch/depth crossover dispatch
  kScalarTuple,  ///< reference per-tuple Classify loop (no blocking)
  kSimd,         ///< AVX2 block kernel; per-tuple loop if unavailable
};

class CompiledTree {
 public:
  /// \brief Compiles `tree` into the flat layout. O(nodes) time and space;
  /// the result is independent of `tree`'s lifetime.
  explicit CompiledTree(const DecisionTree& tree);

  /// \brief Predicts the class label of one record. Identical to
  /// DecisionTree::Classify on the source tree for every tuple.
  [[nodiscard]] int32_t Classify(const Tuple& tuple) const {
    int32_t i = 0;
    while (attr_[static_cast<size_t>(i)] >= 0) {
      const size_t n = static_cast<size_t>(i);
      const int attr = attr_[n];
      bool left;
      const int32_t bits = bitset_offset_[n];
      if (bits < 0) {
        left = tuple.value(attr) <= threshold_[n];
      } else {
        const int32_t c = tuple.category(attr);
        left = c >= 0 && c < domain_bits_[static_cast<size_t>(attr)] &&
               ((bits_[static_cast<size_t>(bits) +
                       (static_cast<size_t>(c) >> 6)] >>
                 (static_cast<uint32_t>(c) & 63)) &
                1) != 0;
      }
      i = left ? left_[n] : right_[n];
    }
    return label_[static_cast<size_t>(i)];
  }

  /// \brief Batched scoring: out[i] = Classify(tuples[i]). `out` must have
  /// exactly tuples.size() elements and may be uninitialized — every slot
  /// is written. With num_threads != 1 (0 = all hardware cores) the batch
  /// is striped statically into contiguous per-thread slabs whose
  /// boundaries fall on cache-line multiples; every thread writes only its
  /// own slab, so any thread count produces identical output.
  void Predict(std::span<const Tuple> tuples, std::span<int32_t> out,
               int num_threads = 1) const;

  /// \brief Convenience overload returning the predictions. Hot callers
  /// should prefer the span overload with a reused / uninitialized buffer:
  /// this one value-initializes the vector before scoring overwrites it.
  std::vector<int32_t> Predict(std::span<const Tuple> tuples,
                               int num_threads = 1) const;

  /// \brief Predict with an explicit kernel choice (tests and benchmarks;
  /// production callers use Predict, i.e. PredictKernel::kAuto). Output is
  /// byte-identical across kernels by contract.
  void PredictWithKernel(std::span<const Tuple> tuples,
                         std::span<int32_t> out, int num_threads,
                         PredictKernel kernel) const;

  /// \brief True when the AVX2 block kernel exists for this build and CPU.
  static bool SimdAvailable();

  /// \brief Name of the kernel kAuto uses above its crossover: "avx2" when
  /// SimdAvailable(), otherwise "tuple". Sub-crossover batches always use
  /// the per-tuple loop.
  static const char* ActiveKernelName();

  /// \brief Fraction of `tuples` whose label differs from the prediction.
  double MisclassificationRate(std::span<const Tuple> tuples,
                               int num_threads = 1) const;

  const Schema& schema() const { return schema_; }
  size_t num_nodes() const { return attr_.size(); }
  /// \brief Bytes of the node pool (diagnostics; excludes the schema).
  size_t pool_bytes() const;

 private:
  /// Scores [begin, end) of `tuples` through the block kernel `fn`:
  /// L2-sized blocks, transposed into a per-call column scratch pane.
  void ScoreRange(std::span<const Tuple> tuples, std::span<int32_t> out,
                  int64_t begin, int64_t end,
                  detail::BlockKernelFn fn) const;

  Schema schema_;
  /// Max root-to-leaf depth of the source tree; input to kAuto's
  /// batch-size/depth crossover (deep trees amortize the block transpose
  /// sooner).
  int32_t depth_ = 0;
  // Parallel node arrays, preorder. attr_[i] < 0 marks a leaf.
  std::vector<int32_t> attr_;           ///< split attribute; -1 = leaf
  std::vector<int32_t> left_;           ///< child id when predicate holds
  std::vector<int32_t> right_;          ///< child id otherwise
  std::vector<double> threshold_;       ///< numeric: go left iff v <= t
  std::vector<int32_t> bitset_offset_;  ///< word offset into bits_; -1 = numeric
  std::vector<int32_t> label_;          ///< leaf: precomputed majority label
  /// Packed categorical subsets: bitset_offset_[i] points at the first of
  /// domain_bits_[attr]/64 (rounded up) words; bit c set = category c goes
  /// left. One shared pool keeps the per-node footprint at a single int32.
  std::vector<uint64_t> bits_;
  /// Per-attribute bitset width: the attribute's cardinality, widened when a
  /// split subset mentions a category beyond it (defensive; categories
  /// outside [0, width) always go right, exactly like the binary search on
  /// an absent subset element).
  std::vector<int32_t> domain_bits_;

  // ---- Block-kernel layout (derived from the arrays above; see
  // tree/predict_kernels.h). Only attributes actually referenced by a split
  // get a column slot, so the per-block transpose never reads tuple values
  // the tree cannot inspect.
  std::vector<int32_t> kslot_;       ///< node -> column slot (leaf: 0)
  std::vector<int32_t> pair_child_;  ///< [2n]=left, [2n+1]=right; leaf: self
  std::vector<int32_t> slot_attr_;   ///< column slot -> attribute id
  std::vector<int32_t> slot_domain_bits_;  ///< per-slot bitset width; 0=num
};

}  // namespace boat

#endif  // BOAT_TREE_COMPILED_TREE_H_
