#include "tree/compiled_tree.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/parallel.h"
#include "common/status.h"
#include "tree/predict_kernels.h"

namespace boat {

namespace {

/// Tuples per block: with the Agrawal schema (9 columns) the transposed
/// pane is 36 KiB — the pane, the active-lane arrays, and the output slice
/// all sit in L2 together on any modern core.
constexpr int64_t kBlockTuples = 512;

/// Static stripe grain for the output array: 16 int32 = one 64-byte cache
/// line, so no two worker threads ever store to the same line of `out`.
constexpr int64_t kOutGrain = 16;

/// Below this batch size the per-tuple loop beats the transpose + sweep
/// setup even when a caller asked for a block kernel explicitly; outputs
/// are identical either way.
constexpr int64_t kMinBlockBatch = 32;

// kAuto's tuple/block crossover. The block kernel wins by streaming a
// batch too large for the cache through a transposed pane; the per-tuple
// walk wins whenever the working set (batch + hot tree levels) stays
// cache-resident, because the block path pays the transpose and the
// level-synchronous sweep re-visits every live lane per level. Measured on
// the Agrawal schema (see BENCH_inference.json for this host's t1 rates):
// the tuple loop is 2-5x faster below ~2k tuples at every depth, the block
// kernel breaks even around 2k tuples for deep (>= ~20 level) trees, and
// shallow trees need ~16k tuples before blocking pays at all.
constexpr int64_t kTupleCrossoverBatch = 2048;   ///< below: always tuple
constexpr int kTupleCrossoverDepth = 20;         ///< deep-tree threshold
constexpr int64_t kTupleCrossoverBatchShallow = 16384;  ///< shallow trees

/// The AVX2 block kernel when this build and CPU have it, else nullptr (the
/// per-tuple loop then scores every batch). Kernel choice never changes
/// predictions (enforced by the equivalence matrix in
/// tests/compiled_tree_test.cpp).
detail::BlockKernelFn SimdBlockKernel() {
#if defined(__x86_64__) || defined(_M_X64)
  if (detail::Avx2Supported()) return &detail::ScoreBlockAvx2;
#endif
  return nullptr;
}

}  // namespace

CompiledTree::CompiledTree(const DecisionTree& tree)
    : schema_(tree.schema()),
      depth_(static_cast<int32_t>(tree.depth())) {
  // Per-attribute bitset widths: the declared cardinality, widened if any
  // split subset mentions a larger category (so the probe bound is exact).
  domain_bits_.assign(static_cast<size_t>(schema_.num_attributes()), 0);
  for (int a = 0; a < schema_.num_attributes(); ++a) {
    if (schema_.IsCategorical(a)) {
      domain_bits_[static_cast<size_t>(a)] = schema_.attribute(a).cardinality;
    }
  }
  std::vector<const TreeNode*> stack;  // explicit stack: depth-safe walks
  stack.push_back(&tree.root());
  while (!stack.empty()) {
    const TreeNode* node = stack.back();
    stack.pop_back();
    if (node->is_leaf()) continue;
    for (const int32_t c : node->split->subset) {
      auto& width = domain_bits_[static_cast<size_t>(node->split->attribute)];
      width = std::max(width, c + 1);
    }
    stack.push_back(node->left.get());
    stack.push_back(node->right.get());
  }

  // Assign preorder ids (left subtree first, so left child = parent + 1) and
  // fill the arrays. Emitting a node costs O(1); categorical nodes also
  // claim a bitset slab in the shared pool.
  struct Frame {
    const TreeNode* node;
    int32_t parent;   // id of the parent, -1 for the root
    bool is_left;     // which child slot of the parent to patch
  };
  std::vector<Frame> work;
  work.push_back({&tree.root(), -1, false});
  while (!work.empty()) {
    const Frame f = work.back();
    work.pop_back();
    const int32_t id = static_cast<int32_t>(attr_.size());
    if (f.parent >= 0) {
      (f.is_left ? left_ : right_)[static_cast<size_t>(f.parent)] = id;
    }
    if (f.node->is_leaf()) {
      attr_.push_back(-1);
      left_.push_back(-1);
      right_.push_back(-1);
      threshold_.push_back(0.0);
      bitset_offset_.push_back(-1);
      label_.push_back(f.node->MajorityLabel());
      continue;
    }
    const Split& split = *f.node->split;
    attr_.push_back(split.attribute);
    left_.push_back(-1);   // patched when the child is emitted
    right_.push_back(-1);
    label_.push_back(-1);
    if (split.is_numerical) {
      threshold_.push_back(split.value);
      bitset_offset_.push_back(-1);
    } else {
      threshold_.push_back(0.0);
      const int32_t width = domain_bits_[static_cast<size_t>(split.attribute)];
      const size_t words = (static_cast<size_t>(width) + 63) / 64;
      const size_t offset = bits_.size();
      if (offset > static_cast<size_t>(
                       std::numeric_limits<int32_t>::max() - 64)) {
        FatalError("CompiledTree: categorical bitset pool exceeds int32");
      }
      bits_.resize(offset + words, 0);
      for (const int32_t c : split.subset) {
        bits_[offset + (static_cast<size_t>(c) >> 6)] |=
            uint64_t{1} << (static_cast<uint32_t>(c) & 63);
      }
      bitset_offset_.push_back(static_cast<int32_t>(offset));
    }
    // Right pushed first so the left child pops next (preorder).
    work.push_back({f.node->right.get(), id, false});
    work.push_back({f.node->left.get(), id, true});
  }

  // ---- Block-kernel layout: column slots + adjacent child pairs.
  // The block kernel indexes pair_child_ at 2 * id, so ids must fit with
  // headroom.
  if (attr_.size() > (size_t{1} << 30)) {
    FatalError("CompiledTree: node pool exceeds the block-kernel id range");
  }
  const size_t nodes = attr_.size();
  std::vector<int32_t> attr_slot(
      static_cast<size_t>(schema_.num_attributes()), -1);
  kslot_.resize(nodes);
  pair_child_.resize(2 * nodes);
  for (size_t n = 0; n < nodes; ++n) {
    if (attr_[n] < 0) {
      // Leaf: self-loop, and a harmless slot 0 so level sweeps can load a
      // value unconditionally (the comparison result is never used).
      kslot_[n] = 0;
      pair_child_[2 * n] = static_cast<int32_t>(n);
      pair_child_[2 * n + 1] = static_cast<int32_t>(n);
      continue;
    }
    auto& slot = attr_slot[static_cast<size_t>(attr_[n])];
    if (slot < 0) {
      // First split on this attribute (preorder, so slot assignment is
      // deterministic): claim the next column slot.
      slot = static_cast<int32_t>(slot_attr_.size());
      slot_attr_.push_back(attr_[n]);
      slot_domain_bits_.push_back(
          domain_bits_[static_cast<size_t>(attr_[n])]);
    }
    kslot_[n] = slot;
    pair_child_[2 * n] = left_[n];
    pair_child_[2 * n + 1] = right_[n];
  }
}

void CompiledTree::Predict(std::span<const Tuple> tuples,
                           std::span<int32_t> out, int num_threads) const {
  PredictWithKernel(tuples, out, num_threads, PredictKernel::kAuto);
}

void CompiledTree::PredictWithKernel(std::span<const Tuple> tuples,
                                     std::span<int32_t> out, int num_threads,
                                     PredictKernel kernel) const {
  if (out.size() != tuples.size()) {
    FatalError("CompiledTree::Predict: output span size mismatch");
  }
  const int64_t n = static_cast<int64_t>(tuples.size());
  if (n == 0) return;
  const int threads = ResolveThreadCount(num_threads);
  if (kernel == PredictKernel::kAuto) {
    // Batch-size/depth crossover (constants above): block the batch only
    // when it is big enough — and, for shallow trees, much bigger — for the
    // transpose + level sweeps to beat the per-tuple walk.
    kernel = (n >= kTupleCrossoverBatch &&
              (depth_ >= kTupleCrossoverDepth ||
               n >= kTupleCrossoverBatchShallow))
                 ? PredictKernel::kSimd
                 : PredictKernel::kScalarTuple;
  }
  const detail::BlockKernelFn block = SimdBlockKernel();
  // Static contiguous stripes (no shared shard counter — fixed-cost work
  // would serialize on it) with cache-line-aligned slab boundaries; every
  // stripe writes only its own output slots, so the result is identical
  // for any thread count and any kernel.
  if (kernel == PredictKernel::kScalarTuple || block == nullptr ||
      n < kMinBlockBatch) {
    ParallelForStatic(n, threads, kOutGrain,
                      [&](int64_t begin, int64_t end, int) {
                        for (int64_t i = begin; i < end; ++i) {
                          out[static_cast<size_t>(i)] =
                              Classify(tuples[static_cast<size_t>(i)]);
                        }
                      });
    return;
  }
  ParallelForStatic(n, threads, kOutGrain,
                    [&](int64_t begin, int64_t end, int) {
                      ScoreRange(tuples, out, begin, end, block);
                    });
}

void CompiledTree::ScoreRange(std::span<const Tuple> tuples,
                              std::span<int32_t> out, int64_t begin,
                              int64_t end, detail::BlockKernelFn fn) const {
  const size_t slots = slot_attr_.size();
  // Per-call (= per-thread) scratch: the transposed column pane plus the
  // two active-lane arrays, padded for the SIMD kernel's full-width sweeps.
  std::vector<double> col(std::max<size_t>(slots, 1) *
                          static_cast<size_t>(kBlockTuples));
  const size_t act_cap =
      static_cast<size_t>(kBlockTuples + detail::kActPad);
  std::vector<int32_t> act(2 * act_cap);
  const detail::NodePoolView pool{
      kslot_.data(),      threshold_.data(),
      bitset_offset_.data(), pair_child_.data(),
      bits_.data(),       slot_domain_bits_.data(),
      label_.data()};
  for (int64_t b = begin; b < end; b += kBlockTuples) {
    const int64_t nb = std::min(kBlockTuples, end - b);
    // Transpose once: column-major pane, one contiguous row per used
    // attribute. Reads each tuple's value vector exactly once.
    for (int64_t i = 0; i < nb; ++i) {
      const std::vector<double>& values =
          tuples[static_cast<size_t>(b + i)].values();
      for (size_t s = 0; s < slots; ++s) {
        col[s * static_cast<size_t>(kBlockTuples) +
            static_cast<size_t>(i)] =
            values[static_cast<size_t>(slot_attr_[s])];
      }
    }
    fn(pool, col.data(), kBlockTuples, nb, act.data(),
       act.data() + act_cap, out.data() + b);
  }
}

std::vector<int32_t> CompiledTree::Predict(std::span<const Tuple> tuples,
                                           int num_threads) const {
  std::vector<int32_t> out(tuples.size());
  Predict(tuples, out, num_threads);
  return out;
}

bool CompiledTree::SimdAvailable() { return SimdBlockKernel() != nullptr; }

const char* CompiledTree::ActiveKernelName() {
  return SimdAvailable() ? "avx2" : "tuple";
}

double CompiledTree::MisclassificationRate(std::span<const Tuple> tuples,
                                           int num_threads) const {
  if (tuples.empty()) return 0.0;
  // Score into uninitialized-capacity storage: Predict writes every slot,
  // so the redundant zero-fill of a sized vector is skipped on this path.
  const auto predicted =
      std::make_unique_for_overwrite<int32_t[]>(tuples.size());
  Predict(tuples, std::span<int32_t>(predicted.get(), tuples.size()),
          num_threads);
  int64_t wrong = 0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (predicted[i] != tuples[i].label()) ++wrong;
  }
  return static_cast<double>(wrong) / static_cast<double>(tuples.size());
}

size_t CompiledTree::pool_bytes() const {
  return attr_.size() * (sizeof(int32_t) * 4 + sizeof(double) +
                         sizeof(int32_t)) +
         bits_.size() * sizeof(uint64_t) +
         domain_bits_.size() * sizeof(int32_t);
}

}  // namespace boat
