// Columnar greedy top-down tree growth over a sealed ColumnDataset: the
// library's only in-memory growth engine.
//
// Produces the byte-identical tree to the row-at-a-time reference builder
// (BuildTreeInMemoryRows, kept only as the oracle of the equivalence
// tests) for every split selector: AVC-sets are order-free sufficient
// statistics, and both engines feed the selector identical AVC content —
// the columnar one from a single linear walk over the root-sorted index
// permutations instead of a per-node sort.
//
// The weighted variants grow the tree of the *multiset* in which row r
// appears weights[r] times (rows with weight 0 are absent). This is how the
// bootstrap phase grows all b+1 resample trees over one shared master
// dataset — and one shared root sort — without materializing any resample.

#ifndef BOAT_TREE_COLUMNAR_BUILDER_H_
#define BOAT_TREE_COLUMNAR_BUILDER_H_

#include <memory>
#include <vector>

#include "split/selector.h"
#include "tree/column_dataset.h"
#include "tree/decision_tree.h"

namespace boat {

/// \brief Grows a subtree over all rows of `data` (which must be sealed).
/// `depth` is the depth of the subtree's root in the full tree.
std::unique_ptr<TreeNode> BuildSubtreeColumnar(const ColumnDataset& data,
                                               const SplitSelector& selector,
                                               const GrowthLimits& limits,
                                               int depth);

/// \brief Weighted variant: row r participates with multiplicity weights[r]
/// (weights.size() == data.num_rows(); zero-weight rows are skipped).
std::unique_ptr<TreeNode> BuildSubtreeColumnarWeighted(
    const ColumnDataset& data, const std::vector<int32_t>& weights,
    const SplitSelector& selector, const GrowthLimits& limits, int depth);

/// \brief Grows a full decision tree over a sealed ColumnDataset.
DecisionTree BuildTreeColumnar(const ColumnDataset& data,
                               const SplitSelector& selector,
                               const GrowthLimits& limits = GrowthLimits());

/// \brief Weighted full-tree variant (see BuildSubtreeColumnarWeighted).
DecisionTree BuildTreeColumnarWeighted(const ColumnDataset& data,
                                       const std::vector<int32_t>& weights,
                                       const SplitSelector& selector,
                                       const GrowthLimits& limits =
                                           GrowthLimits());

}  // namespace boat

#endif  // BOAT_TREE_COLUMNAR_BUILDER_H_
