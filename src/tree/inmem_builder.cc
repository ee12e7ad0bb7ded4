#include "tree/inmem_builder.h"

#include <numeric>

#include "tree/column_dataset.h"
#include "tree/columnar_builder.h"

namespace boat {

namespace {

std::unique_ptr<TreeNode> BuildSubtreeInMemoryRows(
    const Schema& schema, std::vector<Tuple> tuples,
    const SplitSelector& selector, const GrowthLimits& limits, int depth) {
  std::vector<int64_t> counts(schema.num_classes(), 0);
  for (const Tuple& t : tuples) ++counts[t.label()];
  const int64_t total = static_cast<int64_t>(tuples.size());

  const bool at_depth_limit = depth >= limits.max_depth;
  const bool too_small = total < limits.min_tuples_to_split;
  const bool below_stop_threshold =
      limits.stop_family_size > 0 && total <= limits.stop_family_size;
  int populated_classes = 0;
  for (const int64_t c : counts) {
    if (c > 0) ++populated_classes;
  }
  // A pure family needs no AVC-group: no split selector would divide it.
  if (at_depth_limit || too_small || below_stop_threshold ||
      populated_classes <= 1) {
    return TreeNode::Leaf(std::move(counts));
  }

  AvcGroup avc = BuildAvcGroup(schema, tuples);
  std::optional<Split> split = selector.ChooseSplit(avc);
  if (!split.has_value()) return TreeNode::Leaf(std::move(counts));

  // The chosen split's AVC-set already knows both child sizes; reserve
  // exactly instead of growing the child vectors geometrically.
  const auto [left_counts, right_counts] =
      split->is_numerical
          ? ChildCountsNumeric(avc.numeric(split->attribute), *split)
          : ChildCountsCategorical(avc.categorical(split->attribute), *split);
  std::vector<Tuple> left_tuples;
  std::vector<Tuple> right_tuples;
  left_tuples.reserve(static_cast<size_t>(
      std::accumulate(left_counts.begin(), left_counts.end(), int64_t{0})));
  right_tuples.reserve(static_cast<size_t>(
      std::accumulate(right_counts.begin(), right_counts.end(), int64_t{0})));
  for (Tuple& t : tuples) {
    (split->SendLeft(t) ? left_tuples : right_tuples)
        .push_back(std::move(t));
  }

  auto left = BuildSubtreeInMemoryRows(schema, std::move(left_tuples),
                                       selector, limits, depth + 1);
  auto right = BuildSubtreeInMemoryRows(schema, std::move(right_tuples),
                                        selector, limits, depth + 1);
  return TreeNode::Internal(*std::move(split), std::move(counts),
                            std::move(left), std::move(right));
}

}  // namespace

DecisionTree BuildTreeInMemoryRows(const Schema& schema,
                                   std::vector<Tuple> tuples,
                                   const SplitSelector& selector,
                                   const GrowthLimits& limits) {
  auto root =
      BuildSubtreeInMemoryRows(schema, std::move(tuples), selector, limits, 0);
  return DecisionTree(schema, std::move(root));
}

std::unique_ptr<TreeNode> BuildSubtreeInMemory(const Schema& schema,
                                               std::vector<Tuple> tuples,
                                               const SplitSelector& selector,
                                               const GrowthLimits& limits,
                                               int depth) {
  ColumnDataset data(schema, tuples, limits.num_threads);
  tuples.clear();
  tuples.shrink_to_fit();
  return BuildSubtreeColumnar(data, selector, limits, depth);
}

DecisionTree BuildTreeInMemory(const Schema& schema, std::vector<Tuple> tuples,
                               const SplitSelector& selector,
                               const GrowthLimits& limits) {
  auto root =
      BuildSubtreeInMemory(schema, std::move(tuples), selector, limits, 0);
  return DecisionTree(schema, std::move(root));
}

}  // namespace boat
