// The traditional main-memory greedy top-down tree builder (Figure 1 of the
// paper). This is the reference algorithm: BOAT and RainForest are required
// to produce exactly the tree this builder produces on the same data.
//
// BuildSubtreeInMemory / BuildTreeInMemory grow through the columnar engine
// (tree/columnar_builder.h): one root-time sort per numeric attribute,
// AVC-sets from linear walks over presorted index ranges, stable in-place
// partitions, no per-node allocations. The row-at-a-time engine (...Rows
// below) re-sorts every numeric attribute at every node; no production path
// calls it. It stays as the independent oracle the columnar engine is
// byte-compared against (tests/columnar_equivalence_test.cpp,
// tests/growth_parallel_equivalence_test.cpp, bench_micro's BM_InMemBuild).

#ifndef BOAT_TREE_INMEM_BUILDER_H_
#define BOAT_TREE_INMEM_BUILDER_H_

#include <vector>

#include "split/selector.h"
#include "tree/decision_tree.h"

namespace boat {

/// \brief Grows a subtree from an in-memory family by greedy top-down
/// induction. `depth` is the depth of this subtree's root in the full tree
/// (for the max_depth limit). Consumes `tuples`.
std::unique_ptr<TreeNode> BuildSubtreeInMemory(const Schema& schema,
                                               std::vector<Tuple> tuples,
                                               const SplitSelector& selector,
                                               const GrowthLimits& limits,
                                               int depth);

/// \brief Grows a full decision tree from an in-memory training set.
DecisionTree BuildTreeInMemory(const Schema& schema, std::vector<Tuple> tuples,
                               const SplitSelector& selector,
                               const GrowthLimits& limits = GrowthLimits());

/// \brief The row-at-a-time reference engine: the oracle the columnar
/// engine is tested against.
DecisionTree BuildTreeInMemoryRows(const Schema& schema,
                                   std::vector<Tuple> tuples,
                                   const SplitSelector& selector,
                                   const GrowthLimits& limits =
                                       GrowthLimits());

}  // namespace boat

#endif  // BOAT_TREE_INMEM_BUILDER_H_
