#include "boat/bootstrap_phase.h"

#include <algorithm>
#include <optional>

#include "common/parallel.h"
#include "storage/sampling.h"
#include "tree/columnar_builder.h"
#include "tree/inmem_builder.h"

namespace boat {

int64_t CountCoarseNodes(const CoarseNode& root) {
  int64_t n = 1;
  if (root.left != nullptr) n += CountCoarseNodes(*root.left);
  if (root.right != nullptr) n += CountCoarseNodes(*root.right);
  return n;
}

namespace {

std::unique_ptr<CoarseNode> Combine(const std::vector<const TreeNode*>& nodes,
                                    int depth, uint64_t* kills) {
  auto coarse = std::make_unique<CoarseNode>();
  coarse->depth = depth;

  bool any_internal = false;
  bool all_internal = true;
  for (const TreeNode* n : nodes) {
    if (n->is_leaf()) {
      all_internal = false;
    } else {
      any_internal = true;
    }
  }
  if (!all_internal) {
    // At least one bootstrap tree stopped here; the combined tree stops too.
    if (any_internal && kills != nullptr) ++*kills;
    return coarse;  // frontier
  }

  const Split& first = *nodes.front()->split;
  bool agree = true;
  for (const TreeNode* n : nodes) {
    const Split& s = *n->split;
    if (s.attribute != first.attribute ||
        s.is_numerical != first.is_numerical) {
      agree = false;
      break;
    }
    // Categorical: the splitting subsets must be identical (the paper's
    // stringent rule — different subsets make subtrees incomparable).
    if (!s.is_numerical && s.subset != first.subset) {
      agree = false;
      break;
    }
  }
  if (!agree) {
    if (kills != nullptr) ++*kills;
    return coarse;  // frontier
  }

  CoarseCriterion crit;
  crit.attribute = first.attribute;
  crit.is_numerical = first.is_numerical;
  if (first.is_numerical) {
    double lo = first.value;
    double hi = first.value;
    for (const TreeNode* n : nodes) {
      lo = std::min(lo, n->split->value);
      hi = std::max(hi, n->split->value);
    }
    crit.interval_lo = lo;
    crit.interval_hi = hi;
  } else {
    crit.subset = first.subset;
  }
  coarse->criterion = std::move(crit);

  std::vector<const TreeNode*> lefts;
  std::vector<const TreeNode*> rights;
  lefts.reserve(nodes.size());
  rights.reserve(nodes.size());
  for (const TreeNode* n : nodes) {
    lefts.push_back(n->left.get());
    rights.push_back(n->right.get());
  }
  coarse->left = Combine(lefts, depth + 1, kills);
  coarse->right = Combine(rights, depth + 1, kills);
  return coarse;
}

// Routes a sample tuple at a coarse internal node; tuples inside the
// confidence interval are sent to the side of the interval midpoint (a
// heuristic — sample families only shape discretizations and frontier
// estimates, never correctness).
bool SampleGoesLeft(const CoarseCriterion& crit, const Tuple& t) {
  if (!crit.is_numerical) {
    return std::binary_search(crit.subset.begin(), crit.subset.end(),
                              t.category(crit.attribute));
  }
  const double v = t.value(crit.attribute);
  if (v <= crit.interval_lo) return true;
  if (v > crit.interval_hi) return false;
  return v <= 0.5 * (crit.interval_lo + crit.interval_hi);
}

// Fills sample_family, frontier decisions and discretizations, top-down.
void Decorate(CoarseNode* node, std::vector<Tuple> family,
              const Schema& schema, const SplitSelector& selector,
              const SamplingPhaseOptions& opts, double scale) {
  node->sample_family = static_cast<int64_t>(family.size());
  node->sample_pure = true;
  for (const Tuple& t : family) {
    if (t.label() != family.front().label()) {
      node->sample_pure = false;
      break;
    }
  }
  if (node->is_frontier()) return;

  const double estimated_family = static_cast<double>(family.size()) * scale;
  if (estimated_family <=
      static_cast<double>(opts.frontier_threshold)) {
    // Family expected to fit in memory: stop optimistic construction here.
    node->criterion.reset();
    node->left.reset();
    node->right.reset();
    return;
  }

  const bool impurity_mode = selector.kind() == SelectorKind::kImpurity;
  std::optional<AvcGroup> avc;
  if (impurity_mode || opts.exact_coarse) {
    avc.emplace(BuildAvcGroup(schema, family));
  }

  if (opts.exact_coarse && node->criterion->is_numerical) {
    // Widen the (degenerate) interval by a fraction of the node's distinct
    // values on each side so moderate drift keeps the criterion valid.
    CoarseCriterion& crit = *node->criterion;
    const NumericAvc& navc = avc->numeric(crit.attribute);
    int64_t pos = 0;
    while (pos < navc.num_values() && navc.value(pos) < crit.interval_lo) {
      ++pos;
    }
    const int64_t widen = std::max<int64_t>(
        1, static_cast<int64_t>(opts.exact_interval_widen *
                                static_cast<double>(navc.num_values())));
    const int64_t lo_pos = std::max<int64_t>(0, pos - widen);
    const int64_t hi_pos =
        std::min<int64_t>(navc.num_values() - 1, pos + widen);
    crit.interval_lo = std::min(crit.interval_lo, navc.value(lo_pos));
    crit.interval_hi = std::max(crit.interval_hi, navc.value(hi_pos));
  }

  if (impurity_mode) {
    const auto& impurity =
        static_cast<const ImpuritySplitSelector&>(selector).impurity();
    node->discretizations.assign(schema.num_attributes(), Discretization());
    for (int attr = 0; attr < schema.num_attributes(); ++attr) {
      if (!schema.IsNumerical(attr)) continue;
      node->discretizations[attr] = BuildAdaptiveDiscretization(
          avc->numeric(attr), impurity, opts.max_buckets_per_attr);
    }
    const CoarseCriterion& crit = *node->criterion;
    if (crit.is_numerical) {
      // Force bucket boundaries at the interval endpoints so every bucket of
      // the coarse splitting attribute lies entirely inside or outside it.
      node->discretizations[crit.attribute].AddBoundary(crit.interval_lo);
      node->discretizations[crit.attribute].AddBoundary(crit.interval_hi);
    }
  }

  std::vector<Tuple> left_family;
  std::vector<Tuple> right_family;
  for (Tuple& t : family) {
    (SampleGoesLeft(*node->criterion, t) ? left_family : right_family)
        .push_back(std::move(t));
  }
  family.clear();
  family.shrink_to_fit();
  Decorate(node->left.get(), std::move(left_family), schema, selector, opts,
           scale);
  Decorate(node->right.get(), std::move(right_family), schema, selector, opts,
           scale);
}

}  // namespace

std::unique_ptr<CoarseNode> CombineBootstrapTrees(
    const std::vector<DecisionTree>& trees, uint64_t* kills) {
  std::vector<const TreeNode*> roots;
  roots.reserve(trees.size());
  for (const DecisionTree& t : trees) roots.push_back(&t.root());
  return Combine(roots, /*depth=*/0, kills);
}

Result<SamplingPhaseResult> BuildCoarseFromSample(
    std::vector<Tuple> sample, uint64_t db_size,
    const SplitSelector& selector, const SamplingPhaseOptions& opts,
    Rng* rng) {
  SamplingPhaseResult result;
  result.sample = std::move(sample);
  result.db_size = db_size;
  if (result.sample.empty()) {
    result.coarse_root = std::make_unique<CoarseNode>();  // frontier root
    return result;
  }
  if (opts.schema == nullptr) {
    return Status::Internal("BuildCoarseFromSample requires opts.schema");
  }
  const Schema& schema = *opts.schema;

  if (opts.exact_coarse) {
    GrowthLimits exact_limits = opts.limits;
    exact_limits.stop_family_size =
        std::max(exact_limits.stop_family_size, opts.frontier_threshold);
    std::vector<DecisionTree> trees;
    trees.push_back(
        BuildTreeInMemory(schema, result.sample, selector, exact_limits));
    result.coarse_root =
        CombineBootstrapTrees(trees, &result.bootstrap_kills);
    Decorate(result.coarse_root.get(), result.sample, schema, selector, opts,
             /*scale=*/1.0);
    if (opts.keep_bootstrap_trees) result.bootstrap_trees = std::move(trees);
    return result;
  }

  // Bootstrap tree growth stops where the *estimated* full family would
  // reach the frontier threshold: a bootstrap family of f tuples estimates a
  // full family of f * |D| / subsample_size.
  const double per_tuple_weight =
      static_cast<double>(result.db_size) /
      static_cast<double>(std::max<size_t>(opts.bootstrap_subsample, 1));
  GrowthLimits bootstrap_limits = opts.limits;
  bootstrap_limits.stop_family_size = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(opts.frontier_threshold) /
                              per_tuple_weight));

  // One global thread budget for the phase: trees fan out first (they are
  // the coarser work unit), and whatever budget the outer loop cannot use
  // goes to intra-tree growth — so b+1 trees on a 2-core host build two at a
  // time serially, while 2 trees on an 8-core host each grow with 4 threads.
  const int budget = ResolveThreadCount(opts.num_threads);
  const int outer_workers = static_cast<int>(
      std::min<int64_t>(opts.bootstrap_count, budget));
  bootstrap_limits.num_threads =
      std::max(1, budget / std::max(outer_workers, 1));

  // Each tree draws its subsample from its own Split(i) stream, so tree i is
  // a pure function of (rng state, i): building the trees concurrently in
  // any order or on any thread count yields the identical coarse tree.
  //
  // All b+1 resamples are multisets over the one sample, so every bootstrap
  // tree grows as a weight vector over a single sealed master dataset: the
  // per-attribute root sort is paid once for the whole phase and no resample
  // is ever materialized. The index stream of SampleIndicesWithReplacement
  // matches SampleWithReplacement exactly, so each tree is the one the
  // materialized resample would grow.
  std::vector<std::optional<DecisionTree>> slots(
      static_cast<size_t>(opts.bootstrap_count));
  // Sealed before the fork; the root sorts use the whole budget.
  ColumnDataset master(schema, result.sample, budget);
  ParallelFor(opts.bootstrap_count, outer_workers, [&](int64_t i) {
                Rng tree_rng = rng->Split(static_cast<uint64_t>(i));
                const std::vector<uint32_t> picks =
                    SampleIndicesWithReplacement(result.sample.size(),
                                                 opts.bootstrap_subsample,
                                                 &tree_rng);
                std::vector<int32_t> weights(result.sample.size(), 0);
                for (const uint32_t r : picks) ++weights[r];
                slots[i] = BuildTreeColumnarWeighted(master, weights, selector,
                                                     bootstrap_limits);
              });
  std::vector<DecisionTree> trees;
  trees.reserve(slots.size());
  for (std::optional<DecisionTree>& s : slots) {
    trees.push_back(std::move(*s));
  }
  result.coarse_root = CombineBootstrapTrees(trees, &result.bootstrap_kills);

  const double scale = static_cast<double>(result.db_size) /
                       static_cast<double>(result.sample.size());
  Decorate(result.coarse_root.get(), result.sample, schema, selector, opts,
           scale);
  if (opts.keep_bootstrap_trees) result.bootstrap_trees = std::move(trees);
  return result;
}

Result<SamplingPhaseResult> RunSamplingPhase(TupleSource* db,
                                             const SplitSelector& selector,
                                             const SamplingPhaseOptions& opts,
                                             Rng* rng) {
  SamplingPhaseOptions with_schema = opts;
  with_schema.schema = &db->schema();

  std::vector<Tuple> sample;
  uint64_t db_size = 0;
  if (opts.exact_coarse) {
    // Exact mode: D' is the whole database.
    BOAT_ASSIGN_OR_RETURN(sample, Materialize(db));
    db_size = sample.size();
  } else {
    BOAT_ASSIGN_OR_RETURN(
        sample, ReservoirSample(db, opts.sample_size, rng, &db_size));
  }
  return BuildCoarseFromSample(std::move(sample), db_size, selector,
                               with_schema, rng);
}

}  // namespace boat
