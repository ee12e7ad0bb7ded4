#include "boat/cleanup.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <unordered_set>

#include "boat/bounds.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "storage/sampling.h"
#include "storage/table_file.h"
#include "tree/columnar_builder.h"

namespace boat {

namespace {

// Shifts all depths in a grafted sub-model by `delta`.
void OffsetDepths(ModelNode* node, int delta) {
  node->depth += delta;
  if (node->left != nullptr) OffsetDepths(node->left.get(), delta);
  if (node->right != nullptr) OffsetDepths(node->right.get(), delta);
}

// Marks a whole grafted sub-model with the rebuild count of the position it
// replaces: if the region's statistics are unstable, every node in it is
// suspect, and repeated failures anywhere inside demote the region to plain
// in-memory maintenance.
void SetRebuildCount(ModelNode* node, int count) {
  node->rebuild_count = count;
  if (node->left != nullptr) SetRebuildCount(node->left.get(), count);
  if (node->right != nullptr) SetRebuildCount(node->right.get(), count);
}

bool IsPure(const std::vector<int64_t>& counts) {
  int populated = 0;
  for (const int64_t c : counts) {
    if (c > 0) ++populated;
  }
  return populated <= 1;
}

}  // namespace

// ------------------------------------------------------------- ctor / helpers

BoatEngine::BoatEngine(Schema schema, const SplitSelector* selector,
                       BoatOptions options, TempFileManager* temp,
                       int recursion_depth)
    : schema_(std::move(schema)),
      selector_(selector),
      options_(std::move(options)),
      temp_(temp),
      recursion_depth_(recursion_depth),
      rng_(options_.seed) {
  // The engine-level thread budget is the single source of truth; mirror it
  // into the growth limits so every tree build this engine triggers —
  // bootstrap trees, frontier subtrees, repairs, recursive child engines —
  // scales without each call site re-plumbing a thread count.
  options_.limits.num_threads = options_.num_threads;
  if (selector_->kind() == SelectorKind::kImpurity) {
    impurity_ =
        &static_cast<const ImpuritySplitSelector*>(selector_)->impurity();
  }
  if (temp_ == nullptr) {
    auto created = TempFileManager::Create(options_.temp_dir);
    CheckOk(created.status());
    owned_temp_ =
        std::make_unique<TempFileManager>(std::move(created).ValueOrDie());
    temp_ = owned_temp_.get();
  }
}

BoatEngine::~BoatEngine() = default;

std::unique_ptr<SpillableTupleStore> BoatEngine::NewStore(const char* hint) {
  return std::make_unique<SpillableTupleStore>(schema_, temp_, hint,
                                               options_.store_memory_budget);
}

// ----------------------------------------------------------------- skeleton

std::unique_ptr<ModelNode> BoatEngine::MakeSkeleton(const CoarseNode& coarse,
                                                    int depth) {
  auto node = std::make_unique<ModelNode>();
  node->depth = depth;
  if (coarse.is_frontier()) {
    node->kind = ModelNode::Kind::kFrontier;
    node->family = NewStore("family");
    node->class_totals.assign(schema_.num_classes(), 0);
    // Skip storing the family when this frontier is expected to become a
    // plain stop-rule leaf (small enough, beyond the depth limit, or pure)
    // and nothing downstream will need the tuples.
    if (!options_.enable_updates) {
      const int64_t stop = options_.limits.stop_family_size;
      const double estimated_family =
          static_cast<double>(coarse.sample_family) * sample_scale_;
      const bool expect_small =
          stop > 0 && estimated_family <= 0.8 * static_cast<double>(stop);
      const bool expect_pure =
          coarse.sample_pure && coarse.sample_family >= 30;
      if (expect_small || expect_pure ||
          depth >= options_.limits.max_depth) {
        node->collect_family = false;
      }
      // determinism-lint: allow(debug-only stderr logging; no tree decision depends on it)
      if (std::getenv("BOAT_DEBUG_CHECKS") != nullptr) {
        std::fprintf(stderr,
                     "[skeleton] frontier depth=%d sample_family=%lld "
                     "pure=%d est=%.0f collect=%d\n",
                     depth, (long long)coarse.sample_family,
                     (int)coarse.sample_pure, estimated_family,
                     (int)node->collect_family);
      }
    }
    return node;
  }
  node->kind = ModelNode::Kind::kInternal;
  node->coarse = *coarse.criterion;
  node->class_totals.assign(schema_.num_classes(), 0);

  const int k = schema_.num_classes();
  if (impurity_ != nullptr) {
    node->buckets.resize(schema_.num_attributes());
    for (int attr = 0; attr < schema_.num_attributes(); ++attr) {
      if (schema_.IsNumerical(attr)) {
        node->buckets[attr] = BucketCounts(coarse.discretizations[attr], k);
      }
    }
  } else {
    node->moments.emplace(schema_);
  }
  node->cat_avcs.reserve(schema_.num_attributes());
  for (int attr = 0; attr < schema_.num_attributes(); ++attr) {
    const int card =
        schema_.IsCategorical(attr) ? schema_.attribute(attr).cardinality : 1;
    node->cat_avcs.emplace_back(card, k);
  }
  if (node->coarse.is_numerical) {
    node->boundary = ExtremeTracker(node->coarse.interval_lo);
    if (impurity_ == nullptr) {
      node->family_max.emplace(std::numeric_limits<double>::infinity());
    }
    node->pending = NewStore("pending");
    node->retained = NewStore("retained");
  }
  node->left = MakeSkeleton(*coarse.left, depth + 1);
  node->right = MakeSkeleton(*coarse.right, depth + 1);
  return node;
}

// ---------------------------------------------------------------- streaming

void BoatEngine::UpdateNodeStats(ModelNode* node, const Tuple& t,
                                 int64_t weight) {
  node->class_totals[t.label()] += weight;
  if (impurity_ != nullptr) {
    for (int attr = 0; attr < schema_.num_attributes(); ++attr) {
      if (schema_.IsNumerical(attr)) {
        node->buckets[attr].Add(t.value(attr), t.label(), weight);
      } else {
        node->cat_avcs[attr].Add(t.category(attr), t.label(), weight);
      }
    }
  } else {
    node->moments->Add(t, weight);
    for (int attr = 0; attr < schema_.num_attributes(); ++attr) {
      if (schema_.IsCategorical(attr)) {
        node->cat_avcs[attr].Add(t.category(attr), t.label(), weight);
      }
    }
  }
  if (node->coarse.is_numerical) {
    const double v = t.value(node->coarse.attribute);
    if (weight > 0) {
      node->boundary.Insert(v);
      if (node->family_max.has_value()) node->family_max->Insert(v);
    } else {
      node->boundary.Remove(v);
      if (node->family_max.has_value()) node->family_max->Remove(v);
    }
  }
}

Status BoatEngine::Inject(ModelNode* node, const Tuple& t, int64_t weight) {
  while (true) {
    node->dirty = true;
    if (node->kind == ModelNode::Kind::kFrontier) {
      node->class_totals[t.label()] += weight;
      if (!node->collect_family) return Status::OK();
      if (weight > 0) return node->family->Append(t);
      return node->family->RemoveOne(t);
    }

    UpdateNodeStats(node, t, weight);

    const CoarseCriterion& crit = node->coarse;
    const bool in_interval =
        crit.is_numerical && crit.InInterval(t.value(crit.attribute));
    if (in_interval) {
      // Maintain the exact per-value interval AVC.
      const double v = t.value(crit.attribute);
      auto [it, inserted] = node->interval_avc.try_emplace(
          v, std::vector<int64_t>(schema_.num_classes(), 0));
      it->second[t.label()] += weight;
      if (weight < 0) {
        bool all_zero = true;
        for (const int64_t c : it->second) {
          if (c != 0) all_zero = false;
        }
        if (all_zero) node->interval_avc.erase(it);
      }

      if (weight > 0) {
        // Hold the tuple here until the final split point is known.
        return node->pending->Append(t);
      }
      // Deletion: if the tuple was not yet distributed it sits in `pending`;
      // otherwise it was routed by the current final split and its traces
      // must be removed from that side.
      if (node->pending->RemoveOne(t).ok()) return Status::OK();
      BOAT_RETURN_NOT_OK(node->retained->RemoveOne(t));
      if (!node->final_split.has_value()) {
        return Status::OK();  // no children to clean up
      }
      node = node->final_split->SendLeft(t) ? node->left.get()
                                            : node->right.get();
      continue;
    }

    // Out-of-interval tuples route identically under every split the coarse
    // criterion admits, so the coarse criterion decides the branch.
    bool go_left;
    if (crit.is_numerical) {
      go_left = t.value(crit.attribute) <= crit.interval_lo;
    } else {
      go_left = std::binary_search(crit.subset.begin(), crit.subset.end(),
                                   t.category(crit.attribute));
    }
    node = go_left ? node->left.get() : node->right.get();
  }
}

// ------------------------------------------------------------- verification

bool BoatEngine::StopRuleSaysLeaf(const ModelNode& node) const {
  const GrowthLimits& limits = options_.limits;
  const int64_t total = node.total_tuples();
  if (node.depth >= limits.max_depth) return true;
  if (total < limits.min_tuples_to_split) return true;
  if (limits.stop_family_size > 0 && total <= limits.stop_family_size) {
    return true;
  }
  return IsPure(node.class_totals);
}

Result<BoatEngine::CheckResult> BoatEngine::CheckNode(const ModelNode& node) {
  if (StopRuleSaysLeaf(node)) {
    return CheckResult{Outcome::kLeafize, std::nullopt};
  }
  return impurity_ != nullptr ? CheckNodeImpurity(node)
                              : CheckNodeQuest(node);
}

Result<BoatEngine::CheckResult> BoatEngine::CheckNodeImpurity(
    const ModelNode& node) {
  const int k = schema_.num_classes();
  const int64_t total = node.total_tuples();
  const CoarseCriterion& crit = node.coarse;
  const CheckResult fail{Outcome::kFail, std::nullopt};
  // determinism-lint: allow(debug-only stderr logging; no tree decision depends on it)
  const bool debug = std::getenv("BOAT_DEBUG_CHECKS") != nullptr;

  // --- Step 1: the exact best split admitted by the coarse criterion -------
  std::optional<Split> best;
  if (crit.is_numerical) {
    if (!node.boundary.known()) return fail;  // vL lost to deletions
    // Candidates inside the interval, from the incrementally maintained
    // exact per-value counts.
    NumericAvc avc_in(k);
    for (const auto& [value, counts] : node.interval_avc) {
      for (int c = 0; c < k; ++c) {
        if (counts[c] != 0) avc_in.Add(value, c, counts[c]);
      }
    }
    avc_in.Finalize();
    const BucketCounts& bc = node.buckets[crit.attribute];
    const int lo_idx = bc.disc().BoundaryIndex(crit.interval_lo);
    if (lo_idx < 0) return Status::Internal("interval_lo is not a boundary");
    const std::vector<int64_t> left_base = bc.StampAtUpperBoundary(lo_idx);
    std::optional<double> boundary_value;
    if (!node.boundary.empty()) boundary_value = node.boundary.value();
    best = BestNumericSplitRange(avc_in, crit.attribute, *impurity_, left_base,
                                 node.class_totals, boundary_value);
    if (!best.has_value()) {
      if (debug) {
        std::fprintf(stderr,
                     "[check] depth=%d attr=%d no in-interval candidate "
                     "(interval [%g,%g], %zu values, boundary=%d)\n",
                     node.depth, crit.attribute, crit.interval_lo,
                     crit.interval_hi, node.interval_avc.size(),
                     boundary_value.has_value());
      }
      return fail;  // no admissible candidate
    }
  } else {
    std::optional<Split> exact = BestCategoricalSplit(
        node.cat_avcs[crit.attribute], crit.attribute, *impurity_);
    if (!exact.has_value()) return fail;
    if (exact->subset != crit.subset) return fail;  // subset changed
    best = std::move(exact);
  }

  // --- Step 2: no other attribute may admit a better (or tying) split ------
  for (int attr = 0; attr < schema_.num_attributes(); ++attr) {
    if (schema_.IsCategorical(attr)) {
      if (!crit.is_numerical && attr == crit.attribute) continue;
      std::optional<Split> cand =
          BestCategoricalSplit(node.cat_avcs[attr], attr, *impurity_);
      if (cand.has_value() && BetterSplit(*cand, *best)) {
        if (debug) {
          std::fprintf(stderr,
                       "[check] depth=%d cat attr=%d beats coarse (%.17g vs "
                       "%.17g)\n",
                       node.depth, attr, cand->impurity, best->impurity);
        }
        return fail;
      }
      continue;
    }
    // Numerical attribute: Lemma 3.1 corner bounds per bucket; for the
    // coarse splitting attribute only buckets outside the interval count
    // (inside is covered exactly by Step 1).
    const BucketCounts& bc = node.buckets[attr];
    const bool is_coarse_attr = crit.is_numerical && attr == crit.attribute;
    int inside_lo = -1;
    int inside_hi = -2;
    // The bucket containing the boundary candidate vL: vL's own candidate is
    // evaluated exactly in Step 1, so it must be excluded from the bound box
    // (it frequently IS the best split, and a box containing it would tie
    // the exact minimum and force a spurious rebuild every time).
    int vl_bucket = -1;
    if (is_coarse_attr) {
      inside_lo = bc.disc().BoundaryIndex(crit.interval_lo) + 1;
      inside_hi = bc.disc().BoundaryIndex(crit.interval_hi);
      if (!node.boundary.empty()) {
        vl_bucket = bc.disc().BucketOf(node.boundary.value());
      }
    }
    std::vector<int64_t> stamp_lo(k, 0);
    std::vector<int64_t> stamp_hi(k, 0);
    for (int b = 0; b < bc.disc().num_buckets(); ++b) {
      const int64_t* row = bc.bucket_counts(b);
      for (int c = 0; c < k; ++c) stamp_hi[c] += row[c];
      const int64_t bucket_total = bc.BucketTotal(b);
      bool skip_bucket =
          (is_coarse_attr && b >= inside_lo && b <= inside_hi) ||
          bucket_total == 0;  // no family value => no candidate inside
      std::vector<int64_t> hi = stamp_hi;
      if (!skip_bucket && b == vl_bucket) {
        // Exclude vL: subtract its tuples from the box's upper corner.
        // vL is necessarily this bucket's largest value.
        auto max_info = bc.MaxValueInfo(b);
        if (!max_info.has_value() ||
            max_info->first != node.boundary.value()) {
          return fail;  // tracker lost to deletions: cannot exclude exactly
        }
        int64_t max_total = 0;
        for (int c = 0; c < k; ++c) {
          hi[c] -= max_info->second[c];
          max_total += max_info->second[c];
        }
        // If vL was the bucket's only value there is nothing left to check.
        if (bucket_total == max_total) skip_bucket = true;
      }
      if (!skip_bucket) {
        // Tighten the box: every candidate in the bucket dominates the
        // bucket's smallest value's stamp point.
        std::vector<int64_t> lo = stamp_lo;
        if (auto min_counts = bc.MinValueCounts(b); min_counts.has_value()) {
          for (int c = 0; c < k; ++c) lo[c] += (*min_counts)[c];
        }
        const double lb =
            CornerLowerBound(*impurity_, lo, hi, node.class_totals, total);
        if (lb <= best->impurity + options_.bound_epsilon) {
          if (debug) {
            std::fprintf(
                stderr,
                "[check] depth=%d attr=%d bucket=%d/%d (coarse attr=%d "
                "interval [%g,%g]) lb=%.17g best=%.17g total_in_bucket=%lld\n",
                node.depth, attr, b, bc.disc().num_buckets(), crit.attribute,
                crit.interval_lo, crit.interval_hi, lb, best->impurity,
                static_cast<long long>(bc.BucketTotal(b)));
            std::fprintf(stderr, "        totals=[%lld %lld] lo=[%lld %lld] "
                         "hi=[%lld %lld] best_value=%g bucket_hi_boundary=%g\n",
                         (long long)node.class_totals[0],
                         (long long)node.class_totals[1], (long long)lo[0],
                         (long long)lo[1], (long long)stamp_hi[0],
                         (long long)stamp_hi[1], best->value,
                         b < (int)bc.disc().boundaries().size()
                             ? bc.disc().boundaries()[b]
                             : -1.0);
          }
          return fail;
        }
      }
      stamp_lo = stamp_hi;
    }
  }

  // --- Step 3: growth-rule acceptance ---------------------------------------
  if (!selector_->Accept(*best, node.class_totals, total)) {
    return CheckResult{Outcome::kLeafize, std::nullopt};
  }
  return CheckResult{Outcome::kPass, std::move(best)};
}

Result<BoatEngine::CheckResult> BoatEngine::CheckNodeQuest(
    const ModelNode& node) {
  const int k = schema_.num_classes();
  const CoarseCriterion& crit = node.coarse;
  const CheckResult fail{Outcome::kFail, std::nullopt};

  // Exact association score of every attribute from the streamed statistics.
  int best_attr = -1;
  double best_score = 0.0;
  for (int attr = 0; attr < schema_.num_attributes(); ++attr) {
    double score;
    if (schema_.IsNumerical(attr)) {
      std::vector<int64_t> count(k), sum(k);
      std::vector<__int128> sum_sq(k);
      for (int c = 0; c < k; ++c) {
        count[c] = node.moments->count(attr, c);
        sum[c] = node.moments->sum(attr, c);
        sum_sq[c] = node.moments->sum_sq(attr, c);
      }
      score = QuestSelector::NumericScore(count.data(), sum.data(),
                                          sum_sq.data(), k);
    } else {
      score = QuestSelector::CategoricalScore(node.cat_avcs[attr]);
    }
    if (score > best_score) {  // ties keep the smaller attribute index
      best_score = score;
      best_attr = attr;
    }
  }
  if (best_attr < 0) return CheckResult{Outcome::kLeafize, std::nullopt};
  if (best_attr != crit.attribute) return fail;

  std::optional<Split> split;
  if (crit.is_numerical) {
    std::vector<int64_t> count(k), sum(k);
    for (int c = 0; c < k; ++c) {
      count[c] = node.moments->count(crit.attribute, c);
      sum[c] = node.moments->sum(crit.attribute, c);
    }
    const std::optional<double> theta =
        QuestSelector::Threshold(count.data(), sum.data(), k);
    if (!theta.has_value()) return fail;
    if (*theta > crit.interval_hi) return fail;
    if (!node.boundary.known()) return fail;
    double snapped = -std::numeric_limits<double>::infinity();
    if (!node.boundary.empty() && node.boundary.value() <= *theta) {
      snapped = node.boundary.value();
    }
    for (const auto& [value, counts] : node.interval_avc) {
      if (value > *theta) break;
      snapped = value;  // map iterates ascending
    }
    if (!std::isfinite(snapped)) return fail;  // theta below known values
    if (!node.family_max.has_value() || !node.family_max->known()) {
      return fail;
    }
    if (node.family_max->empty() || snapped >= node.family_max->value()) {
      return fail;  // reference would clamp to the second-largest value
    }
    split = Split::Numerical(crit.attribute, snapped, -best_score);
  } else {
    std::optional<Split> cand = selector_->EvaluateCategoricalAttr(
        node.cat_avcs[crit.attribute], crit.attribute);
    if (!cand.has_value()) return fail;
    if (cand->subset != crit.subset) return fail;
    split = std::move(cand);
  }
  return CheckResult{Outcome::kPass, std::move(split)};
}

// ------------------------------------------------------- finalize machinery

Result<bool> BoatEngine::CollectSubtreeFamily(const ModelNode& node,
                                              SpillableTupleStore* out) {
  // Every family tuple lives in exactly one of: the pending store of the
  // first ancestor that held it undistributed, or a frontier family store.
  // (Retained stores are excluded: their tuples were already pushed down.)
  Status append = Status::OK();
  auto sink = [&](const Tuple& t) {
    if (append.ok()) append = out->Append(t);
  };
  if (node.kind == ModelNode::Kind::kFrontier) {
    if (!node.collect_family) return false;
    BOAT_RETURN_NOT_OK(node.family->ForEach(sink));
    BOAT_RETURN_NOT_OK(append);
    return true;
  }
  if (node.pending != nullptr) {
    BOAT_RETURN_NOT_OK(node.pending->ForEach(sink));
    BOAT_RETURN_NOT_OK(append);
  }
  if (node.left == nullptr || node.right == nullptr) {
    return false;  // children discarded earlier; tuples unrecoverable
  }
  BOAT_ASSIGN_OR_RETURN(bool left_ok, CollectSubtreeFamily(*node.left, out));
  BOAT_ASSIGN_OR_RETURN(bool right_ok, CollectSubtreeFamily(*node.right, out));
  return left_ok && right_ok;
}

Status BoatEngine::Leafize(ModelNode* node, BoatStats* stats) {
  if (stats != nullptr) ++stats->leafized_nodes;
  // Convert to a frontier node over the node's own family, so that no tuple
  // is lost: if the family later grows past the stop rules again, it can be
  // re-expanded without touching the rest of the database.
  auto family = NewStore("leafized");
  bool complete = true;
  if (node->pending != nullptr) {
    Status append = Status::OK();
    BOAT_RETURN_NOT_OK(node->pending->ForEach([&](const Tuple& t) {
      if (append.ok()) append = family->Append(t);
    }));
    BOAT_RETURN_NOT_OK(append);
  }
  if (node->left != nullptr && node->right != nullptr) {
    BOAT_ASSIGN_OR_RETURN(bool left_ok,
                          CollectSubtreeFamily(*node->left, family.get()));
    BOAT_ASSIGN_OR_RETURN(bool right_ok,
                          CollectSubtreeFamily(*node->right, family.get()));
    complete = left_ok && right_ok;
  } else {
    complete = false;
  }
  if (!complete) {
    // Tuples unrecoverable (descendants did not collect). Keep the class
    // totals; a later re-expansion goes through the repair scan.
    BOAT_RETURN_NOT_OK(family->Clear());
  }

  std::vector<int64_t> totals = node->class_totals;
  const int depth = node->depth;
  const int rebuilds = node->rebuild_count;
  *node = ModelNode();
  node->kind = ModelNode::Kind::kFrontier;
  node->depth = depth;
  node->class_totals = std::move(totals);
  node->family = std::move(family);
  node->collect_family = complete;
  node->dirty = true;
  node->rebuild_count = rebuilds;
  return Status::OK();
}

Status BoatEngine::SideSwitch(ModelNode* node, const Split& old_split,
                              const Split& new_split, BoatStats* stats) {
  if (old_split.SameCriterion(new_split)) return Status::OK();
  // Only numerical split points can move without failing verification, and
  // every tuple whose side changes lies inside the confidence interval,
  // hence in the retained store.
  BOAT_ASSIGN_OR_RETURN(auto retained, node->retained->ToVector());
  Status status = Status::OK();
  for (const Tuple& t : retained) {
    const bool was_left = old_split.SendLeft(t);
    const bool now_left = new_split.SendLeft(t);
    if (was_left == now_left) continue;
    BOAT_RETURN_NOT_OK(
        Inject(was_left ? node->left.get() : node->right.get(), t, -1));
    BOAT_RETURN_NOT_OK(
        Inject(now_left ? node->left.get() : node->right.get(), t, +1));
    if (stats != nullptr) ++stats->side_switch_tuples;
  }
  return status;
}

Status BoatEngine::DistributePending(ModelNode* node, BoatStats* stats) {
  if (node->pending == nullptr || node->pending->empty()) return Status::OK();
  if (stats != nullptr) stats->retained_tuples += node->pending->size();
  BOAT_ASSIGN_OR_RETURN(auto pending, node->pending->ToVector());
  BOAT_RETURN_NOT_OK(node->pending->Clear());
  for (const Tuple& t : pending) {
    const bool left = node->final_split->SendLeft(t);
    BOAT_RETURN_NOT_OK(
        Inject(left ? node->left.get() : node->right.get(), t, +1));
    BOAT_RETURN_NOT_OK(node->retained->Append(t));
  }
  return Status::OK();
}

Status BoatEngine::FinalizeSubtree(ModelNode* node,
                                   std::vector<ModelNode*>* failed,
                                   BoatStats* stats) {
  // Skip subtrees no injection touched since the last finalize — but only
  // once they have been finalized at least once.
  const bool established = node->kind == ModelNode::Kind::kFrontier
                               ? node->subtree != nullptr
                               : node->final_split.has_value();
  if (!node->dirty && established) return Status::OK();
  node->dirty = false;

  if (node->kind == ModelNode::Kind::kFrontier) {
    if (!node->collect_family) {
      // Verify the no-collection bet: the family must actually be a
      // stop-rule leaf; otherwise the tuples are needed after all and an
      // extra collecting scan repairs the node.
      const GrowthLimits& limits = options_.limits;
      const int64_t total = node->total_tuples();
      const bool is_stop_leaf =
          node->depth >= limits.max_depth ||
          total < limits.min_tuples_to_split ||
          (limits.stop_family_size > 0 &&
           total <= limits.stop_family_size) ||
          IsPure(node->class_totals);
      if (!is_stop_leaf) {
        if (stats != nullptr) ++stats->failed_checks;
        failed->push_back(node);
        return Status::OK();
      }
    }
    return ResolveFrontier(node, stats);
  }

  BOAT_ASSIGN_OR_RETURN(CheckResult check, CheckNode(*node));
  switch (check.outcome) {
    case Outcome::kFail:
      if (stats != nullptr) ++stats->failed_checks;
      failed->push_back(node);
      return Status::OK();  // subtree will be rebuilt from the data
    case Outcome::kLeafize:
      BOAT_RETURN_NOT_OK(Leafize(node, stats));
      return ResolveFrontier(node, stats);
    case Outcome::kPass:
      break;
  }

  if (node->final_split.has_value() &&
      !node->final_split->SameCriterion(*check.split)) {
    BOAT_RETURN_NOT_OK(SideSwitch(node, *node->final_split, *check.split,
                                  stats));
  }
  node->final_split = std::move(check.split);
  BOAT_RETURN_NOT_OK(DistributePending(node, stats));
  BOAT_RETURN_NOT_OK(FinalizeSubtree(node->left.get(), failed, stats));
  BOAT_RETURN_NOT_OK(FinalizeSubtree(node->right.get(), failed, stats));
  return Status::OK();
}

// ----------------------------------------------------- frontier / rebuilds

Status BoatEngine::ResolveFrontier(ModelNode* node, BoatStats* stats) {
  return BuildFromFamily(node, stats);
}

Status BoatEngine::BuildFromFamily(ModelNode* node, BoatStats* stats) {
  const int64_t size = node->total_tuples();

  // Fast path: when the growth limits already say "leaf" the subtree is a
  // single leaf with the family's class distribution — no need to read the
  // family store at all. This is what keeps incremental update cost
  // independent of the accumulated data size under the paper's
  // stop-at-threshold methodology.
  {
    const GrowthLimits& limits = options_.limits;
    const bool leaf =
        node->depth >= limits.max_depth || size < limits.min_tuples_to_split ||
        (limits.stop_family_size > 0 && size <= limits.stop_family_size) ||
        IsPure(node->class_totals);
    if (leaf) {
      node->subtree = TreeNode::Leaf(node->class_totals);
      if (stats != nullptr) ++stats->frontier_inmem;
      node->dirty = false;
      return Status::OK();
    }
  }

  const int64_t inmem_capacity = std::max<int64_t>(
      options_.inmem_threshold, static_cast<int64_t>(options_.sample_size));
  // Under maintenance, an in-memory subtree would be re-derived from its
  // family store on every future update that touches it; a recursive
  // exact-coarse build instead grafts durable model statistics, so updates
  // stream through cheaply. That pays off only where the statistics are
  // stable: a region that has already failed verification once (flat
  // impurity landscape — the optimum jitters with every chunk) is demoted to
  // plain in-memory maintenance, whose per-update cost is one pass over the
  // region. Without updates, in-memory is strictly cheaper anyway.
  const bool exact_recursion = options_.enable_updates &&
                               size <= options_.exact_rebuild_cap &&
                               recursion_depth_ < options_.max_recursion_depth &&
                               node->rebuild_count == 0;
  const bool demoted = options_.enable_updates && node->rebuild_count >= 1 &&
                       size <= options_.exact_rebuild_cap;
  // A bootstrap kill at the very root leaves the whole (sub-)database in one
  // frontier family; recursing would re-sample the same data and most likely
  // hit the same instability. When the family fits in actual memory, one
  // in-memory pass is strictly cheaper than the retry.
  const bool no_progress = size >= static_cast<int64_t>(db_size_) &&
                           size <= options_.exact_rebuild_cap;
  if (demoted ||
      (!exact_recursion && (no_progress || size <= inmem_capacity ||
                            recursion_depth_ >= options_.max_recursion_depth))) {
    // Stream the (possibly spilled) family store straight into columns —
    // no intermediate std::vector<Tuple> materialization.
    ColumnDataset data(schema_);
    data.Reserve(size);
    BOAT_RETURN_NOT_OK(
        node->family->ForEach([&](const Tuple& t) { data.Append(t); }));
    data.Seal(options_.limits.num_threads);
    node->subtree = BuildSubtreeColumnar(data, *selector_, options_.limits,
                                         node->depth);
    if (stats != nullptr) ++stats->frontier_inmem;
    node->dirty = false;
    return Status::OK();
  }

  // Recursive BOAT invocation directly over the stored family; the
  // resulting sub-model is grafted in place of this node so the subtree
  // stays incrementally maintainable.
  // determinism-lint: allow(debug-only stderr logging; no tree decision depends on it)
  if (std::getenv("BOAT_DEBUG_CHECKS") != nullptr) {
    std::fprintf(stderr,
                 "[recurse] depth=%d size=%lld rebuilds=%d exact=%d rdepth=%d\n",
                 node->depth, (long long)size, node->rebuild_count,
                 (int)exact_recursion, recursion_depth_);
  }
  std::unique_ptr<TupleSource> source = node->family->MakeSource();

  BoatOptions child_options = options_;
  child_options.seed = rng_.Next();
  child_options.exact_coarse = exact_recursion;
  child_options.limits.max_depth = options_.limits.max_depth - node->depth;
  BoatEngine child(schema_, selector_, child_options, temp_,
                   recursion_depth_ + 1);
  BoatStats child_stats;
  BOAT_RETURN_NOT_OK(child.Build(source.get(), &child_stats));
  if (stats != nullptr) {
    stats->MergeFrom(child_stats);
    ++stats->frontier_recursive;
  }
  source.reset();
  BOAT_RETURN_NOT_OK(node->family->Clear());
  const int rebuild_count = node->rebuild_count;
  std::unique_ptr<ModelNode> sub = child.ReleaseRoot();
  OffsetDepths(sub.get(), node->depth);
  SetRebuildCount(sub.get(), rebuild_count);
  *node = std::move(*sub);
  node->dirty = false;
  return Status::OK();
}

Status BoatEngine::RepairFailures(std::vector<ModelNode*> failed,
                                  TupleSource* build_source,
                                  BoatStats* stats) {
  if (failed.empty()) return Status::OK();

  // First try to reconstruct each failed family locally from the model's own
  // stores — repair cost proportional to the affected subtree, not to the
  // database ("the cost paid is proportional to the seriousness of the
  // change").
  {
    std::vector<ModelNode*> still_failed;
    for (ModelNode* node : failed) {
      auto family = NewStore("repair-local");
      bool complete = false;
      if (node->kind != ModelNode::Kind::kFrontier) {
        Status append = Status::OK();
        if (node->pending != nullptr) {
          BOAT_RETURN_NOT_OK(node->pending->ForEach([&](const Tuple& t) {
            if (append.ok()) append = family->Append(t);
          }));
          BOAT_RETURN_NOT_OK(append);
        }
        if (node->left != nullptr && node->right != nullptr) {
          BOAT_ASSIGN_OR_RETURN(
              bool left_ok, CollectSubtreeFamily(*node->left, family.get()));
          BOAT_ASSIGN_OR_RETURN(
              bool right_ok, CollectSubtreeFamily(*node->right, family.get()));
          complete = left_ok && right_ok;
        }
      }
      if (!complete) {
        still_failed.push_back(node);
        continue;
      }
      std::vector<int64_t> totals = node->class_totals;
      const int depth = node->depth;
      const int rebuilds = node->rebuild_count;
      *node = ModelNode();
      node->kind = ModelNode::Kind::kFrontier;
      node->depth = depth;
      node->class_totals = std::move(totals);
      node->family = std::move(family);
      node->collect_family = true;
      node->dirty = true;
      node->rebuild_count = rebuilds + 1;
      if (stats != nullptr) ++stats->subtree_rebuilds;
      BOAT_RETURN_NOT_OK(BuildFromFamily(node, stats));
    }
    failed = std::move(still_failed);
  }
  if (failed.empty()) return Status::OK();
  std::unordered_set<ModelNode*> failed_set(failed.begin(), failed.end());

  // Fresh family stores (and class counts) for the failed nodes.
  struct Collected {
    SpillableTupleStore* store;
    std::vector<int64_t> counts;
  };
  std::vector<std::unique_ptr<SpillableTupleStore>> stores;
  stores.reserve(failed.size());
  std::unordered_map<ModelNode*, Collected> store_of;
  for (ModelNode* node : failed) {
    stores.push_back(NewStore("repair"));
    store_of.emplace(
        node, Collected{stores.back().get(),
                        std::vector<int64_t>(schema_.num_classes(), 0)});
  }

  // One batched scan over the training database routes every tuple through
  // the *final* splits fixed so far; tuples reaching a failed node are
  // collected into its store.
  Status route_status = Status::OK();
  auto route = [&](const Tuple& t) {
    if (!route_status.ok()) return;
    ModelNode* n = root_.get();
    while (true) {
      if (failed_set.count(n) > 0) {
        Collected& c = store_of.at(n);
        ++c.counts[t.label()];
        route_status = c.store->Append(t);
        return;
      }
      if (n->kind == ModelNode::Kind::kFrontier ||
          !n->final_split.has_value()) {
        return;  // already handled elsewhere in the tree
      }
      n = n->final_split->SendLeft(t) ? n->left.get() : n->right.get();
    }
  };
  if (build_source != nullptr) {
    BOAT_RETURN_NOT_OK(build_source->Reset());
    Tuple t;
    while (build_source->Next(&t)) route(t);
  } else {
    if (archive_ == nullptr) {
      return Status::Internal("repair requested without a data source");
    }
    BOAT_RETURN_NOT_OK(archive_->Scan(route));
  }
  BOAT_RETURN_NOT_OK(route_status);
  if (stats != nullptr) ++stats->rebuild_scans;

  // Convert each failed node into a frontier node over its collected family
  // and finish it.
  for (size_t i = 0; i < failed.size(); ++i) {
    ModelNode* node = failed[i];
    node->kind = ModelNode::Kind::kFrontier;
    node->buckets.clear();
    node->cat_avcs.clear();
    node->moments.reset();
    node->class_totals = store_of.at(node).counts;
    node->interval_avc.clear();
    node->boundary = ExtremeTracker();
    node->family_max.reset();
    if (node->pending != nullptr) CheckOk(node->pending->Clear());
    if (node->retained != nullptr) CheckOk(node->retained->Clear());
    node->pending.reset();
    node->retained.reset();
    node->final_split.reset();
    node->left.reset();
    node->right.reset();
    node->subtree.reset();
    node->family = std::move(stores[i]);
    node->collect_family = true;
    node->dirty = true;
    ++node->rebuild_count;
    if (stats != nullptr) ++stats->subtree_rebuilds;
    BOAT_RETURN_NOT_OK(BuildFromFamily(node, stats));
  }
  return Status::OK();
}

// -------------------------------------------------------------------- build

Status BoatEngine::PreparePhase(std::vector<Tuple> sample, uint64_t db_size,
                                BoatStats* stats) {
  SamplingPhaseOptions sampling;
  sampling.sample_size = options_.sample_size;
  sampling.bootstrap_count = options_.bootstrap_count;
  sampling.bootstrap_subsample = options_.bootstrap_subsample;
  sampling.frontier_threshold = std::max<int64_t>(
      options_.inmem_threshold, options_.limits.stop_family_size);
  sampling.limits = options_.limits;
  sampling.max_buckets_per_attr = options_.max_buckets_per_attr;
  sampling.num_threads = options_.num_threads;
  sampling.exact_coarse = options_.exact_coarse;
  // Only the top-level phase's trees form the ensemble; recursive frontier
  // builds would contribute trees over sub-families of a different scale.
  sampling.keep_bootstrap_trees =
      options_.keep_bootstrap_trees && recursion_depth_ == 0;
  sampling.schema = &schema_;

  Rng sampling_rng = rng_.Split(1);
  BOAT_ASSIGN_OR_RETURN(
      SamplingPhaseResult phase,
      BuildCoarseFromSample(std::move(sample), db_size, *selector_, sampling,
                            &sampling_rng));
  db_size_ = phase.db_size;
  bootstrap_trees_ = std::move(phase.bootstrap_trees);
  if (stats != nullptr) {
    stats->db_size += phase.db_size;
    stats->bootstrap_kills += phase.bootstrap_kills;
    stats->coarse_nodes +=
        static_cast<uint64_t>(CountCoarseNodes(*phase.coarse_root));
  }

  sample_scale_ = phase.sample.empty()
                      ? 1.0
                      : static_cast<double>(phase.db_size) /
                            static_cast<double>(phase.sample.size());
  root_ = MakeSkeleton(*phase.coarse_root, /*depth=*/0);

  // The archive lives at the top level only; recursive engines inherit
  // enable_updates (so their frontier nodes collect families for the
  // grafted model) but all update-time repairs scan the top-level archive.
  if (options_.enable_updates && recursion_depth_ == 0) {
    archive_ = std::make_unique<DatasetArchive>(schema_, temp_);
  }
  return Status::OK();
}

Status BoatEngine::InjectExternal(const Tuple& tuple) {
  BOAT_RETURN_NOT_OK(Inject(root_.get(), tuple, +1));
  return ArchiveTuple(tuple);
}

Status BoatEngine::ArchiveTuple(const Tuple& tuple) {
  if (archive_ == nullptr) return Status::OK();
  archive_buffer_.push_back(tuple);
  if (archive_buffer_.size() >= 65536) {
    BOAT_RETURN_NOT_OK(archive_->AddChunk(archive_buffer_));
    archive_buffer_.clear();
  }
  return Status::OK();
}

Status BoatEngine::FinalizeExternal(TupleSource* repair_source,
                                    BoatStats* stats) {
  if (archive_ != nullptr && !archive_buffer_.empty()) {
    BOAT_RETURN_NOT_OK(archive_->AddChunk(archive_buffer_));
    archive_buffer_.clear();
  }
  // Top-down finalize with verification, then repair what failed.
  std::vector<ModelNode*> failed;
  BOAT_RETURN_NOT_OK(FinalizeSubtree(root_.get(), &failed, stats));
  return RepairFailures(std::move(failed), repair_source, stats);
}

Status BoatEngine::Build(TupleSource* db, BoatStats* stats) {
  // Sampling scan.
  std::vector<Tuple> sample;
  uint64_t db_size = 0;
  if (options_.exact_coarse) {
    BOAT_ASSIGN_OR_RETURN(sample, Materialize(db));
    db_size = sample.size();
  } else {
    Rng reservoir_rng = rng_.Split(7);
    BOAT_ASSIGN_OR_RETURN(
        sample,
        ReservoirSample(db, options_.sample_size, &reservoir_rng, &db_size));
  }
  BOAT_RETURN_NOT_OK(PreparePhase(std::move(sample), db_size, stats));

  // The cleanup scan. Both paths leave identical model state (see
  // RunCleanupScanParallel), so the final tree does not depend on
  // num_threads.
  BOAT_RETURN_NOT_OK(db->Reset());
  if (stats != nullptr) ++stats->cleanup_scans;
  const int workers = ResolveThreadCount(options_.num_threads);
  if (workers > 1) {
    BOAT_RETURN_NOT_OK(RunCleanupScanParallel(db, workers));
  } else {
    Tuple t;
    while (db->Next(&t)) {
      BOAT_RETURN_NOT_OK(InjectExternal(t));
    }
  }
  return FinalizeExternal(db, stats);
}

DecisionTree BoatEngine::ExtractDecisionTree() const {
  if (root_ == nullptr) FatalError("ExtractDecisionTree before Build");
  return DecisionTree(schema_, ExtractTree(*root_));
}

}  // namespace boat
