// Property-based tests (parameterized sweeps over random instances):
//  * concavity of every impurity function over the stamp-point space — the
//    property Lemma 3.1 rests on;
//  * corner lower bounds never exceed any realizable candidate impurity;
//  * cross-algorithm tree equivalence on randomized schemas and datasets
//    that look nothing like the Agrawal data (many categorical attributes,
//    multi-class labels, duplicated values, point masses).

#include <gtest/gtest.h>

#include <memory>

#include "boat/bounds.h"
#include "boat/builder.h"
#include "rainforest/rainforest.h"
#include "tree/inmem_builder.h"

namespace boat {
namespace {

// ------------------------------------------------------ impurity concavity

class ImpurityConcavityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ImpurityConcavityTest, MidpointAboveChord) {
  auto imp = MakeImpurity(GetParam());
  ASSERT_NE(imp, nullptr);
  Rng rng(2024);
  for (int rep = 0; rep < 500; ++rep) {
    const int k = 2 + static_cast<int>(rng.UniformInt(0, 2));
    std::vector<int64_t> totals(k);
    int64_t total = 0;
    for (int c = 0; c < k; ++c) {
      totals[c] = rng.UniformInt(4, 40);
      total += totals[c];
    }
    // Two stamp points a, b and their midpoint m (rounded down, then the
    // complementary rounding up) — concavity requires
    // imp(m) >= (imp(a) + imp(b)) / 2 - tolerance for integer rounding.
    std::vector<int64_t> a(k), b(k), m(k), ra(k), rb(k), rm(k);
    bool exact_mid = true;
    for (int c = 0; c < k; ++c) {
      a[c] = rng.UniformInt(0, totals[c]);
      b[c] = rng.UniformInt(0, totals[c]);
      if ((a[c] + b[c]) % 2 != 0) exact_mid = false;
      m[c] = (a[c] + b[c]) / 2;
      ra[c] = totals[c] - a[c];
      rb[c] = totals[c] - b[c];
      rm[c] = totals[c] - m[c];
    }
    if (!exact_mid) continue;  // only test lattice midpoints exactly
    const double fa = imp->Eval(a.data(), ra.data(), k, total);
    const double fb = imp->Eval(b.data(), rb.data(), k, total);
    const double fm = imp->Eval(m.data(), rm.data(), k, total);
    EXPECT_GE(fm, 0.5 * (fa + fb) - 1e-12)
        << GetParam() << " not concave at rep " << rep;
  }
}

TEST_P(ImpurityConcavityTest, NonNegativeAndZeroOnPure) {
  auto imp = MakeImpurity(GetParam());
  Rng rng(11);
  for (int rep = 0; rep < 200; ++rep) {
    const int k = 2 + static_cast<int>(rng.UniformInt(0, 2));
    std::vector<int64_t> left(k, 0), right(k, 0);
    // Pure partition: left is all class 0, right all class 1.
    left[0] = rng.UniformInt(1, 50);
    right[1] = rng.UniformInt(1, 50);
    EXPECT_DOUBLE_EQ(
        imp->Eval(left.data(), right.data(), k, left[0] + right[1]), 0.0);
    // Random partition: non-negative.
    for (int c = 0; c < k; ++c) {
      left[c] = rng.UniformInt(0, 30);
      right[c] = rng.UniformInt(0, 30);
    }
    int64_t total = 0;
    for (int c = 0; c < k; ++c) total += left[c] + right[c];
    if (total == 0) continue;
    EXPECT_GE(imp->Eval(left.data(), right.data(), k, total), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllImpurities, ImpurityConcavityTest,
                         ::testing::Values("gini", "entropy",
                                           "misclassification"));

// --------------------------------------------- bound vs. realizable splits

TEST(BoundSoundnessProperty, CornerBoundNeverExceedsCandidateImpurity) {
  // Generate random numeric AVCs, chop the value range into random buckets,
  // and verify that every bucket's corner bound lower-bounds the impurity of
  // every candidate split inside that bucket.
  GiniImpurity gini;
  Rng rng(7);
  for (int rep = 0; rep < 100; ++rep) {
    const int k = 2 + static_cast<int>(rng.UniformInt(0, 1));
    NumericAvc avc(k);
    const int n = 50 + static_cast<int>(rng.UniformInt(0, 200));
    for (int i = 0; i < n; ++i) {
      avc.Add(static_cast<double>(rng.UniformInt(0, 40)),
              static_cast<int32_t>(rng.UniformInt(0, k - 1)));
    }
    avc.Finalize();
    const std::vector<int64_t> totals = avc.Totals();
    int64_t total = 0;
    for (const int64_t c : totals) total += c;

    const double boundary = static_cast<double>(rng.UniformInt(5, 35));
    // Bucket (-inf, boundary]: box [0, stamp(boundary)].
    std::vector<int64_t> stamp(k, 0);
    std::vector<int64_t> zeros(k, 0);
    std::vector<double> candidate_imps;
    for (int64_t i = 0; i < avc.num_values(); ++i) {
      if (avc.value(i) > boundary) break;
      const int64_t* row = avc.counts(i);
      for (int c = 0; c < k; ++c) stamp[c] += row[c];
      std::vector<int64_t> right(k);
      for (int c = 0; c < k; ++c) right[c] = totals[c] - stamp[c];
      candidate_imps.push_back(gini.Eval(stamp.data(), right.data(), k, total));
    }
    const double bound = CornerLowerBound(gini, zeros, stamp, totals, total);
    for (const double ci : candidate_imps) {
      EXPECT_GE(ci, bound - 1e-12);
    }
  }
}

// ------------------------------------------- randomized tree equivalence

// gtest names each case by the bytes of its parameter, so every field is
// eight bytes wide (no padding): the discovered test names are then the
// same on every build.
struct RandomDatasetSpec {
  uint64_t seed;
  int64_t num_numeric;
  int64_t num_categorical;
  int64_t num_classes;
  int64_t num_tuples;
  int64_t value_range;  // small => many duplicated values / point masses
};
static_assert(sizeof(RandomDatasetSpec) == 6 * 8,
              "RandomDatasetSpec is padded");

class RandomEquivalenceTest
    : public ::testing::TestWithParam<RandomDatasetSpec> {};

TEST_P(RandomEquivalenceTest, BoatAndRainForestMatchReference) {
  const RandomDatasetSpec& spec = GetParam();
  Rng rng(spec.seed);

  std::vector<Attribute> attrs;
  for (int i = 0; i < spec.num_numeric; ++i) {
    attrs.push_back(Attribute::Numerical("n" + std::to_string(i)));
  }
  for (int i = 0; i < spec.num_categorical; ++i) {
    attrs.push_back(Attribute::Categorical(
        "c" + std::to_string(i), 2 + static_cast<int>(rng.UniformInt(0, 8))));
  }
  Schema schema(attrs, spec.num_classes);

  // Random ground truth: label depends on a couple of attributes plus noise,
  // so trees are non-trivial but finite.
  std::vector<Tuple> data;
  for (int i = 0; i < spec.num_tuples; ++i) {
    std::vector<double> values;
    for (int a = 0; a < spec.num_numeric; ++a) {
      values.push_back(
          static_cast<double>(rng.UniformInt(0, spec.value_range)));
    }
    for (int a = 0; a < spec.num_categorical; ++a) {
      values.push_back(static_cast<double>(
          rng.UniformInt(0, schema.attribute(spec.num_numeric + a)
                                    .cardinality -
                                1)));
    }
    int32_t label;
    if (rng.Bernoulli(0.15)) {
      label = static_cast<int32_t>(rng.UniformInt(0, spec.num_classes - 1));
    } else {
      double score = values[0];
      if (spec.num_categorical > 0) score += 7.0 * values[spec.num_numeric];
      label = static_cast<int32_t>(
          static_cast<int64_t>(score) % spec.num_classes);
    }
    data.push_back(Tuple(std::move(values), label));
  }

  auto selector = MakeGiniSelector();
  GrowthLimits limits;
  limits.max_depth = 12;
  DecisionTree reference = BuildTreeInMemory(schema, data, *selector, limits);

  {
    RainForestOptions rf;
    rf.limits = limits;
    rf.avc_buffer_entries = 2000;
    rf.inmem_threshold = 100;
    VectorSource source(schema, data);
    auto tree = BuildTreeRFHybrid(&source, *selector, rf);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE(tree->StructurallyEqual(reference)) << "RF-Hybrid";
  }
  {
    RainForestOptions rf;
    rf.limits = limits;
    rf.avc_buffer_entries = 2000;
    rf.inmem_threshold = 100;
    VectorSource source(schema, data);
    auto tree = BuildTreeRFVertical(&source, *selector, rf);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE(tree->StructurallyEqual(reference)) << "RF-Vertical";
  }
  {
    BoatOptions options;
    options.limits = limits;
    options.sample_size = static_cast<size_t>(spec.num_tuples / 8);
    options.bootstrap_count = 8;
    options.bootstrap_subsample =
        std::max<size_t>(50, static_cast<size_t>(spec.num_tuples / 16));
    options.inmem_threshold = spec.num_tuples / 16;
    options.seed = spec.seed * 31 + 1;
    VectorSource source(schema, data);
    auto tree = BuildTreeBoat(&source, *selector, options);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE(tree->StructurallyEqual(reference))
        << "BOAT\nref:\n"
        << reference.ToString() << "\ngot:\n"
        << tree->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatasets, RandomEquivalenceTest,
    ::testing::Values(
        RandomDatasetSpec{101, 3, 0, 2, 3000, 40},
        RandomDatasetSpec{102, 0, 4, 2, 3000, 10},
        RandomDatasetSpec{103, 2, 2, 3, 3000, 25},
        RandomDatasetSpec{104, 1, 1, 4, 2500, 6},    // heavy point masses
        RandomDatasetSpec{105, 4, 3, 2, 4000, 200},  // near-continuous
        RandomDatasetSpec{106, 2, 0, 5, 3000, 15},
        RandomDatasetSpec{107, 1, 5, 3, 3500, 8},
        RandomDatasetSpec{108, 5, 1, 2, 3000, 3}));  // extreme duplication

// ------------------------------------------- randomized incremental updates

class RandomIncrementalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomIncrementalTest, InterleavedInsertDeleteMatchesRebuild) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  Schema schema({Attribute::Numerical("a"), Attribute::Numerical("b"),
                 Attribute::Categorical("c", 5)},
                2);
  auto draw = [&rng](int n) {
    std::vector<Tuple> out;
    for (int i = 0; i < n; ++i) {
      const double a = static_cast<double>(rng.UniformInt(0, 60));
      const double b = static_cast<double>(rng.UniformInt(0, 60));
      const double c = static_cast<double>(rng.UniformInt(0, 4));
      const int32_t label =
          (a + 2 * b > 90) != (c >= 3) ? 1 : 0;
      out.push_back(Tuple({a, b, c}, label));
    }
    return out;
  };

  std::vector<Tuple> base = draw(2500);
  auto selector = MakeGiniSelector();
  GrowthLimits limits;
  limits.max_depth = 12;
  BoatOptions options;
  options.limits = limits;
  options.sample_size = 400;
  options.bootstrap_count = 8;
  options.bootstrap_subsample = 200;
  options.inmem_threshold = 150;
  options.enable_updates = true;
  options.seed = seed;

  VectorSource source(schema, base);
  auto classifier = BoatClassifier::Train(&source, selector.get(), options);
  ASSERT_TRUE(classifier.ok()) << classifier.status().ToString();

  std::vector<Tuple> current = base;
  for (int round = 0; round < 3; ++round) {
    std::vector<Tuple> chunk = draw(800);
    ASSERT_TRUE((*classifier)->InsertChunk(chunk).ok());
    current.insert(current.end(), chunk.begin(), chunk.end());

    // Delete a slice of what is currently in the database.
    const size_t del_begin = current.size() / 4;
    const size_t del_end = del_begin + 400;
    std::vector<Tuple> to_delete(current.begin() + del_begin,
                                 current.begin() + del_end);
    ASSERT_TRUE((*classifier)->DeleteChunk(to_delete).ok());
    current.erase(current.begin() + del_begin, current.begin() + del_end);

    DecisionTree reference =
        BuildTreeInMemory(schema, current, *selector, limits);
    ASSERT_TRUE((*classifier)->tree().StructurallyEqual(reference))
        << "diverged at round " << round << " (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomIncrementalTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

}  // namespace
}  // namespace boat
