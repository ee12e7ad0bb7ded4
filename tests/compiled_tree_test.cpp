// CompiledTree correctness: the flat batched inference layout must produce
// predictions identical to DecisionTree::Classify for every tuple, every
// selector, every scoring kernel, and every scoring thread count.

#include "tree/compiled_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "boat/builder.h"
#include "datagen/agrawal.h"
#include "split/quest.h"
#include "split/selector.h"
#include "tree/evaluation.h"
#include "tree/inmem_builder.h"

namespace boat {
namespace {

// Every kernel worth testing on this host: the per-tuple pointer-free walk
// and (when the CPU has it) the SIMD level-synchronous sweep. kAuto rides
// along to cover the dispatch path itself.
std::vector<std::pair<PredictKernel, const char*>>
TestableKernels() {
  std::vector<std::pair<PredictKernel, const char*>> kernels = {
      {PredictKernel::kAuto, "auto"},
      {PredictKernel::kScalarTuple, "scalar_tuple"},
  };
  if (CompiledTree::SimdAvailable()) {
    kernels.emplace_back(PredictKernel::kSimd, "simd");
  }
  return kernels;
}

void ExpectIdenticalPredictions(const DecisionTree& tree,
                                const std::vector<Tuple>& data) {
  const CompiledTree compiled(tree);
  ASSERT_EQ(compiled.num_nodes(), tree.num_nodes());
  // Single-tuple path.
  for (const Tuple& t : data) {
    ASSERT_EQ(compiled.Classify(t), tree.Classify(t));
  }
  // Batched path: the ground truth is the pointer walk.
  const std::vector<int32_t> serial = compiled.Predict(data, 1);
  ASSERT_EQ(serial.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(serial[i], tree.Classify(data[i])) << "tuple " << i;
  }
  // The full equivalence matrix: every kernel x every thread count must be
  // byte-identical to the serial result.
  std::vector<int32_t> out(data.size());
  for (const auto& [kernel, name] : TestableKernels()) {
    for (const int threads : {1, 2, 8}) {
      std::fill(out.begin(), out.end(), -999);
      compiled.PredictWithKernel(data, out, threads, kernel);
      ASSERT_EQ(out, serial) << "kernel=" << name << " threads=" << threads;
    }
  }
}

std::vector<Tuple> AgrawalData(int function, uint64_t n, uint64_t seed,
                               double noise = 0.05) {
  AgrawalConfig config;
  config.function = function;
  config.noise = noise;
  config.seed = seed;
  return GenerateAgrawal(config, n);
}

TEST(CompiledTreeTest, MatchesGiniTreeOnAgrawal) {
  const auto train = AgrawalData(6, 4000, 101);
  const auto test = AgrawalData(6, 2000, 202, 0.0);
  auto selector = MakeGiniSelector();
  DecisionTree tree = BuildTreeInMemory(MakeAgrawalSchema(), train, *selector);
  ASSERT_GT(tree.num_nodes(), 1u);
  ExpectIdenticalPredictions(tree, train);
  ExpectIdenticalPredictions(tree, test);
}

TEST(CompiledTreeTest, MatchesEntropyTreeOnAgrawal) {
  const auto train = AgrawalData(7, 4000, 303);
  const auto test = AgrawalData(7, 2000, 404, 0.0);
  auto selector = MakeEntropySelector();
  DecisionTree tree = BuildTreeInMemory(MakeAgrawalSchema(), train, *selector);
  ASSERT_GT(tree.num_nodes(), 1u);
  ExpectIdenticalPredictions(tree, train);
  ExpectIdenticalPredictions(tree, test);
}

TEST(CompiledTreeTest, MatchesQuestTreeOnAgrawal) {
  const auto train = AgrawalData(5, 4000, 505);
  const auto test = AgrawalData(5, 2000, 606, 0.0);
  QuestSelector selector;
  DecisionTree tree = BuildTreeInMemory(MakeAgrawalSchema(), train, selector);
  ASSERT_GT(tree.num_nodes(), 1u);
  ExpectIdenticalPredictions(tree, train);
  ExpectIdenticalPredictions(tree, test);
}

TEST(CompiledTreeTest, SingleLeafTree) {
  // A tree that never splits (all labels equal) compiles to one leaf.
  Schema schema({Attribute::Numerical("x")}, 2);
  std::vector<Tuple> data;
  for (int i = 0; i < 50; ++i) {
    data.push_back(Tuple({static_cast<double>(i)}, 1));
  }
  auto selector = MakeGiniSelector();
  DecisionTree tree = BuildTreeInMemory(schema, data, *selector);
  ASSERT_EQ(tree.num_nodes(), 1u);
  const CompiledTree compiled(tree);
  EXPECT_EQ(compiled.num_nodes(), 1u);
  for (const Tuple& t : data) {
    EXPECT_EQ(compiled.Classify(t), 1);
  }
  ExpectIdenticalPredictions(tree, data);
}

TEST(CompiledTreeTest, EmptyBatch) {
  Schema schema({Attribute::Numerical("x")}, 2);
  std::vector<Tuple> data = {Tuple({0.0}, 0), Tuple({5.0}, 1)};
  auto selector = MakeGiniSelector();
  DecisionTree tree = BuildTreeInMemory(schema, data, *selector);
  const CompiledTree compiled(tree);
  const std::vector<Tuple> empty;
  EXPECT_TRUE(compiled.Predict(empty, 4).empty());
  EXPECT_EQ(compiled.MisclassificationRate(empty), 0.0);
}

TEST(CompiledTreeTest, CategoricalSubsetsAndOutOfDomainValues) {
  // Mixed schema with a categorical attribute; the compiled bitset probe
  // must agree with the subset binary search, including on category values
  // outside the declared domain (which always go right).
  Schema schema({Attribute::Numerical("n"), Attribute::Categorical("c", 7)},
                2);
  Rng rng(99);
  std::vector<Tuple> data;
  for (int i = 0; i < 3000; ++i) {
    const double n = rng.UniformDouble(0, 100);
    const double c = static_cast<double>(rng.UniformInt(0, 6));
    const int32_t label =
        (c == 2 || c == 5 || (c == 3 && n < 40)) ? 1 : 0;
    data.push_back(Tuple({n, c}, label));
  }
  auto selector = MakeGiniSelector();
  DecisionTree tree = BuildTreeInMemory(schema, data, *selector);
  ASSERT_GT(tree.num_nodes(), 1u);
  ExpectIdenticalPredictions(tree, data);

  // Out-of-domain probes: category ids beyond the schema cardinality and
  // negative ids must take the same (right) branch as the pointer walk.
  std::vector<Tuple> weird;
  for (const double c : {-3.0, 7.0, 64.0, 1000.0}) {
    weird.push_back(Tuple({50.0, c}, 0));
  }
  ExpectIdenticalPredictions(tree, weird);
}

TEST(CompiledTreeTest, DeepNumericTree) {
  // A deliberately overfit deep tree (unique x per tuple, alternating
  // labels) exercises long root-to-leaf paths.
  Schema schema({Attribute::Numerical("x")}, 2);
  std::vector<Tuple> data;
  for (int i = 0; i < 512; ++i) {
    data.push_back(Tuple({static_cast<double>(i)}, i % 2));
  }
  auto selector = MakeGiniSelector();
  DecisionTree tree = BuildTreeInMemory(schema, data, *selector);
  ASSERT_GT(tree.depth(), 4);
  ExpectIdenticalPredictions(tree, data);
}

TEST(CompiledTreeTest, MatchesBoatBuiltTreeAndEvaluate) {
  // End-to-end: a BOAT-built tree (not just the in-memory reference) plus
  // the Evaluate() overloads, which now route through CompiledTree.
  const auto train = AgrawalData(1, 6000, 707);
  auto selector = MakeGiniSelector();
  VectorSource source(MakeAgrawalSchema(), train);
  BoatOptions options;
  options.sample_size = 600;
  options.bootstrap_count = 10;
  options.bootstrap_subsample = 300;
  options.inmem_threshold = 600;
  options.limits.stop_family_size = 600;
  auto tree = BuildTreeBoat(&source, *selector, options);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ExpectIdenticalPredictions(*tree, train);

  const CompiledTree compiled(*tree);
  const ConfusionMatrix from_tree = Evaluate(*tree, train);
  const ConfusionMatrix from_compiled = Evaluate(compiled, train, 8);
  ASSERT_EQ(from_tree.num_classes(), from_compiled.num_classes());
  for (int a = 0; a < from_tree.num_classes(); ++a) {
    for (int p = 0; p < from_tree.num_classes(); ++p) {
      EXPECT_EQ(from_tree.count(a, p), from_compiled.count(a, p));
    }
  }
  // wrong/n vs 1 - correct/n: equal up to one rounding of the division.
  EXPECT_NEAR(compiled.MisclassificationRate(train, 2),
              1.0 - from_tree.Accuracy(), 1e-12);
}

TEST(CompiledTreeTest, OddSizedBatchTails) {
  // Batch sizes straddling every boundary the blocked path cares about:
  // the per-tuple cutoff (32), the SIMD width (8), and the transpose block
  // (512). None of {1, 7, 31, 33, 511, 513, 1013} divides evenly, so every
  // kernel exercises its partial-vector / partial-block tail handling.
  const auto data = AgrawalData(6, 1013, 909);
  auto selector = MakeGiniSelector();
  DecisionTree tree = BuildTreeInMemory(MakeAgrawalSchema(), data, *selector);
  ASSERT_GT(tree.num_nodes(), 1u);
  const CompiledTree compiled(tree);
  for (const size_t n : {1, 7, 31, 32, 33, 511, 512, 513, 1013}) {
    const std::vector<Tuple> batch(data.begin(),
                                   data.begin() + static_cast<int64_t>(n));
    const std::vector<int32_t> serial = compiled.Predict(batch, 1);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(serial[i], tree.Classify(batch[i])) << "n=" << n << " i=" << i;
    }
    std::vector<int32_t> out(n);
    for (const auto& [kernel, name] : TestableKernels()) {
      for (const int threads : {1, 2, 8}) {
        std::fill(out.begin(), out.end(), -999);
        compiled.PredictWithKernel(batch, out, threads, kernel);
        ASSERT_EQ(out, serial)
            << "n=" << n << " kernel=" << name << " threads=" << threads;
      }
    }
  }
}

TEST(CompiledTreeTest, ActiveKernelNameFollowsSimdAvailability) {
  // Above the crossover kAuto scores with the AVX2 kernel when the CPU has
  // it and with the per-tuple loop otherwise; the name reports which.
  EXPECT_STREQ(CompiledTree::ActiveKernelName(),
               CompiledTree::SimdAvailable() ? "avx2" : "tuple");
}

}  // namespace
}  // namespace boat
