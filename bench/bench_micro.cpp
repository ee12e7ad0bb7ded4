// Micro-benchmarks (google-benchmark) of the library's hot paths: impurity
// evaluation, numeric split search, AVC construction, corner lower bounds,
// table scan throughput, and data generation.

#include <benchmark/benchmark.h>

#include <thread>

#include "bench_common.h"
#include "boat/bounds.h"
#include "boat/builder.h"
#include "boat/discretization.h"
#include "common/timer.h"
#include "tree/columnar_builder.h"
#include "tree/compiled_tree.h"
#include "tree/inmem_builder.h"
#include "tree/serialize.h"
#include "datagen/agrawal.h"
#include "split/numeric_search.h"
#include "split/selector.h"
#include "storage/table_file.h"
#include "storage/temp_file.h"

namespace boat {
namespace {

void BM_GiniEval(benchmark::State& state) {
  GiniImpurity gini;
  const int64_t left[2] = {123, 456};
  const int64_t right[2] = {789, 12};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gini.Eval(left, right, 2, 1380));
  }
}
BENCHMARK(BM_GiniEval);

void BM_EntropyEval(benchmark::State& state) {
  EntropyImpurity entropy;
  const int64_t left[2] = {123, 456};
  const int64_t right[2] = {789, 12};
  for (auto _ : state) {
    benchmark::DoNotOptimize(entropy.Eval(left, right, 2, 1380));
  }
}
BENCHMARK(BM_EntropyEval);

NumericAvc MakeAvc(int64_t values) {
  Rng rng(1);
  NumericAvc avc(2);
  for (int64_t i = 0; i < values * 4; ++i) {
    const double v = static_cast<double>(rng.UniformInt(0, values - 1));
    avc.Add(v, rng.Bernoulli(v / static_cast<double>(values)) ? 1 : 0);
  }
  avc.Finalize();
  return avc;
}

void BM_NumericSplitSearch(benchmark::State& state) {
  const NumericAvc avc = MakeAvc(state.range(0));
  GiniImpurity gini;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestNumericSplit(avc, 0, gini));
  }
  state.SetItemsProcessed(state.iterations() * avc.num_values());
}
BENCHMARK(BM_NumericSplitSearch)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AvcGroupBuild(benchmark::State& state) {
  AgrawalConfig config;
  config.function = 6;
  const std::vector<Tuple> tuples =
      GenerateAgrawal(config, static_cast<uint64_t>(state.range(0)));
  const Schema schema = MakeAgrawalSchema();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildAvcGroup(schema, tuples));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AvcGroupBuild)->Arg(1000)->Arg(10000);

void BM_CornerLowerBound(benchmark::State& state) {
  GiniImpurity gini;
  const int k = static_cast<int>(state.range(0));
  std::vector<int64_t> lo(k), hi(k), totals(k);
  int64_t total = 0;
  for (int c = 0; c < k; ++c) {
    lo[c] = 10 * c;
    hi[c] = 10 * c + 50;
    totals[c] = 200;
    total += totals[c];
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(CornerLowerBound(gini, lo, hi, totals, total));
  }
}
BENCHMARK(BM_CornerLowerBound)->Arg(2)->Arg(4)->Arg(8);

void BM_TableScan(benchmark::State& state) {
  auto temp = TempFileManager::Create();
  CheckOk(temp.status());
  const std::string path = temp->NewPath("scan");
  AgrawalConfig config;
  config.function = 1;
  CheckOk(GenerateAgrawalTable(config, static_cast<uint64_t>(state.range(0)),
                               path));
  const Schema schema = MakeAgrawalSchema();
  auto reader = TableReader::Open(path, schema);
  CheckOk(reader.status());
  for (auto _ : state) {
    CheckOk((*reader)->Reset());
    Tuple t;
    int64_t n = 0;
    while ((*reader)->Next(&t)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * state.range(0) *
                          static_cast<int64_t>(schema.RecordWidth()));
}
BENCHMARK(BM_TableScan)->Arg(10000)->Arg(100000);

void BM_AgrawalGenerate(benchmark::State& state) {
  AgrawalConfig config;
  config.function = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateAgrawal(config, static_cast<uint64_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AgrawalGenerate)->Arg(10000);

void BM_BucketCountsAdd(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> boundaries;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    boundaries.push_back(static_cast<double>(i * 100));
  }
  BucketCounts bc(Discretization(std::move(boundaries)), 2);
  std::vector<std::pair<double, int32_t>> values;
  for (int i = 0; i < 4096; ++i) {
    values.push_back({rng.UniformDouble(0, state.range(0) * 100.0),
                      static_cast<int32_t>(rng.UniformInt(0, 1))});
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [v, label] = values[i++ & 4095];
    bc.Add(v, label);
  }
}
BENCHMARK(BM_BucketCountsAdd)->Arg(16)->Arg(128)->Arg(512);

void BM_BoatSamplingPhase(benchmark::State& state) {
  AgrawalConfig config;
  config.function = 6;
  config.noise = 0.05;
  AgrawalGenerator gen(config, static_cast<uint64_t>(state.range(0)));
  auto selector = MakeGiniSelector();
  SamplingPhaseOptions opts;
  opts.sample_size = static_cast<size_t>(state.range(0) / 10);
  opts.bootstrap_count = 20;
  opts.bootstrap_subsample = opts.sample_size / 4;
  opts.frontier_threshold = state.range(0) / 10;
  for (auto _ : state) {
    Rng rng(7);
    auto phase = RunSamplingPhase(&gen, *selector, opts, &rng);
    CheckOk(phase.status());
    benchmark::DoNotOptimize(phase->coarse_root);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BoatSamplingPhase)->Arg(20000)->Arg(100000);

void BM_BoatFullBuild(benchmark::State& state) {
  AgrawalConfig config;
  config.function = 6;
  config.noise = 0.05;
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  AgrawalGenerator gen(config, n);
  auto selector = MakeGiniSelector();
  BoatOptions options;
  options.sample_size = n / 10;
  options.bootstrap_count = 20;
  options.bootstrap_subsample = n / 40;
  options.inmem_threshold = static_cast<int64_t>(n / 10);
  options.limits.stop_family_size = static_cast<int64_t>(n / 10);
  for (auto _ : state) {
    auto tree = BuildTreeBoat(&gen, *selector, options);
    CheckOk(tree.status());
    benchmark::DoNotOptimize(tree->num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BoatFullBuild)->Arg(20000)->Arg(100000);

void BM_BoatGrowthThreads(benchmark::State& state) {
  // The multi-threaded growth phase on a 500k-tuple database; Arg = worker
  // threads. Every thread count produces the byte-identical tree (enforced
  // by parallel_equivalence_test), so this measures pure speedup. On a
  // single-core host the thread counts tie (modulo pipeline overhead).
  AgrawalConfig config;
  config.function = 6;
  config.noise = 0.05;
  const uint64_t n = 500000;
  AgrawalGenerator gen(config, n);
  auto selector = MakeGiniSelector();
  BoatOptions options;
  options.sample_size = 20000;
  options.bootstrap_count = 20;
  options.bootstrap_subsample = 5000;
  options.inmem_threshold = static_cast<int64_t>(n / 10);
  options.limits.stop_family_size = static_cast<int64_t>(n / 10);
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto tree = BuildTreeBoat(&gen, *selector, options);
    CheckOk(tree.status());
    benchmark::DoNotOptimize(tree->num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BoatGrowthThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- columnar growth
//
// Shared fixture: a sample-sized Agrawal family (what the bootstrap phase
// and frontier resolution grow trees over). The first growth benchmark also
// (a) byte-compares the columnar engine's tree against the legacy row
// builder's — aborting the process on divergence, which the CI bench-smoke
// job keys off — and (b) records a BENCH_growth.json trajectory comparing
// the two engines (path overridable via BOAT_BENCH_GROWTH_JSON).

struct GrowthFixture {
  Schema schema = MakeAgrawalSchema();
  std::vector<Tuple> train;
  std::unique_ptr<SplitSelector> selector = MakeGiniSelector();
  GrowthLimits limits;

  GrowthFixture() {
    AgrawalConfig config;
    config.function = 6;
    config.noise = 0.05;  // noise => deep tree, many node families
    config.seed = 81;
    train = GenerateAgrawal(config, 20000);
    limits.max_depth = 24;
    limits.stop_family_size = 50;
  }
};

GrowthFixture& Growth() {
  static GrowthFixture* fixture = new GrowthFixture();
  return *fixture;
}

// Verifies engine equivalence and writes the trajectory file exactly once
// per process run, regardless of which growth benchmarks the filter selects.
void VerifyAndRecordGrowth() {
  static const bool done = [] {
    GrowthFixture& fx = Growth();
    const DecisionTree rows =
        BuildTreeInMemoryRows(fx.schema, fx.train, *fx.selector, fx.limits);
    {
      const ColumnDataset data(fx.schema, fx.train);
      const DecisionTree columnar =
          BuildTreeColumnar(data, *fx.selector, fx.limits);
      if (SerializeTree(columnar) != SerializeTree(rows)) {
        FatalError("columnar growth engine diverges from the row builder");
      }
    }

    const char* env = std::getenv("BOAT_BENCH_GROWTH_JSON");
    bench::BenchJsonWriter writer(
        env != nullptr && env[0] != '\0' ? env : "BENCH_growth.json");
    const double n = static_cast<double>(fx.train.size());
    const auto time_passes = [&](auto&& fn) {
      constexpr int kPasses = 3;
      Stopwatch watch;
      for (int p = 0; p < kPasses; ++p) fn();
      return n * kPasses / watch.ElapsedSeconds();  // tuples per second
    };

    // Host record first: the CI growth-scaling assertion keys off
    // hardware_threads so it can skip (rather than fail) on boxes that
    // cannot exhibit intra-tree scaling.
    writer.Add("host",
               {{"hardware_threads",
                 static_cast<double>(std::thread::hardware_concurrency())}});

    const double row_rate = time_passes([&] {
      benchmark::DoNotOptimize(
          BuildTreeInMemoryRows(fx.schema, fx.train, *fx.selector, fx.limits)
              .num_nodes());
    });
    writer.Add("row_builder",
               {{"tuples_per_sec", row_rate},
                {"tree_nodes", static_cast<double>(rows.num_nodes())}});
    // The columnar pass includes materialization and the root sort — the
    // same end-to-end work BuildTreeInMemory does on the default engine.
    const double columnar_rate = time_passes([&] {
      const ColumnDataset data(fx.schema, fx.train);
      benchmark::DoNotOptimize(
          BuildTreeColumnar(data, *fx.selector, fx.limits).num_nodes());
    });
    writer.Add("columnar",
               {{"tuples_per_sec", columnar_rate},
                {"speedup_vs_rows", columnar_rate / row_rate}});
    // Intra-tree thread sweep: the same single-tree build at 1/2/4 worker
    // threads (parallel root sorts, frontier fan-out, blocked partitions).
    // Every thread count grows the byte-identical tree — enforced by
    // growth_parallel_equivalence_test — so speedup_vs_t1 is pure
    // scheduling gain; the CI bench-smoke job asserts columnar_t4 scales
    // when the host has the cores for it.
    double t1_rate = 0.0;
    for (const int threads : {1, 2, 4}) {
      GrowthLimits limits = fx.limits;
      limits.num_threads = threads;
      const double rate = time_passes([&] {
        const ColumnDataset data(fx.schema, fx.train, threads);
        benchmark::DoNotOptimize(
            BuildTreeColumnar(data, *fx.selector, limits).num_nodes());
      });
      if (threads == 1) t1_rate = rate;
      writer.Add("columnar_t" + std::to_string(threads),
                 {{"tuples_per_sec", rate},
                  {"threads", static_cast<double>(threads)},
                  {"speedup_vs_t1", rate / t1_rate}});
    }
    writer.Flush();
    return true;
  }();
  (void)done;
}

void BM_InMemBuild(benchmark::State& state) {
  VerifyAndRecordGrowth();
  GrowthFixture& fx = Growth();
  for (auto _ : state) {
    const ColumnDataset data(fx.schema, fx.train);
    benchmark::DoNotOptimize(
        BuildTreeColumnar(data, *fx.selector, fx.limits).num_nodes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.train.size()));
}
BENCHMARK(BM_InMemBuild)->Unit(benchmark::kMillisecond);

void BM_InMemBuildRows(benchmark::State& state) {
  VerifyAndRecordGrowth();
  GrowthFixture& fx = Growth();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildTreeInMemoryRows(fx.schema, fx.train, *fx.selector, fx.limits)
            .num_nodes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.train.size()));
}
BENCHMARK(BM_InMemBuildRows)->Unit(benchmark::kMillisecond);

void BM_TreeClassify(benchmark::State& state) {
  AgrawalConfig config;
  config.function = 7;
  config.noise = 0.05;
  auto data = GenerateAgrawal(config, 20000);
  auto selector = MakeGiniSelector();
  DecisionTree tree = BuildTreeInMemory(MakeAgrawalSchema(), data, *selector);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Classify(data[i++ % data.size()]));
  }
}
BENCHMARK(BM_TreeClassify);

// ------------------------------------------------------ compiled inference
//
// Shared fixture: a deep, noisy-overfit tree (the worst case for pointer
// chasing) plus a fresh scoring batch. The first benchmark touching the
// fixture also (a) verifies that CompiledTree and the pointer walk agree on
// every tuple — aborting the process on divergence, which is what the CI
// bench-smoke job keys off — and (b) records a BENCH_inference.json
// trajectory comparing the two layouts (path overridable via
// BOAT_BENCH_JSON).

struct InferenceFixture {
  Schema schema = MakeAgrawalSchema();
  std::vector<Tuple> train;
  std::vector<Tuple> batch;  // fresh records to score
  std::unique_ptr<SplitSelector> selector = MakeGiniSelector();
  std::unique_ptr<DecisionTree> tree;
  std::unique_ptr<CompiledTree> compiled;

  InferenceFixture() {
    AgrawalConfig config;
    config.function = 7;
    config.noise = 0.05;  // noise => deep overfit tree
    config.seed = 71;
    train = GenerateAgrawal(config, 20000);
    config.seed = 72;
    batch = GenerateAgrawal(config, 20000);
    tree = std::make_unique<DecisionTree>(
        BuildTreeInMemory(schema, train, *selector));
    compiled = std::make_unique<CompiledTree>(*tree);
  }
};

InferenceFixture& Inference() {
  static InferenceFixture* fixture = new InferenceFixture();
  return *fixture;
}

// Verifies equivalence and writes the trajectory file exactly once per
// process run, regardless of which inference benchmarks the filter selects.
void VerifyAndRecordInference() {
  static const bool done = [] {
    InferenceFixture& fx = Inference();
    for (const auto* data : {&fx.train, &fx.batch}) {
      const std::vector<int32_t> compiled = fx.compiled->Predict(*data, 1);
      for (size_t i = 0; i < data->size(); ++i) {
        if (compiled[i] != fx.tree->Classify((*data)[i])) {
          FatalError("CompiledTree diverges from DecisionTree::Classify");
        }
      }
    }

    const char* env = std::getenv("BOAT_BENCH_JSON");
    bench::BenchJsonWriter writer(
        env != nullptr && env[0] != '\0' ? env : "BENCH_inference.json");
    const double n = static_cast<double>(fx.batch.size());
    const auto time_passes = [&](auto&& fn) {
      constexpr int kPasses = 5;
      fn();  // untimed warmup: fault in pages, warm caches, spin up pools
      Stopwatch watch;
      for (int p = 0; p < kPasses; ++p) fn();
      return n * kPasses / watch.ElapsedSeconds();  // tuples per second
    };

    // Host record: the CI scaling assertion keys off hardware_threads so it
    // can skip (rather than fail) on boxes that cannot exhibit scaling.
    writer.Add("host",
               {{"hardware_threads",
                 static_cast<double>(std::thread::hardware_concurrency())},
                {"simd_available",
                 CompiledTree::SimdAvailable() ? 1.0 : 0.0}});

    std::vector<int32_t> out(fx.batch.size());
    const double pointer_walk = time_passes([&] {
      for (size_t i = 0; i < fx.batch.size(); ++i) {
        out[i] = fx.tree->Classify(fx.batch[i]);
      }
      benchmark::DoNotOptimize(out.data());
    });
    writer.Add("pointer_walk",
               {{"tuples_per_sec", pointer_walk},
                {"tree_nodes", static_cast<double>(fx.tree->num_nodes())},
                {"tree_depth", static_cast<double>(fx.tree->depth())}});
    for (const int threads : {1, 2, 4}) {
      const double rate = time_passes([&] {
        fx.compiled->Predict(fx.batch, out, threads);
        benchmark::DoNotOptimize(out.data());
      });
      writer.Add("compiled_batch_t" + std::to_string(threads),
                 {{"tuples_per_sec", rate},
                  {"threads", static_cast<double>(threads)},
                  {"speedup_vs_pointer_walk", rate / pointer_walk}});
    }
    // Per-kernel single-thread rates: the per-tuple loop against the AVX2
    // blocked level-synchronous sweep.
    const auto kernel_rate = [&](PredictKernel kernel) {
      return time_passes([&] {
        fx.compiled->PredictWithKernel(fx.batch, out, 1, kernel);
        benchmark::DoNotOptimize(out.data());
      });
    };
    const double tuple_rate =
        kernel_rate(PredictKernel::kScalarTuple);
    writer.Add("kernel_scalar_tuple_t1", {{"tuples_per_sec", tuple_rate}});
    if (CompiledTree::SimdAvailable()) {
      const double simd_rate = kernel_rate(PredictKernel::kSimd);
      writer.Add("kernel_simd_t1",
                 {{"tuples_per_sec", simd_rate},
                  {"speedup_vs_scalar_tuple", simd_rate / tuple_rate}});
    }
    writer.Flush();
    return true;
  }();
  (void)done;
}

void BM_ClassifyCompiled(benchmark::State& state) {
  VerifyAndRecordInference();
  InferenceFixture& fx = Inference();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.compiled->Classify(fx.batch[i++ % fx.batch.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyCompiled);

void BM_ClassifyBatchThreads(benchmark::State& state) {
  VerifyAndRecordInference();
  InferenceFixture& fx = Inference();
  const int threads = static_cast<int>(state.range(0));
  std::vector<int32_t> out(fx.batch.size());
  fx.compiled->Predict(fx.batch, out, threads);  // warmup: steady state only
  for (auto _ : state) {
    fx.compiled->Predict(fx.batch, out, threads);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.batch.size()));
}
BENCHMARK(BM_ClassifyBatchThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace boat

BENCHMARK_MAIN();
