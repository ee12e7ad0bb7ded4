// boatc — command-line front end for the BOAT library.
//
//   boatc generate --function 6 --rows 200000 --noise 0.05 --out train.tbl
//   boatc train    --data train.tbl --model model/ [--selector gini] [--json]
//   boatc evaluate --model model/ --data test.tbl [--threads T] [--json]
//   boatc classify --model model/ --data new.tbl --out labels.csv
//            [--threads T] [--json]
//   boatc apply-chunk --model model/ --insert chunk.csv [--json]
//   boatc apply-chunk --model model/ --delete expired.csv [--json]
//   boatc inspect  --model model/ [--rules] [--dot]
//
// Training data may also be a CSV file (schema inferred; see storage/csv.h);
// everything else uses the binary table format tied to the model's schema.
//
// Scoring (evaluate/classify) runs through the CompiledTree flat inference
// layout; --threads T shards the batch (0 = all cores) without changing a
// single prediction. --json replaces the human-readable report on stdout
// with one machine-readable JSON object sharing a single schema across
// subcommands: {"command", "seconds", "records", "threads", "model":
// {"nodes","leaves","depth"}, "stats": {...}, "accuracy", "confusion":
// {"num_classes","counts"}, "out"} — absent keys simply don't apply.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "boat/boat.h"
#include "boat/persistence.h"
#include "common_flags.h"
#include "tree/ensemble.h"

namespace {

using namespace boat;
using boat::tools::Flags;

void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

bool IsCsv(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

// ------------------------------------------------------------- JSON output
//
// One schema across subcommands (--json): a single JSON object on stdout,
// keys in a fixed order, nothing else printed. Scrapers key off "command".

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Minimal order-preserving JSON object builder; values are preformatted.
class JsonObject {
 public:
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + JsonEscape(value) + "\"");
  }
  JsonObject& Int(const std::string& key, long long value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", value);
    return Raw(key, buf);
  }
  JsonObject& Double(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + JsonEscape(key) + "\":" + json;
    return *this;
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonTree(const DecisionTree& tree) {
  return JsonObject()
      .Int("nodes", static_cast<long long>(tree.num_nodes()))
      .Int("leaves", static_cast<long long>(tree.num_leaves()))
      .Int("depth", tree.depth())
      .Render();
}

std::string JsonStats(const BoatStats& stats) {
  return JsonObject()
      .Int("db_size", static_cast<long long>(stats.db_size))
      .Int("bootstrap_kills", static_cast<long long>(stats.bootstrap_kills))
      .Int("coarse_nodes", static_cast<long long>(stats.coarse_nodes))
      .Int("cleanup_scans", static_cast<long long>(stats.cleanup_scans))
      .Int("failed_checks", static_cast<long long>(stats.failed_checks))
      .Int("leafized_nodes", static_cast<long long>(stats.leafized_nodes))
      .Int("retained_tuples", static_cast<long long>(stats.retained_tuples))
      .Int("frontier_inmem", static_cast<long long>(stats.frontier_inmem))
      .Int("frontier_recursive",
           static_cast<long long>(stats.frontier_recursive))
      .Int("rebuild_scans", static_cast<long long>(stats.rebuild_scans))
      .Int("side_switch_tuples",
           static_cast<long long>(stats.side_switch_tuples))
      .Int("subtree_rebuilds", static_cast<long long>(stats.subtree_rebuilds))
      .Render();
}

std::string JsonConfusion(const ConfusionMatrix& cm) {
  std::string counts = "[";
  for (int a = 0; a < cm.num_classes(); ++a) {
    if (a > 0) counts += ",";
    counts += "[";
    for (int p = 0; p < cm.num_classes(); ++p) {
      if (p > 0) counts += ",";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(cm.count(a, p)));
      counts += buf;
    }
    counts += "]";
  }
  counts += "]";
  return JsonObject()
      .Int("num_classes", cm.num_classes())
      .Raw("counts", counts)
      .Render();
}

// Loads training data from .tbl (schema must be recoverable from the file —
// here we require Agrawal schema unless CSV) or .csv (schema inferred).
struct LoadedData {
  Schema schema;
  std::vector<Tuple> tuples;
  ExportNames names;  // CSV dictionaries, when available
};

LoadedData LoadData(const std::string& path, const Schema* expected) {
  LoadedData out;
  if (path == "-") {
    // CSV on stdin (header line included), for piping records straight
    // into classify/evaluate.
    auto dataset = LoadCsv(std::cin);
    Check(dataset.status());
    out.schema = dataset->schema;
    out.tuples = std::move(dataset->tuples);
    out.names.categories = std::move(dataset->categories);
    out.names.classes = std::move(dataset->class_names);
    return out;
  }
  if (IsCsv(path)) {
    auto dataset = LoadCsv(path);
    Check(dataset.status());
    out.schema = dataset->schema;
    out.tuples = std::move(dataset->tuples);
    out.names.categories = std::move(dataset->categories);
    out.names.classes = std::move(dataset->class_names);
    return out;
  }
  const Schema schema = expected != nullptr ? *expected : MakeAgrawalSchema();
  auto tuples = ReadTable(path, schema);
  Check(tuples.status());
  out.schema = schema;
  out.tuples = std::move(*tuples);
  return out;
}

// ----------------------------------------------------------------- commands

int CmdGenerate(const Flags& flags) {
  AgrawalConfig config;
  config.function = static_cast<int>(flags.GetInt("function", 1));
  config.noise = flags.GetDouble("noise", 0.0);
  config.extra_numeric_attrs =
      static_cast<int>(flags.GetInt("extra-attrs", 0));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  if (flags.Has("drift")) config.drift = Drift::kRelabelOldAge;
  const int64_t rows = flags.GetInt("rows", 100'000);
  const std::string out = flags.Require("out");
  if (IsCsv(out)) {
    const auto tuples =
        GenerateAgrawal(config, static_cast<uint64_t>(rows));
    Check(WriteCsv(out, MakeAgrawalSchema(config.extra_numeric_attrs),
                   tuples));
  } else {
    Check(GenerateAgrawalTable(config, static_cast<uint64_t>(rows), out));
  }
  std::printf("wrote %lld Agrawal F%d records (noise %.0f%%) to %s\n",
              static_cast<long long>(rows), config.function,
              100 * config.noise, out.c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  const std::string data_path = flags.Require("data");
  const std::string model_dir = flags.Require("model");
  const std::string selector_name = flags.Get("selector", "gini");

  LoadedData data = LoadData(data_path, nullptr);
  const int64_t n = static_cast<int64_t>(data.tuples.size());
  auto options = tools::CommonBoatOptions(flags, n);
  Check(options.status());
  // --emit-ensemble: keep the sampling phase's bootstrap trees and persist
  // them as <model>/ensemble (a bagged majority-vote backend for boatd).
  const bool emit_ensemble = flags.Has("emit-ensemble");
  options->keep_bootstrap_trees = emit_ensemble;

  VectorSource source(data.schema, data.tuples);
  Stopwatch watch;
  BoatStats stats;
  const DecisionTree* tree = nullptr;
  std::unique_ptr<Session> session;
  std::unique_ptr<BoatClassifier> classifier;
  if (options->enable_updates) {
    SessionOptions session_options;
    session_options.selector = selector_name;
    session_options.boat = *options;
    auto trained =
        Session::Train(&source, model_dir, session_options, &stats);
    Check(trained.status());
    session = std::move(*trained);
    tree = &session->tree();
  } else {
    // --no-updates: a frozen model (no archive, no incremental maintenance)
    // through the classifier-level API the Session wraps.
    auto selector = MakeSelectorByName(selector_name);
    Check(selector.status());
    auto trained =
        BoatClassifier::Train(&source, selector->get(), *options, &stats);
    Check(trained.status());
    classifier = std::move(*trained);
    Check(SaveClassifier(*classifier, model_dir));
    if (emit_ensemble && !classifier->bootstrap_trees().empty()) {
      // The Session path persists the ensemble inside Session::Train; the
      // frozen path saves it explicitly.
      Check(SaveEnsemble(data.schema, classifier->bootstrap_trees(),
                         model_dir + "/ensemble"));
    }
    tree = &classifier->tree();
  }
  const double seconds = watch.ElapsedSeconds();
  if (flags.Has("json")) {
    JsonObject json;
    json.Str("command", "train")
        .Double("seconds", seconds)
        .Int("records", n)
        .Int("threads", options->num_threads)
        .Str("selector", selector_name)
        .Raw("model", JsonTree(*tree))
        .Raw("stats", JsonStats(stats))
        .Str("model_dir", model_dir);
    if (emit_ensemble) json.Str("ensemble_dir", model_dir + "/ensemble");
    std::printf("%s\n", json.Render().c_str());
    return 0;
  }
  std::printf(
      "trained on %lld records in %.2fs — tree: %zu nodes, depth %d; "
      "model saved to %s\n",
      static_cast<long long>(n), seconds, tree->num_nodes(), tree->depth(),
      model_dir.c_str());
  if (emit_ensemble) {
    std::printf("  bootstrap ensemble saved to %s/ensemble\n",
                model_dir.c_str());
  }
  std::printf("  (selector %s, coarse nodes %llu, kills %llu, failed checks "
              "%llu)\n",
              selector_name.c_str(),
              static_cast<unsigned long long>(stats.coarse_nodes),
              static_cast<unsigned long long>(stats.bootstrap_kills),
              static_cast<unsigned long long>(stats.failed_checks));
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  auto session = Session::Open(flags.Require("model"),
                               flags.Get("selector", "gini"));
  Check(session.status());
  const Schema& schema = (*session)->schema();
  LoadedData data = LoadData(flags.Require("data"), &schema);
  const int threads = static_cast<int>(flags.GetInt("threads", 1));
  const CompiledTree compiled = (*session)->Compile();
  Stopwatch watch;
  const ConfusionMatrix cm = Evaluate(compiled, data.tuples, threads);
  const double seconds = watch.ElapsedSeconds();
  if (flags.Has("json")) {
    std::printf("%s\n",
                JsonObject()
                    .Str("command", "evaluate")
                    .Double("seconds", seconds)
                    .Int("records", static_cast<long long>(cm.total()))
                    .Int("threads", threads)
                    .Raw("model", JsonTree((*session)->tree()))
                    .Double("accuracy", cm.Accuracy())
                    .Raw("confusion", JsonConfusion(cm))
                    .Render()
                    .c_str());
    return 0;
  }
  std::printf("accuracy: %.2f%% over %lld records\n", 100 * cm.Accuracy(),
              static_cast<long long>(cm.total()));
  std::printf("%s", cm.ToString().c_str());
  return 0;
}

int CmdClassify(const Flags& flags) {
  const std::string model_dir = flags.Require("model");
  const int threads = static_cast<int>(flags.GetInt("threads", 1));
  const bool use_ensemble = flags.Has("ensemble");

  // Either backend produces `predicted` plus a model-shape JSON fragment;
  // everything below the scoring block is shared.
  std::unique_ptr<Session> session;
  std::unique_ptr<CompiledEnsemble> ensemble;
  LoadedData data;
  std::string model_json;
  if (use_ensemble) {
    // --ensemble: bagged majority vote over <model>/ensemble, the offline
    // twin of boatd's ensemble backend (`--ensemble name=DIR`).
    auto loaded = LoadEnsemble(model_dir + "/ensemble");
    Check(loaded.status());
    data = LoadData(flags.Require("data"), &loaded->schema);
    ensemble = std::make_unique<CompiledEnsemble>(loaded->members);
    model_json = JsonObject()
                     .Int("members",
                          static_cast<long long>(ensemble->num_members()))
                     .Int("nodes",
                          static_cast<long long>(ensemble->total_nodes()))
                     .Render();
  } else {
    auto opened = Session::Open(model_dir, flags.Get("selector", "gini"));
    Check(opened.status());
    session = std::move(*opened);
    data = LoadData(flags.Require("data"), &session->schema());
    model_json = JsonTree(session->tree());
  }

  Stopwatch watch;
  // Score into uninitialized-capacity storage: Predict writes every slot,
  // so the zero-fill of a sized vector would only add a pass over n int32s.
  const size_t n = data.tuples.size();
  const auto buffer = std::make_unique_for_overwrite<int32_t[]>(n);
  const std::span<int32_t> predicted(buffer.get(), n);
  if (use_ensemble) {
    ensemble->Predict(data.tuples, predicted, threads);
  } else {
    const CompiledTree compiled = session->Compile();
    compiled.Predict(data.tuples, predicted, threads);
  }
  const double seconds = watch.ElapsedSeconds();

  const std::string out_path = flags.Get("out");
  std::ofstream out;
  if (!out_path.empty()) out.open(out_path);
  // With --json and no --out the predictions go into the JSON itself.
  const bool inline_labels = flags.Has("json") && out_path.empty();
  if (!inline_labels) {
    std::ostream& sink = out_path.empty() ? std::cout : out;
    for (const int32_t label : predicted) sink << label << "\n";
  }
  if (flags.Has("json")) {
    JsonObject json;
    json.Str("command", "classify")
        .Double("seconds", seconds)
        .Int("records", static_cast<long long>(predicted.size()))
        .Int("threads", threads)
        .Raw("model", model_json);
    if (inline_labels) {
      std::string labels = "[";
      for (size_t i = 0; i < predicted.size(); ++i) {
        if (i > 0) labels += ",";
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%d", predicted[i]);
        labels += buf;
      }
      labels += "]";
      json.Raw("labels", labels);
    } else {
      json.Str("out", out_path);
    }
    std::printf("%s\n", json.Render().c_str());
    return 0;
  }
  if (!out_path.empty()) {
    std::printf("wrote %zu predictions to %s\n", data.tuples.size(),
                out_path.c_str());
  }
  return 0;
}

// The offline twin of the daemon's streaming path: parse a labeled chunk,
// run it through Session::Apply (validation, exact incremental maintenance,
// rollback on failure, persist on success) — the very code path boatd's
// Trainer drains.
int CmdApplyChunk(const Flags& flags) {
  const std::string model_dir = flags.Require("model");
  auto session = Session::Open(model_dir, flags.Get("selector", "gini"));
  Check(session.status());
  const Schema& schema = (*session)->schema();

  ChunkOp op;
  std::string chunk_path;
  if (flags.Has("insert")) {
    op = ChunkOp::kInsert;
    chunk_path = flags.Get("insert");
  } else if (flags.Has("delete")) {
    op = ChunkOp::kDelete;
    chunk_path = flags.Get("delete");
  } else {
    std::fprintf(stderr, "apply-chunk needs --insert FILE or --delete FILE\n");
    return 2;
  }
  LoadedData chunk = LoadData(chunk_path, &schema);

  Stopwatch watch;
  BoatStats stats;
  Check((*session)->Apply(op, chunk.tuples, &stats));
  const double seconds = watch.ElapsedSeconds();
  if (flags.Has("json")) {
    std::printf("%s\n",
                JsonObject()
                    .Str("command", "apply-chunk")
                    .Str("op", op == ChunkOp::kInsert ? "insert" : "delete")
                    .Double("seconds", seconds)
                    .Int("records", static_cast<long long>(chunk.tuples.size()))
                    .Raw("model", JsonTree((*session)->tree()))
                    .Raw("stats", JsonStats(stats))
                    .Str("model_dir", model_dir)
                    .Render()
                    .c_str());
    return 0;
  }
  std::printf("%s %zu records in %.2fs — %llu subtree(s) rebuilt%s\n",
              op == ChunkOp::kInsert ? "inserted" : "deleted",
              chunk.tuples.size(), seconds,
              static_cast<unsigned long long>(stats.subtree_rebuilds),
              stats.subtree_rebuilds > 0 ? " (distribution change detected)"
                                         : "");
  std::printf("model updated in place: %zu nodes, depth %d\n",
              (*session)->tree().num_nodes(), (*session)->tree().depth());
  return 0;
}

int CmdInspect(const Flags& flags) {
  auto session = Session::Open(flags.Require("model"),
                               flags.Get("selector", "gini"));
  Check(session.status());
  const DecisionTree& tree = (*session)->tree();
  if (flags.Has("dot")) {
    std::printf("%s", ExportDot(tree).c_str());
    return 0;
  }
  if (flags.Has("rules")) {
    std::printf("%s", ExportRules(tree).c_str());
    return 0;
  }
  const ModelShape shape = DescribeModel((*session)->engine().model_root());
  std::printf("tree: %zu nodes (%zu leaves), depth %d\n", tree.num_nodes(),
              tree.num_leaves(), tree.depth());
  std::printf("model: %lld verified internal nodes, %lld frontier nodes\n",
              static_cast<long long>(shape.internal_nodes),
              static_cast<long long>(shape.frontier_nodes));
  std::printf("%s", tree.ToString().c_str());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: boatc <command> [flags]\n"
      "commands:\n"
      "  generate --out FILE [--function 1..10] [--rows N] [--noise P]\n"
      "           [--extra-attrs N] [--drift] [--seed S]\n"
      "  train    --data FILE --model DIR [--selector gini|entropy|quest]\n"
      "           [--sample N] [--bootstraps B] [--subsample N] [--inmem N]\n"
      "           [--threads T (0 = all cores; any T gives the same tree)]\n"
      "           [--max-depth D] [--stop-family N] [--no-updates]\n"
      "           [--emit-ensemble (also save <model>/ensemble)] [--json]\n"
      "  evaluate --model DIR --data FILE [--selector ...] [--threads T]\n"
      "           [--json]\n"
      "  classify --model DIR --data FILE [--out FILE] [--threads T]\n"
      "           [--ensemble (bagged vote over <model>/ensemble)] [--json]\n"
      "  apply-chunk --model DIR (--insert FILE | --delete FILE)\n"
      "           [--selector ...] [--json]\n"
      "  inspect  --model DIR [--rules] [--dot]\n"
      "Data files: .tbl (binary tables; Agrawal schema assumed for training)\n"
      "or .csv (schema inferred at training time). classify/evaluate also\n"
      "accept `--data -` to read CSV (with header) from stdin.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "classify") return CmdClassify(flags);
  if (command == "apply-chunk") return CmdApplyChunk(flags);
  if (command == "inspect") return CmdInspect(flags);
  return Usage();
}
