// End-to-end benchmark of the BOAT library: train from disk, score offline,
// serve over the wire, and retrain under load, in one process, through the
// public API only.
//
//   e2ebench --workload <train_disk|retrain_mixed> --seed <n>
//            --seconds <s> --trace <0|1> --work-dir <dir> [--trace-out <f>]
//
// Every workload runs the same five phases at its own sizes (README.md):
// set-up, train from disk, offline scoring, serving, retrain under load.
// After set-up the four timed phases run as `rounds` interleaved rounds, so
// every metric's median draws on samples from the whole run rather than from
// one stretch of it. Outputs are checked against oracles computed apart from
// the program. The last stdout line is one JSON object {"correct",
// "attempted", "failed", "metrics"}: the end-to-end metrics with --trace 0,
// the per-layer metrics of the traced run with --trace 1.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "boat/boat.h"
#include "boat/bootstrap_phase.h"
#include "common/parallel.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/trainer.h"
#include "serve/wire.h"

#include "client.h"
#include "trace.h"

namespace fs = std::filesystem;

namespace e2e {
namespace {

using boat::Status;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  // Training table on disk (Agrawal generator).
  int function;
  double noise;
  int64_t table_rows;
  // BOAT knobs.
  size_t sample_size;
  int64_t bootstrap_subsample;
  int64_t inmem_threshold;
  int64_t stop_family_size;  ///< 0 = grow until pure
  size_t store_budget;       ///< in-memory tuples per spillable store
  // Retrain under load: `chunks` chunks alternating INGEST of fresh records
  // labelled by `chunk_function` and DELETE of the previous insert (the
  // first DELETE removes the table's head), each followed by RETRAIN.
  int chunk_function;
  int64_t chunk_rows;
  int chunks;
  // Timed phases: `rounds` rounds, each training once per width and
  // spending these shares of --seconds (divided by rounds) on scoring and
  // serving.
  int rounds;
  double score_share;
  double serve_share;
};

// Offline batch: 16 384 rows, about 1.8 MB of tuples, which one core's L2
// holds. Larger batches spill into the L3 and memory that the host's other
// tenants share: at 600k rows score_mrows_s spread 60-80% of its median over
// ten runs, and even 262k rows at 1 thread read 30-41 Mrows/s from one minute
// to the next where 16k rows held 48-51 on the same tree. Offline scoring
// runs at 1 thread: a 2-thread Predict hands its first stripe to a thread
// started for the call, and on a shared virtual machine that thread got its
// CPU from tens of microseconds to milliseconds late, for minutes at a time,
// so the 2-thread rate swung between 1x and 2x the 1-thread rate. The
// 2-thread rate is the per-layer tree.predict_t2_mrows_s. At this size kAuto
// still takes the block kernel at any tree depth.
constexpr int64_t kScoreRows = 16'384;
constexpr int64_t kProbeRows = 4096;    // serving corpus
// Open-loop requests per second, in the serving leg and beside retrains. At
// 4000/s, with 250 us between requests, retrain_serve_p50_us split across
// runs between about 720 and 990 us; likely each request then found the
// server's idle virtual CPU descheduled, which at 125 us gaps it rarely is.
constexpr double kOpenLoopRate = 8000;
constexpr int kWindow = 512;            // pipelined leg: requests per burst
constexpr double kSliceSeconds = 0.05;  // pipelined leg: one rps sample
constexpr int kParallel = 2;            // threads of every parallel leg
constexpr int kSetupRounds = 3;         // set-up repetitions (median counts)
// Offline scoring runs in this many slices per round, between the other
// phases. A shared host's speed changes over seconds to minutes; the median
// of many short slices spread over the run follows its common state, where a
// few long ones flip with it.
constexpr int kScoreSlices = 3;
constexpr uint64_t kBoatSeed = 1234;
// Thread placement on hosts with at least four CPUs: every thread of a
// server on one CPU and the benchmark's client on another, so hand-offs and
// wake-ups do not depend on where the scheduler happens to put each thread.
// The serving stack moves to the next CPU every round, so one busy CPU of a
// shared host does not set a whole run's figures. During retrain the
// trainer's apply and growth threads get the two CPUs the updating server
// and its client do not use, so a retrain never takes CPU time from the
// scorer it runs beside.
constexpr int kUpdatingServerCpu = 0;
const std::vector<int> kRetrainClientCpus = {1};
const std::vector<int> kTrainerCpus = {2, 3};
const std::vector<int> kAnyCpu = {};

const Workload kWorkloads[] = {
    // The paper's Fig. 4-6 setup at scale unit S = 20k tuples: table 6S,
    // sample S/5, 20 bootstraps of S/20, in-memory switch and family-size
    // stop at 1.5S. A small store budget makes the S_n stores spill.
    {"train_disk", 6, 0.0, 120'000, 4'000, 1'000, 30'000, 30'000, 8'192,
     6, 500, 4, 4, 0.08, 0.20},
    // A mid-size served model receiving drifting F1 chunks into an F6
    // model, each followed by RETRAIN, beside a fixed-rate scorer. At 10%
    // noise the bootstrap trees disagree at the root for every table seed
    // (100 of 100 surveyed), so each chunk takes the same path: a rebuild
    // of the whole tree. At 5% a few seeds in a hundred kept a coarse top
    // instead, and those runs retrained 4x faster with a 40% larger model
    // directory.
    {"retrain_mixed", 6, 0.10, 40'000, 4'000, 1'000, 2'001, 0, 1 << 16,
     1, 2'000, 8, 4, 0.08, 0.25},
};

// ---------------------------------------------------------------------------
// Statistics over raw samples

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  return v[std::clamp<size_t>(static_cast<size_t>(rank), 1, v.size()) - 1];
}

double Seconds(int64_t from_ns) {
  return static_cast<double>(NowNs() - from_ns) * 1e-9;
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// Pins the calling thread, and the threads it creates from now on, to
/// `cpus`; an empty list restores every CPU the process may use. A process
/// allowed fewer than four CPUs is never pinned.
void PinTo(const std::vector<int>& cpus) {
  static const cpu_set_t all = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  static const bool enabled = [] {
    for (int cpu = 0; cpu < 4; ++cpu) {
      if (!CPU_ISSET(cpu, &all)) return false;
    }
    return true;
  }();
  if (!enabled) return;
  cpu_set_t set = all;
  if (!cpus.empty()) {
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// Run state

struct Metric {
  double value;
  const char* unit;
};

/// Raw samples gathered over all rounds.
struct Samples {
  std::vector<double> setup_inputs_s, setup_stack_s;
  std::vector<double> train_t1_s, train_t2_s;
  std::vector<double> score_mrows;
  std::vector<double> idle_us, pipe_rps, open_us, open_late_us;
  std::vector<double> retrain_ms, ack_ms, barrier_ms, retrain_serve_us;
  uint64_t serve_requests = 0;
  uint64_t serve_batches = 0;
};

struct Run {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  Tracer* tracer = nullptr;
  std::string work;

  boat::Schema schema = boat::MakeAgrawalSchema();
  boat::SessionOptions session_options;
  std::unique_ptr<boat::SplitSelector> selector = boat::MakeGiniSelector();

  // Inputs.
  std::string table;
  std::vector<boat::Tuple> score_batch;
  std::vector<boat::Tuple> probe;
  Corpus corpus;  // probe as wire lines; expected labels set after training
  std::vector<std::vector<boat::Tuple>> inserts;
  std::vector<boat::Tuple> base_deletes;   // the first DELETE chunk
  std::vector<std::string> framed_chunks;  // in send order

  // Outputs kept for the oracles.
  std::string model_dir;  // trained in round 0; retrained
  std::string pristine;   // copy of model_dir before any retrain; served
  std::unique_ptr<boat::Session> trained;
  boat::BoatStats train_stats;
  boat::IoStats train_io;
  std::string tree_text[2];  // serialized tree of the first train per width
  std::vector<int32_t> score_labels;
  std::vector<int32_t> final_served;  // probe labels after the last RETRAIN
  uint64_t final_fingerprint = 0;

  Samples s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  std::vector<std::string> notes;   // stderr report lines
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "e2ebench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

void CheckOkOrDie(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what, s);
}

uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

boat::AgrawalConfig Config(int function, double noise, uint64_t seed) {
  boat::AgrawalConfig c;
  c.function = function;
  c.noise = noise;
  c.seed = seed;
  return c;
}

std::string Frame(const char* verb, const boat::Schema& schema,
                  const std::vector<boat::Tuple>& chunk) {
  std::string out =
      std::string(verb) + " " + std::to_string(chunk.size()) + "\n";
  for (const std::string& line :
       boat::serve::FormatLabeledRecordLines(schema, chunk)) {
    out += line;
    out += '\n';
  }
  return out;
}

/// The records removed by chunk i (odd i): the table's head first, then
/// each earlier insert in turn.
const std::vector<boat::Tuple>& DeleteChunk(const Run& run, int i) {
  return i == 1 ? run.base_deletes
                : run.inserts[static_cast<size_t>((i - 1) / 2 - 1)];
}

// ---------------------------------------------------------------------------
// Set-up: inputs

void GenerateInputs(Run* run) {
  const Workload& w = *run->w;
  const uint64_t s = run->seed * 1000;
  {
    auto span = run->tracer->Open("datagen.table");
    CheckOkOrDie(boat::GenerateAgrawalTable(
                     Config(w.function, w.noise, s + 1),
                     static_cast<uint64_t>(w.table_rows), run->table),
                 "generate table");
  }
  auto span = run->tracer->Open("datagen.memory");
  run->score_batch = boat::GenerateAgrawal(
      Config(w.function, w.noise, s + 2), static_cast<uint64_t>(kScoreRows));
  run->probe = boat::GenerateAgrawal(Config(w.function, w.noise, s + 3),
                                     static_cast<uint64_t>(kProbeRows));
  run->corpus.lines = boat::serve::FormatRecordLines(run->schema, run->probe);
  for (std::string& line : run->corpus.lines) line += '\n';
  run->inserts.clear();
  for (int i = 0; i < w.chunks / 2; ++i) {
    run->inserts.push_back(boat::GenerateAgrawal(
        Config(w.chunk_function, w.noise, s + 10 + static_cast<uint64_t>(i)),
        static_cast<uint64_t>(w.chunk_rows)));
  }
  auto source = boat::TableScanSource::Open(run->table, run->schema);
  CheckOkOrDie(source.status(), "open table");
  run->base_deletes.clear();
  boat::Tuple t;
  while (static_cast<int64_t>(run->base_deletes.size()) < w.chunk_rows &&
         (*source)->Next(&t)) {
    run->base_deletes.push_back(t);
  }
  run->framed_chunks.clear();
  for (int i = 0; i < w.chunks; ++i) {
    run->framed_chunks.push_back(
        i % 2 == 0
            ? Frame("INGEST", run->schema,
                    run->inserts[static_cast<size_t>(i / 2)])
            : Frame("DELETE", run->schema, DeleteChunk(*run, i)));
  }
}

// ---------------------------------------------------------------------------
// Set-up: the served stacks

/// Registry + server with one scoring worker; with a trainer (which runs
/// Session::Open on the model directory) when `updating`.
struct Stack {
  boat::serve::ModelRegistry registry;
  std::unique_ptr<boat::serve::Trainer> trainer;
  std::unique_ptr<boat::serve::BoatServer> server;

  void Start(const std::string& dir, bool updating, size_t max_chunk,
             int cpu) {
    if (updating) {
      boat::serve::TrainerOptions to;
      to.model_dir = dir;
      to.num_threads = kParallel;
      trainer = std::make_unique<boat::serve::Trainer>(&registry, to);
      PinTo(kTrainerCpus);  // the apply thread and its growth workers
      const Status started = trainer->Start();
      PinTo(kAnyCpu);
      CheckOkOrDie(started, "trainer start");
    } else {
      CheckOkOrDie(registry.LoadAndSwap(dir, "gini"), "model load");
    }
    boat::serve::ServerOptions so;
    so.scoring_threads = 1;
    so.max_chunk_records = std::max<size_t>(max_chunk, 1);
    server = std::make_unique<boat::serve::BoatServer>(&registry, so,
                                                       trainer.get());
    PinTo({cpu});  // accept, handler and scoring threads inherit it
    const Status started = server->Start();
    PinTo(kAnyCpu);
    CheckOkOrDie(started, "server start");
  }
  void Stop() {
    if (server != nullptr) server->Shutdown();
    if (trainer != nullptr) trainer->Shutdown();
    server.reset();
    trainer.reset();
  }
  int port() const { return server->port(); }
  ~Stack() { Stop(); }
};

// ---------------------------------------------------------------------------
// Phase: train from disk

/// One Session::Train over the on-disk table into `dir`.
std::unique_ptr<boat::Session> TrainOnce(Run* run, int threads,
                                         const std::string& dir) {
  boat::SessionOptions options = run->session_options;
  options.boat.num_threads = threads;
  options.boat.limits.num_threads = threads;
  auto source = boat::TableScanSource::Open(run->table, run->schema);
  CheckOkOrDie(source.status(), "open table");
  boat::BoatStats stats;
  const boat::IoStats before = boat::GetIoStats();
  const int64_t t0 = NowNs();
  auto session = [&] {
    auto span = run->tracer->Open(threads == 1 ? "session.train_t1"
                                               : "session.train_t2");
    return boat::Session::Train(source->get(), dir, options, &stats);
  }();
  (threads == 1 ? run->s.train_t1_s : run->s.train_t2_s).push_back(Seconds(t0));
  ++run->attempted;
  if (!session.ok()) {
    ++run->failed;
    Die("train", session.status());
  }
  const boat::IoStats io = boat::GetIoStats() - before;
  if (run->model_dir.empty()) {
    run->train_io = io;
    run->train_stats = stats;
  } else {
    run->Check(io.tuples_read == run->train_io.tuples_read &&
                   io.scans_started == run->train_io.scans_started &&
                   io.tuples_written == run->train_io.tuples_written,
               "IoStats of training differ between runs");
  }
  std::string& first = run->tree_text[threads == 1 ? 0 : 1];
  const std::string text = boat::SerializeTree((*session)->tree());
  if (first.empty()) first = text;
  run->Check(text == first, "training again at " + std::to_string(threads) +
                                " threads changed the tree");
  return std::move(*session);
}

void TrainRound(Run* run, int round) {
  auto phase = run->tracer->Open("phase.train");
  for (const int threads : {kParallel, 1}) {
    const std::string dir = run->work + "/model-r" + std::to_string(round) +
                            "-t" + std::to_string(threads);
    std::unique_ptr<boat::Session> session = TrainOnce(run, threads, dir);
    if (run->model_dir.empty()) {
      // The first model trained is the one served and retrained.
      run->model_dir = dir;
      run->trained = std::move(session);
      char note[160];
      std::snprintf(note, sizeof(note),
                    "model directory after training: %.2f MB, %.2fx the "
                    "table file",
                    static_cast<double>(DirBytes(dir)) / (1024.0 * 1024.0),
                    static_cast<double>(DirBytes(dir)) /
                        static_cast<double>(fs::file_size(run->table)));
      run->notes.push_back(note);
    } else {
      session.reset();
      fs::remove_all(dir);
    }
  }
}

// ---------------------------------------------------------------------------
// Phase: offline scoring

/// One of the kScoreSlices scoring slices of a round.
void ScoreSlice(Run* run, const boat::CompiledTree& compiled) {
  auto phase = run->tracer->Open("phase.score");
  const double budget = run->w->score_share * run->seconds /
                        (run->w->rounds * kScoreSlices);
  const size_t n = run->score_batch.size();
  std::vector<int32_t> out(n);
  const int64_t start = NowNs();
  for (int rep = 0; rep < 2 || Seconds(start) < budget; ++rep) {
    const int64_t t0 = NowNs();
    {
      auto span = run->tracer->Open("tree.predict_t1");
      compiled.Predict(run->score_batch, out, 1);
    }
    run->s.score_mrows.push_back(static_cast<double>(n) / Seconds(t0) * 1e-6);
    ++run->attempted;
    if (run->score_labels.empty()) run->score_labels = out;
    run->Check(out == run->score_labels, "batch scoring is not repeatable");
  }
}

// ---------------------------------------------------------------------------
// Phase: serving

void Account(Run* run, const LegResult& leg, const std::string& what) {
  run->attempted += leg.sent;
  run->failed += leg.failed;
  run->Check(leg.failed == 0, what + ": " + std::to_string(leg.failed) +
                                  " requests got no label");
  run->Check(leg.wrong == 0, what + ": " + std::to_string(leg.wrong) +
                                 " served labels differ from Classify");
  run->Check(leg.sent > 0, what + ": no request sent");
}

/// Reads one unsigned integer field `"key":<n>` out of a STATS reply.
uint64_t JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

void ServeRound(Run* run, Stack* stack, int round) {
  auto phase = run->tracer->Open("phase.serve");
  const double leg = run->w->serve_share * run->seconds / run->w->rounds / 3;
  if (round > 0) {
    stack->Stop();
    stack->Start(run->pristine, false, 0, round % 4);
  }
  const std::string before = stack->server->StatsJson();
  PinTo({(round + 1) % 4});
  LegResult idle, pipe, open;
  {
    auto span = run->tracer->Open("serve.ping_pong");
    idle = PingPong(stack->port(), run->corpus, leg);
  }
  {
    auto span = run->tracer->Open("serve.pipelined");
    pipe = Pipelined(stack->port(), run->corpus, kWindow, leg,
                     std::max(1, static_cast<int>(leg / kSliceSeconds)));
  }
  {
    auto span = run->tracer->Open("serve.open_loop");
    open = OpenLoop(stack->port(), run->corpus, kOpenLoopRate, leg,
                    nullptr);
  }
  PinTo(kAnyCpu);
  const std::string after = stack->server->StatsJson();
  Account(run, idle, "ping-pong");
  Account(run, pipe, "pipelined");
  Account(run, open, "open loop");
  Append(&run->s.idle_us, idle.latency_us);
  Append(&run->s.pipe_rps, pipe.slice_rps);
  Append(&run->s.open_us, open.latency_us);
  Append(&run->s.open_late_us, open.late_us);
  run->s.serve_requests +=
      JsonField(after, "requests") - JsonField(before, "requests");
  run->s.serve_batches +=
      JsonField(after, "batches") - JsonField(before, "batches");
}

// ---------------------------------------------------------------------------
// Phase: retrain under load

void RetrainRound(Run* run, Stack* stack, int first_chunk, int end_chunk) {
  if (first_chunk >= end_chunk) return;
  auto phase = run->tracer->Open("phase.retrain");
  std::atomic<bool> stop{false};
  LegResult scorer;
  Corpus any;  // the model changes under the scorer: any label is valid
  any.lines = run->corpus.lines;
  PinTo(kRetrainClientCpus);  // the scorer's threads and the chunk client
  std::thread scoring([&] {
    scorer = OpenLoop(stack->port(), any, kOpenLoopRate, 0, &stop);
  });
  auto conn = Connection::Connect(stack->port());
  // Let the scorer reach its rate before the first chunk.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = first_chunk; i < end_chunk && conn != nullptr; ++i) {
    ChunkResult r;
    {
      auto span = run->tracer->Open("serve.chunk_retrain");
      r = SendChunkAndRetrain(conn.get(),
                              run->framed_chunks[static_cast<size_t>(i)]);
    }
    ++run->attempted;
    if (!r.ok || r.retrain_reply.find(" failed 0 ") == std::string::npos) {
      ++run->failed;
      run->Check(false, "chunk " + std::to_string(i) + " not applied: " +
                            r.chunk_reply + " / " + r.retrain_reply);
      continue;
    }
    const size_t at = r.retrain_reply.find("fingerprint ");
    run->final_fingerprint =
        at == std::string::npos
            ? 0
            : std::strtoull(r.retrain_reply.c_str() + at + 12, nullptr, 16);
    run->s.retrain_ms.push_back(r.total_ms);
    run->s.ack_ms.push_back(r.ack_ms);
    run->s.barrier_ms.push_back(r.barrier_ms);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  scoring.join();
  PinTo(kAnyCpu);
  run->Check(conn != nullptr, "retrain connection");
  Account(run, scorer, "scoring during retrain");
  Append(&run->s.retrain_serve_us, scorer.latency_us);
}

/// One pipelined pass over the corpus after the last RETRAIN: the labels
/// the final model serves.
void FinalLabels(Run* run, Stack* stack) {
  auto conn = Connection::Connect(stack->port());
  std::string burst;
  for (const std::string& line : run->corpus.lines) burst += line;
  bool ok = conn != nullptr && conn->Send(burst);
  std::string reply;
  run->final_served.clear();
  for (size_t i = 0; ok && i < run->corpus.lines.size(); ++i) {
    ok = conn->ReadLine(&reply);
    run->final_served.push_back(ok ? std::atoi(reply.c_str()) : -1);
  }
  run->attempted += run->corpus.lines.size();
  if (!ok) ++run->failed;
  run->Check(ok, "final label pass");
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only). Each calls one public entry point on
// the inputs the timed phases used, after those phases, so the end-to-end
// samples of the traced run are taken the same way as in the untraced one.

void TrainLayerProbes(Run* run) {
  Tracer& tr = *run->tracer;
  auto phase = tr.Open("probe.train_layers");
  const boat::BoatOptions& bo = run->session_options.boat;
  for (int i = 0; i < 3; ++i) {
    auto source = boat::TableScanSource::Open(run->table, run->schema);
    CheckOkOrDie(source.status(), "open table");
    boat::Tuple t;
    uint64_t n = 0;
    {
      auto span = tr.Open("storage.scan");
      while ((*source)->Next(&t)) ++n;
    }
    run->Check(n == static_cast<uint64_t>(run->w->table_rows),
               "table scan row count");
  }
  for (int i = 0; i < 3; ++i) {
    auto source = boat::TableScanSource::Open(run->table, run->schema);
    CheckOkOrDie(source.status(), "open table");
    boat::SamplingPhaseOptions so;
    so.sample_size = bo.sample_size;
    so.bootstrap_count = bo.bootstrap_count;
    so.bootstrap_subsample = bo.bootstrap_subsample;
    so.frontier_threshold = bo.inmem_threshold;
    so.limits = bo.limits;
    so.max_buckets_per_attr = bo.max_buckets_per_attr;
    so.num_threads = kParallel;
    boat::Rng rng(bo.seed);
    auto span = tr.Open("boat.sampling");
    CheckOkOrDie(
        boat::RunSamplingPhase(source->get(), *run->selector, so, &rng)
            .status(),
        "sampling phase");
  }
  for (int i = 0; i < 3; ++i) {
    auto source = boat::TableScanSource::Open(run->table, run->schema);
    CheckOkOrDie(source.status(), "open table");
    boat::BoatOptions options = bo;
    options.num_threads = kParallel;
    options.limits.num_threads = kParallel;
    boat::BoatEngine engine(run->schema, run->selector.get(), options);
    boat::BoatStats stats;
    auto span = tr.Open("boat.engine_build");
    CheckOkOrDie(engine.Build(source->get(), &stats), "engine build");
  }
  tr.Count("boat.cleanup_s", Median(tr.Durations("boat.engine_build")) -
                                 Median(tr.Durations("boat.sampling")));
  // In-memory growth on a sample-sized set, at 1 and 2 threads.
  auto sample = boat::ReadTable(run->table, run->schema);
  CheckOkOrDie(sample.status(), "read table");
  sample->resize(std::min(sample->size(), bo.sample_size));
  for (int i = 0; i < 3; ++i) {
    for (const int threads : {1, kParallel}) {
      boat::GrowthLimits limits = bo.limits;
      limits.num_threads = threads;
      auto span = tr.Open(threads == 1 ? "tree.inmem_build_t1"
                                       : "tree.inmem_build_t2");
      run->Check(boat::BuildTreeInMemory(run->schema, *sample, *run->selector,
                                         limits)
                         .num_nodes() > 0,
                 "in-memory build");
    }
  }
  // One 2-stripe fork/join of the shared parallel helper.
  int64_t covered[2 * 8] = {};  // one cache line per worker
  for (int i = 0; i < 200; ++i) {
    auto span = tr.Open("common.fork_join");
    boat::ParallelForStatic(2, kParallel, 1,
                            [&](int64_t b, int64_t e, int worker) {
                              covered[worker * 8] += e - b;
                            });
  }
  run->Check(covered[0] + covered[8] == 400, "fork/join covered every index");
  const boat::BoatStats& st = run->train_stats;
  const boat::IoStats& io = run->train_io;
  tr.Count("storage.bytes_read", static_cast<double>(io.bytes_read));
  tr.Count("storage.bytes_written", static_cast<double>(io.bytes_written));
  tr.Count("storage.tuples_written", static_cast<double>(io.tuples_written));
  tr.Count("boat.failed_checks", static_cast<double>(st.failed_checks));
  tr.Count("boat.rebuild_scans", static_cast<double>(st.rebuild_scans));
  tr.Count("boat.bootstrap_kills", static_cast<double>(st.bootstrap_kills));
  tr.Count("boat.frontier_inmem", static_cast<double>(st.frontier_inmem));
  tr.Count("boat.frontier_recursive",
           static_cast<double>(st.frontier_recursive));
  tr.Count("boat.retained_share",
           st.db_size == 0 ? 0.0
                           : static_cast<double>(st.retained_tuples) /
                                 static_cast<double>(st.db_size));
}

void TreeLayerProbes(Run* run, const boat::CompiledTree& compiled) {
  Tracer& tr = *run->tracer;
  auto phase = tr.Open("probe.tree_layers");
  const boat::DecisionTree& tree = run->trained->tree();
  for (int i = 0; i < 10; ++i) {
    auto span = tr.Open("tree.compile");
    const boat::CompiledTree again(tree);
    run->Check(again.Classify(run->probe[0]) == compiled.Classify(run->probe[0]),
               "recompiled tree");
  }
  const size_t n = run->score_batch.size();
  std::vector<int32_t> out(n);
  std::vector<double> mrows;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    {
      auto span = tr.Open("tree.predict_t2");
      compiled.Predict(run->score_batch, out, kParallel);
    }
    mrows.push_back(static_cast<double>(n) / Seconds(t0) * 1e-6);
    run->Check(out == run->score_labels, "2-thread scoring differs");
  }
  tr.Count("tree.predict_t2_mrows_s", Median(mrows));
  tr.Count("tree.nodes", static_cast<double>(tree.num_nodes()));
  tr.Count("tree.depth", static_cast<double>(tree.depth()));
}

void ServeLayerProbes(Run* run) {
  Tracer& tr = *run->tracer;
  auto phase = tr.Open("probe.serve_layers");
  uint64_t parsed = 0;
  const int64_t t0 = NowNs();
  {
    auto span = tr.Open("serve.parse");
    for (int rep = 0; rep < 20; ++rep) {
      for (const std::string& line : run->corpus.lines) {
        auto req = boat::serve::ParseRequest(line.substr(0, line.size() - 1));
        parsed += req.ok() && req->verb == boat::serve::Verb::kRecord;
      }
    }
  }
  const double ns = static_cast<double>(NowNs() - t0);
  run->Check(parsed == 20 * run->corpus.lines.size(), "ParseRequest");
  tr.Count("serve.parse_ns", ns / static_cast<double>(std::max<uint64_t>(parsed, 1)));
  // Model swap cost, on a registry of its own.
  boat::serve::ModelRegistry registry;
  auto model = std::make_shared<const boat::serve::ServableModel>(
      run->trained->tree(), "");
  for (int i = 0; i < 200; ++i) {
    auto span = tr.Open("serve.swap");
    registry.Install(model);
  }
  const Samples& s = run->s;
  tr.Count("serve.idle_p99_us", Quantile(s.idle_us, 0.99));
  tr.Count("serve.p99_us", Quantile(s.open_us, 0.99));
  tr.Count("serve.retrain_p99_us", Quantile(s.retrain_serve_us, 0.99));
  tr.Count("serve.gen_late_us", Median(s.open_late_us));
  tr.Count("serve.pipelined_rps", Median(s.pipe_rps));
  tr.Count("serve.batch_mean",
           s.serve_batches == 0 ? 0.0
                                : static_cast<double>(s.serve_requests) /
                                      static_cast<double>(s.serve_batches));
  tr.Count("serve.ingest_ack_ms", Median(s.ack_ms));
  tr.Count("serve.retrain_barrier_ms", Median(s.barrier_ms));
}

/// Session::Open, Persist and then an offline Session::Apply of the same
/// chunk sequence, on a copy of the model directory taken before the first
/// chunk.
void SessionLayerProbes(Run* run, const std::string& pristine) {
  Tracer& tr = *run->tracer;
  auto phase = tr.Open("probe.session");
  for (int i = 0; i < 3; ++i) {
    auto span = tr.Open("boat.open");
    CheckOkOrDie(boat::Session::Open(pristine, "gini").status(),
                 "session open");
  }
  auto session = boat::Session::Open(pristine, "gini");
  CheckOkOrDie(session.status(), "open model copy");
  for (int i = 0; i < 3; ++i) {
    auto span = tr.Open("boat.persist");
    CheckOkOrDie((*session)->Persist(), "persist");
  }
  (*session)->SetNumThreads(kParallel);
  boat::BoatStats stats;
  for (int i = 0; i < run->w->chunks; ++i) {
    auto span = tr.Open("boat.apply");
    CheckOkOrDie(
        i % 2 == 0
            ? (*session)->Apply(boat::ChunkOp::kInsert,
                                run->inserts[static_cast<size_t>(i / 2)],
                                &stats)
            : (*session)->Apply(boat::ChunkOp::kDelete, DeleteChunk(*run, i),
                                &stats),
        "offline apply");
  }
  tr.Count("boat.subtree_rebuilds",
           static_cast<double>(stats.subtree_rebuilds));
}

// ---------------------------------------------------------------------------
// Oracles, computed apart from the program after peak RSS is read.

void Oracles(Run* run) {
  auto span = run->tracer->Open("oracles");
  const Workload& w = *run->w;
  const boat::GrowthLimits& limits = run->session_options.boat.limits;
  auto table = boat::ReadTable(run->table, run->schema);
  CheckOkOrDie(table.status(), "read table");
  // 1. The BOAT tree equals the in-memory reference over the whole table,
  //    and is the same at 1 and 2 threads.
  const boat::DecisionTree reference =
      boat::BuildTreeInMemory(run->schema, *table, *run->selector, limits);
  run->Check(run->tree_text[1] == boat::SerializeTree(reference),
             "BOAT tree differs from the in-memory build over the table");
  run->Check(run->tree_text[0] == run->tree_text[1],
             "BOAT tree differs between 1 and 2 threads");
  // 2. Offline labels equal the pointer walk. (Served labels were checked
  //    reply by reply against the same walk.)
  const boat::DecisionTree& tree = run->trained->tree();
  uint64_t wrong = 0;
  for (size_t i = 0; i < run->score_batch.size(); ++i) {
    wrong += tree.Classify(run->score_batch[i]) != run->score_labels[i];
  }
  run->Check(wrong == 0,
             std::to_string(wrong) + " offline labels differ from Classify");
  // 3. After the last RETRAIN the served model is the from-scratch build
  //    over base + inserts - deletes.
  std::vector<boat::Tuple> corpus(table->begin() + w.chunk_rows, table->end());
  corpus.insert(corpus.end(), run->inserts.back().begin(),
                run->inserts.back().end());
  const boat::DecisionTree final_ref =
      boat::BuildTreeInMemory(run->schema, corpus, *run->selector, limits);
  auto reopened = boat::Session::Open(run->model_dir, "gini");
  CheckOkOrDie(reopened.status(), "reopen model");
  run->Check(boat::SerializeTree((*reopened)->tree()) ==
                 boat::SerializeTree(final_ref),
             "retrained model differs from the from-scratch build");
  run->Check(run->final_fingerprint ==
                 boat::serve::ServableModel(final_ref, "").fingerprint,
             "served fingerprint differs from the from-scratch build");
  wrong = 0;
  for (size_t i = 0; i < run->probe.size(); ++i) {
    wrong += final_ref.Classify(run->probe[i]) != run->final_served[i];
  }
  run->Check(wrong == 0,
             std::to_string(wrong) + " labels served after retrain differ");
}

// ---------------------------------------------------------------------------

boat::SessionOptions MakeOptions(const Workload& w, const std::string& tmp) {
  boat::SessionOptions o;
  o.selector = "gini";
  o.boat.sample_size = w.sample_size;
  o.boat.bootstrap_count = 20;
  o.boat.bootstrap_subsample = static_cast<size_t>(w.bootstrap_subsample);
  o.boat.inmem_threshold = w.inmem_threshold;
  o.boat.limits.stop_family_size = w.stop_family_size;
  o.boat.store_memory_budget = w.store_budget;
  o.boat.seed = kBoatSeed;
  o.boat.temp_dir = tmp;
  return o;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void RunWorkload(Run* run) {
  const Workload& w = *run->w;
  Tracer& tr = *run->tracer;
  run->session_options = MakeOptions(w, run->work + "/tmp");

  // Set-up, inputs: generated kSetupRounds times (the same bytes each time).
  for (int i = 0; i < kSetupRounds; ++i) {
    run->table = run->work + "/table-" + std::to_string(i) + ".tbl";
    const int64_t t0 = NowNs();
    GenerateInputs(run);
    run->s.setup_inputs_s.push_back(Seconds(t0));
    ++run->attempted;
    if (i > 0) fs::remove(run->work + "/table-" + std::to_string(i - 1) + ".tbl");
  }

  Stack serving, updating;
  std::unique_ptr<boat::CompiledTree> compiled;
  int next_chunk = 0;
  for (int round = 0; round < w.rounds; ++round) {
    TrainRound(run, round);
    if (round == 0) {
      // Set-up, continued: the stacks need the first trained model. Brought
      // up kSetupRounds times; the last pair stays up.
      run->pristine = run->work + "/pristine";
      fs::copy(run->model_dir, run->pristine, fs::copy_options::recursive);
      for (int i = 0; i < kSetupRounds; ++i) {
        const int64_t t0 = NowNs();
        {
          auto span = tr.Open("serve.stack_start");
          serving.Start(run->pristine, false, 0, 0);
          updating.Start(run->model_dir, true,
                         static_cast<size_t>(w.chunk_rows),
                         kUpdatingServerCpu);
        }
        run->s.setup_stack_s.push_back(Seconds(t0));
        ++run->attempted;
        if (i + 1 < kSetupRounds) {
          serving.Stop();
          updating.Stop();
        }
      }
      {
        auto span = tr.Open("tree.compile");
        compiled = std::make_unique<boat::CompiledTree>(run->trained->tree());
      }
      // Labels every served record must get: the pointer walk.
      for (const boat::Tuple& t : run->probe) {
        run->corpus.expected.push_back(run->trained->tree().Classify(t));
      }
    }
    ScoreSlice(run, *compiled);
    ServeRound(run, &serving, round);
    ScoreSlice(run, *compiled);
    const int end_chunk = (round + 1) * w.chunks / w.rounds;
    RetrainRound(run, &updating, next_chunk, end_chunk);
    next_chunk = end_chunk;
    ScoreSlice(run, *compiled);
  }
  FinalLabels(run, &updating);
  serving.Stop();
  updating.Stop();

  if (tr.enabled()) {
    TrainLayerProbes(run);
    TreeLayerProbes(run, *compiled);
    ServeLayerProbes(run);
    SessionLayerProbes(run, run->pristine);
    tr.Count("datagen.table_s", Median(tr.Durations("datagen.table")));
  }

  const Samples& s = run->s;
  run->e2e = {
      {"setup_s", {Median(s.setup_inputs_s) + Median(s.setup_stack_s), "s"}},
      {"train_s", {Median(s.train_t2_s), "s"}},
      {"train_t1_s", {Median(s.train_t1_s), "s"}},
      {"train_tuples_read",
       {static_cast<double>(run->train_io.tuples_read), "tuples"}},
      {"train_scans",
       {static_cast<double>(run->train_io.scans_started), "scans"}},
      {"model_mb",
       {static_cast<double>(DirBytes(run->model_dir)) / (1024.0 * 1024.0),
        "MB"}},
      {"score_mrows_s", {Median(s.score_mrows), "Mrows/s"}},
      {"serve_idle_p50_us", {Median(s.idle_us), "us"}},
      {"serve_p50_us", {Median(s.open_us), "us"}},
      {"retrain_p50_ms", {Median(s.retrain_ms), "ms"}},
      {"retrain_serve_p50_us", {Median(s.retrain_serve_us), "us"}},
      {"peak_rss_mb", {PeakRssMb(), "MB"}},
  };
  char note[256];
  std::snprintf(note, sizeof(note),
                "samples: train %zu per width, score %zu, ping-pong %zu, "
                "pipelined slices %zu, open loop %zu, retrain chunks %zu, "
                "scoring during retrain %zu",
                s.train_t2_s.size(), s.score_mrows.size(), s.idle_us.size(),
                s.pipe_rps.size(), s.open_us.size(), s.retrain_ms.size(),
                s.retrain_serve_us.size());
  run->notes.push_back(note);
  Oracles(run);
}

// Per-layer metrics: span medians, and the counts recorded at the same
// boundaries.
void LayerMetrics(Run* run) {
  const Tracer& tr = *run->tracer;
  struct FromSpan {
    const char* metric;
    const char* span;
    double scale;
    const char* unit;
  };
  const FromSpan spans[] = {
      {"common.fork_join_us", "common.fork_join", 1e6, "us"},
      {"storage.scan_s", "storage.scan", 1, "s"},
      {"boat.sampling_s", "boat.sampling", 1, "s"},
      {"boat.persist_s", "boat.persist", 1, "s"},
      {"boat.open_s", "boat.open", 1, "s"},
      {"boat.apply_ms", "boat.apply", 1e3, "ms"},
      {"tree.inmem_build_t1_s", "tree.inmem_build_t1", 1, "s"},
      {"tree.inmem_build_t2_s", "tree.inmem_build_t2", 1, "s"},
      {"tree.compile_ms", "tree.compile", 1e3, "ms"},
      {"serve.swap_us", "serve.swap", 1e6, "us"},
  };
  for (const FromSpan& s : spans) {
    run->layer[s.metric] = {Median(tr.Durations(s.span)) * s.scale, s.unit};
  }
  const std::pair<const char*, const char*> counts[] = {
      {"storage.bytes_read", "bytes"},
      {"storage.bytes_written", "bytes"},
      {"storage.tuples_written", "tuples"},
      {"datagen.table_s", "s"},
      {"boat.cleanup_s", "s"},
      {"boat.failed_checks", "count"},
      {"boat.rebuild_scans", "count"},
      {"boat.bootstrap_kills", "count"},
      {"boat.frontier_inmem", "count"},
      {"boat.frontier_recursive", "count"},
      {"boat.subtree_rebuilds", "count"},
      {"boat.retained_share", "ratio"},
      {"tree.predict_t2_mrows_s", "Mrows/s"},
      {"tree.nodes", "count"},
      {"tree.depth", "count"},
      {"serve.parse_ns", "ns"},
      {"serve.batch_mean", "requests"},
      {"serve.pipelined_rps", "req/s"},
      {"serve.ingest_ack_ms", "ms"},
      {"serve.retrain_barrier_ms", "ms"},
      {"serve.gen_late_us", "us"},
      {"serve.idle_p99_us", "us"},
      {"serve.p99_us", "us"},
      {"serve.retrain_p99_us", "us"},
  };
  for (const auto& [metric, unit] : counts) {
    const auto it = tr.counts().find(metric);
    run->Check(it != tr.counts().end(),
               std::string("per-layer metric missing: ") + metric);
    run->layer[metric] = {it == tr.counts().end() ? 0.0 : it->second, unit};
  }
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", name.c_str(), m.value, m.unit);
    out += buf;
  }
  return out + "}";
}

std::string HostJson() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"kernel\": \"%s\", \"simd\": %s, "
                "\"compiler\": \"%s\", \"flags\": \"%s\", \"build\": \"%s\"}",
                std::thread::hardware_concurrency(),
                boat::CompiledTree::ActiveKernelName(),
                boat::CompiledTree::SimdAvailable() ? "true" : "false",
                E2EBENCH_COMPILER, E2EBENCH_FLAGS, E2EBENCH_BUILD_TYPE);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <train_disk|retrain_mixed> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--trace-out <file>]\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "work-dir"}) {
    if (args.count(required) == 0) return Usage();
  }
  Run run;
  for (const Workload& w : kWorkloads) {
    if (args["workload"] == w.name) run.w = &w;
  }
  run.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  run.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  run.work = args["work-dir"];
  if (run.w == nullptr || !(run.seconds > 0)) return Usage();
  // Scratch files of the library stay inside the work directory.
  fs::create_directories(run.work + "/tmp");
  setenv("BOAT_TMPDIR", (run.work + "/tmp").c_str(), 1);

  Tracer tracer(args["trace"] == "1");
  run.tracer = &tracer;
  RunWorkload(&run);
  if (tracer.enabled()) {
    LayerMetrics(&run);
    if (args.count("trace-out") != 0 && !tracer.WriteJson(args["trace-out"])) {
      run.Check(false, "cannot write " + args["trace-out"]);
    }
  }

  // Trees and labels of this run, so traced and untraced runs can be
  // compared byte for byte.
  uint64_t digest = Fnv1a(run.tree_text[1]);
  for (const int32_t label : run.score_labels) {
    digest = Fnv1a(std::to_string(label), digest);
  }
  for (const int32_t label : run.final_served) {
    digest = Fnv1a(std::to_string(label), digest);
  }
  for (const std::string& note : run.notes) {
    std::fprintf(stderr, "note: %s\n", note.c_str());
  }
  for (const std::string& error : run.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  std::fprintf(stderr, "e2e: %s\n", MetricsJson(run.e2e).c_str());
  std::printf("host: %s\n", HostJson().c_str());
  std::printf("digest: %016" PRIx64 "\n", digest);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              run.errors.empty() ? "true" : "false", run.attempted, run.failed,
              MetricsJson(tracer.enabled() ? run.layer : run.e2e).c_str());
  return 0;
}
