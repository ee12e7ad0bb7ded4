// BoatServer: a micro-batching TCP model server over the CompiledEnsemble
// batch-inference path, serving one model or a whole named fleet.
//
// Architecture (see DESIGN.md §8 and §12):
//   * one accept thread; one handler thread per connection (bounded by
//     max_connections — excess connections get one BUSY line and a close);
//   * handlers parse newline-delimited wire requests (serve/wire.h),
//     resolve the target model from the v3 `@<id>` routing prefix (absent =
//     the default model), validate records against that model's schema, and
//     submit accepted records to the model's *lane* — a per-model bounded
//     admission queue (common/bounded_queue.h). A full lane yields an
//     immediate per-line BUSY reply — backpressure, not unbounded
//     buffering, and one model's saturation never consumes another model's
//     admission budget;
//   * scoring_threads batch workers are shared across the fleet: each
//     worker round-robins over the lanes from its own starting offset
//     (fairness between models), claims the first lane with work, and
//     gathers a micro-batch confined to that lane: bulk-drain everything
//     already queued, then alternate yield/drain while the handlers keep
//     producing, and score the moment a drain comes back empty — no
//     wall-clock wait, so a lone request is scored at once. The whole batch
//     is scored with one CompiledEnsemble::Predict call against one
//     snapshot of that lane's ModelRegistry — batches never mix models, so
//     hot reload stays atomic per batch and per model;
//   * replies are written strictly in request order per connection;
//     handlers pipeline up to an internal reply window before waiting.
//
// Shutdown() (SIGTERM in boatd) is a graceful drain: stop accepting,
// half-close every connection's read side (handlers finish replying to
// everything already received), close every lane, join the workers. No
// admitted request is dropped. Concurrent Shutdown calls (including the
// destructor racing an explicit call) serialize on lifecycle_mu_: every
// caller blocks until the drain is complete.
//
// Concurrency invariants are compile-time-checked via the annotated
// primitives in common/sync.h; the full capability map (each mutex -> the
// fields it guards -> the functions that acquire it) is in DESIGN.md §11.

#ifndef BOAT_SERVE_SERVER_H_
#define BOAT_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/histogram.h"
#include "common/status.h"
#include "common/sync.h"
#include "serve/fleet.h"
#include "serve/model_registry.h"
#include "serve/trainer.h"
#include "storage/tuple.h"

namespace boat::serve {

struct ServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (see port()).
  int port = 0;
  /// Number of micro-batch scoring worker threads (shared by all models).
  int scoring_threads = 1;
  /// Maximum records per micro-batch. A worker bulk-drains everything
  /// already queued and keeps draining while producers make progress, up to
  /// this many records; it never waits for more.
  int max_batch = 2048;
  /// Per-lane admission high-water mark; a full lane replies BUSY.
  size_t queue_capacity = 8192;
  /// Request lines longer than this are rejected with ERR.
  size_t max_line_bytes = 64 * 1024;
  /// Connection cap; excess accepts receive one BUSY line and are closed.
  int max_connections = 256;
  /// Split-selector name RELOAD passes to LoadClassifier (fleet entries may
  /// carry their own; this is the single-model default).
  std::string selector = "gini";
  /// INGEST/DELETE chunks larger than this are rejected (their payload is
  /// still consumed, so the protocol stays in sync).
  size_t max_chunk_records = 100000;
};

namespace internal {

/// \brief Counts outstanding requests of one reply window; the connection
/// handler waits until every scored label has been written to its slot.
class WaitGroup {
 public:
  void Add(size_t n) BOAT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    pending_ += n;
  }
  /// \brief Marks `n` requests complete. Notifies under the lock so a
  /// waiter can never return (and destroy this WaitGroup) while the
  /// notification is still in flight.
  void Done(size_t n = 1) BOAT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    pending_ -= n;
    if (pending_ == 0) cv_.NotifyAll();
  }
  void Wait() BOAT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    cv_.Wait(lock, [&] {
      mu_.AssertHeld();
      return pending_ == 0;
    });
  }

 private:
  Mutex mu_;
  CondVar cv_;
  size_t pending_ BOAT_GUARDED_BY(mu_) = 0;
};

/// \brief One admitted record: the parsed tuple, the label slot the scoring
/// worker writes, and the window's wait group.
struct Request {
  Tuple tuple;
  int32_t* out = nullptr;
  WaitGroup* wg = nullptr;
  std::chrono::steady_clock::time_point admitted;
};

}  // namespace internal

class BoatServer {
 public:
  /// \brief Single-model server (wire v2 compatible; v3 lines may address
  /// the model as `@default`). `registry` must hold an active model before
  /// Start() and must outlive the server. `trainer`, when non-null, enables
  /// the streaming INGEST/DELETE/RETRAIN verbs (it must be started and must
  /// outlive the server); when null those verbs reply ERR.
  BoatServer(ModelRegistry* registry, ServerOptions options,
             Trainer* trainer = nullptr);

  /// \brief Fleet server: one lane per fleet entry, in fleet order (the
  /// first entry is the default model for unrouted lines). The fleet must
  /// be fully populated before construction — the server captures the entry
  /// list here — and every entry must hold an active model before Start().
  /// `fleet` must outlive the server.
  BoatServer(FleetRegistry* fleet, ServerOptions options);

  ~BoatServer();

  BoatServer(const BoatServer&) = delete;
  BoatServer& operator=(const BoatServer&) = delete;

  /// \brief Binds, listens, and spawns the accept and scoring threads.
  Status Start() BOAT_EXCLUDES(lifecycle_mu_);

  /// \brief The bound port (useful with options.port == 0). Written exactly
  /// once inside Start() before it returns; callers may only read it after
  /// Start() succeeded, which orders the read on every caller thread.
  int port() const { return port_; }

  /// \brief Graceful drain; idempotent and safe to call concurrently (every
  /// caller returns only once the drain is complete). Also run by the
  /// destructor.
  void Shutdown() BOAT_EXCLUDES(lifecycle_mu_);

  /// \brief The STATS admin reply: one JSON object with request/batch
  /// counters, the batch-size histogram, latency quantiles, total queue
  /// depth, reload count, the default model's fingerprint, and (fleet) a
  /// per-model "models" section.
  std::string StatsJson() const;

  /// \brief Test hook: while paused, scoring workers do not pop any lane,
  /// so the queues fill deterministically (backpressure tests). Never used
  /// by boatd.
  void SetScoringPausedForTest(bool paused) BOAT_EXCLUDES(pause_mu_);

 private:
  /// One served model: its admission queue plus routing metadata and
  /// per-model counters. Built in the constructors and immutable afterwards
  /// (the vector/map are read lock-free by handlers and workers); the
  /// queue and counters are internally synchronized.
  struct Lane {
    explicit Lane(size_t queue_capacity) : queue(queue_capacity) {}

    std::string id;
    ModelRegistry* registry = nullptr;  ///< never null
    Trainer* trainer = nullptr;         ///< null: no streaming ingestion
    bool ensemble = false;  ///< RELOAD loads a SaveEnsemble directory
    std::string selector;   ///< RELOAD selector for tree-backed lanes
    /// Keeps fleet-owned components (registry/trainer) alive for the
    /// server's lifetime; null for the single-model constructor.
    std::shared_ptr<FleetEntry> entry;

    BoundedQueue<internal::Request> queue;

    // Per-model counters for STATS: monotonic tallies. `requests` is
    // release-incremented once a record is queued or answered and
    // acquire-read before the queue depth; the others are relaxed.
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> busy{0};
  };

  struct Conn {
    int fd = -1;
    std::thread thread;
    /// release-store by the handler as its last action; acquire-load by the
    /// reaper/Shutdown so joining implies the handler's writes are visible.
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void HandleConnection(Conn* conn);
  void ScoringWorker(size_t worker_index);
  /// Joins and closes finished connections.
  void ReapFinishedLocked() BOAT_REQUIRES(conns_mu_);
  /// Resolves a parsed model id ("" = default) to its lane, or null.
  Lane* ResolveLane(const std::string& model_id) const;
  /// One JSON object for `@<id> STATS` and the global "models" section.
  std::string LaneStatsJson(const Lane& lane) const;

  const ServerOptions options_;

  /// The fleet's lanes, in fleet order; lanes_[0] is the default model.
  /// Both containers are built in the constructors and never change, so
  /// handlers and workers read them without a lock.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::map<std::string, Lane*> lane_by_id_;

  /// Written once by Start() before any server thread exists and reset only
  /// after every thread is joined (Shutdown); the accept loop's unguarded
  /// reads are ordered by thread creation/join, not by a capability.
  int listen_fd_ = -1;
  int port_ = 0;  ///< see port(): write-once inside Start()

  /// Serializes Start/Shutdown and guards the thread handles; never taken
  /// by the server's own threads, so joining under it cannot deadlock.
  Mutex lifecycle_mu_;
  bool shutdown_done_ BOAT_GUARDED_BY(lifecycle_mu_) = false;
  std::thread accept_thread_ BOAT_GUARDED_BY(lifecycle_mu_);
  std::vector<std::thread> workers_ BOAT_GUARDED_BY(lifecycle_mu_);

  /// started_: release-store as Start()'s final action; acquire-load in
  /// Shutdown/StatsJson pairs with it so they observe a fully-built server.
  std::atomic<bool> started_{false};
  /// stopping_: release-store by the first Shutdown; acquire-load in the
  /// accept loop ends it and orders the fd teardown that follows.
  std::atomic<bool> stopping_{false};

  /// Fleet work signal: handlers batch-announce admitted records here and
  /// workers sleep on it when every lane is empty, so idle workers cost
  /// nothing while busy pipelines pay one lock per reply window / batch.
  /// work_pending_ is a *signed* tally: a worker may pop (and account for)
  /// records before the admitting handler's batched publish lands, so the
  /// counter is transiently negative by design — it converges to the true
  /// queued total whenever producers and consumers quiesce.
  Mutex work_mu_;
  CondVar work_cv_;
  int64_t work_pending_ BOAT_GUARDED_BY(work_mu_) = 0;
  bool work_closed_ BOAT_GUARDED_BY(work_mu_) = false;

  Mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_ BOAT_GUARDED_BY(conns_mu_);

  Mutex pause_mu_;
  CondVar pause_cv_;
  bool scoring_paused_ BOAT_GUARDED_BY(pause_mu_) = false;

  // Counters for STATS: monotonic tallies. requests_ follows the same
  // release/acquire protocol as Lane::requests; the other three are relaxed,
  // since no reader orders other memory against them.
  std::atomic<uint64_t> requests_{0};  ///< data-record lines admitted or not
  std::atomic<uint64_t> errors_{0};    ///< per-line ERR replies
  std::atomic<uint64_t> busy_{0};      ///< per-line BUSY replies
  std::atomic<uint64_t> batches_{0};
  Log2Histogram batch_size_hist_;  ///< lock-free (see histogram.h)
  Log2Histogram latency_us_hist_;  ///< lock-free (see histogram.h)
};

}  // namespace boat::serve

#endif  // BOAT_SERVE_SERVER_H_
