#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "common/str_util.h"
#include "serve/wire.h"

namespace boat::serve {

namespace {

/// Replies per connection that may be pipelined before the handler waits
/// for scoring and writes them out. Clients must not pipeline more than
/// this many lines without reading replies (boat-loadgen's window is far
/// smaller).
constexpr size_t kReplyWindow = 1024;

/// Sentinel a scoring worker writes when a request's tuple arity no longer
/// matches the (hot-reloaded) active model; the handler turns it into ERR.
constexpr int32_t kSchemaMismatchLabel = INT32_MIN;

/// Sentinel for a record admitted to a lane whose model was evicted before
/// its batch was scored; the handler turns it into ERR.
constexpr int32_t kNoModelLabel = INT32_MIN + 1;

bool SendAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

BoatServer::BoatServer(ModelRegistry* registry, ServerOptions options,
                       Trainer* trainer)
    : options_(std::move(options)) {
  auto lane = std::make_unique<Lane>(options_.queue_capacity);
  lane->id = "default";
  lane->registry = registry;
  lane->trainer = trainer;
  lane->selector = options_.selector;
  lane_by_id_[lane->id] = lane.get();
  lanes_.push_back(std::move(lane));
}

BoatServer::BoatServer(FleetRegistry* fleet, ServerOptions options)
    : options_(std::move(options)) {
  for (const std::shared_ptr<FleetEntry>& entry : fleet->entries()) {
    auto lane = std::make_unique<Lane>(options_.queue_capacity);
    lane->id = entry->id;
    lane->registry = entry->registry;
    lane->trainer = entry->trainer;
    lane->ensemble = entry->ensemble;
    lane->selector =
        entry->selector.empty() ? options_.selector : entry->selector;
    lane->entry = entry;
    lane_by_id_[lane->id] = lane.get();
    lanes_.push_back(std::move(lane));
  }
}

BoatServer::~BoatServer() { Shutdown(); }

BoatServer::Lane* BoatServer::ResolveLane(const std::string& model_id) const {
  if (model_id.empty()) return lanes_.front().get();
  const auto it = lane_by_id_.find(model_id);
  return it == lane_by_id_.end() ? nullptr : it->second;
}

Status BoatServer::Start() {
  MutexLock lock(lifecycle_mu_);  // serializes against Shutdown
  if (lanes_.empty()) {
    return Status::InvalidArgument("BoatServer: fleet has no models");
  }
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (lane->registry->Snapshot() == nullptr) {
      return Status::InvalidArgument(
          "BoatServer: model '" + lane->id + "' has no active model");
    }
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrPrintf("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status s = Status::IOError(
        StrPrintf("bind port %d: %s", options_.port, std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status s =
        Status::IOError(StrPrintf("listen: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  const int workers = options_.scoring_threads > 0 ? options_.scoring_threads
                                                   : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(&BoatServer::ScoringWorker, this,
                          static_cast<size_t>(i));
  }
  accept_thread_ = std::thread(&BoatServer::AcceptLoop, this);
  started_.store(true, std::memory_order_release);
  return Status::OK();
}

void BoatServer::Shutdown() {
  // lifecycle_mu_ serializes concurrent Shutdown callers (including the
  // destructor racing an explicit call): the first caller drains while any
  // later caller blocks here until the drain is complete, then returns via
  // the shutdown_done_ check. The seed version let the second caller return
  // mid-drain, so a destructor racing a Shutdown could free server state
  // while the first caller was still joining threads (and two callers could
  // join the same std::thread, which is UB). Regression:
  // ServeE2eTest.ConcurrentShutdownCallsAreSerialized.
  MutexLock lock(lifecycle_mu_);
  if (!started_.load(std::memory_order_acquire) || shutdown_done_) return;
  shutdown_done_ = true;
  stopping_.store(true, std::memory_order_release);

  // Stop accepting. The accept loop polls with a timeout, so it notices
  // stopping_ even if this shutdown() call has no effect on the fd.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Half-close every live connection's read side: handlers finish replying
  // to everything already received, then exit. No admitted request drops.
  {
    MutexLock conns_lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (!conn->done.load(std::memory_order_acquire)) {
        ::shutdown(conn->fd, SHUT_RD);
      }
    }
  }
  {
    MutexLock conns_lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
      ::close(conn->fd);
    }
    conns_.clear();
  }

  // All requests are now in their lanes (or replied); drain the workers:
  // close every lane, raise the work-closed signal, and release any worker
  // parked on the pause gate or the work condvar.
  for (const std::unique_ptr<Lane>& lane : lanes_) lane->queue.Close();
  {
    MutexLock work_lock(work_mu_);
    work_closed_ = true;
  }
  work_cv_.NotifyAll();
  {
    MutexLock pause_lock(pause_mu_);
    scoring_paused_ = false;
  }
  pause_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

void BoatServer::SetScoringPausedForTest(bool paused) {
  {
    MutexLock lock(pause_mu_);
    scoring_paused_ = paused;
  }
  pause_cv_.NotifyAll();
}

void BoatServer::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void BoatServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (rc <= 0) continue;  // timeout or EINTR: re-check stopping_
    if ((pfd.revents & POLLIN) == 0) {
      if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) return;
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    MutexLock lock(conns_mu_);
    ReapFinishedLocked();
    int active = 0;
    for (const auto& conn : conns_) {
      if (!conn->done.load(std::memory_order_acquire)) ++active;
    }
    if (active >= options_.max_connections) {
      static const char kBusyLine[] = "BUSY\n";
      SendAll(fd, kBusyLine, sizeof(kBusyLine) - 1);
      busy_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->fd = fd;
    conn->thread = std::thread(&BoatServer::HandleConnection, this, conn);
  }
}

void BoatServer::HandleConnection(Conn* conn) {
  const int fd = conn->fd;
  std::string buf;
  internal::WaitGroup wg;
  std::vector<int32_t> slots(kReplyWindow);

  // One entry per request line, in order. slot < 0 carries a preformatted
  // text reply; slot >= 0 is a label the scoring worker will deliver.
  struct PendingReply {
    std::string text;
    int slot = -1;
  };
  std::vector<PendingReply> replies;
  size_t used_slots = 0;
  bool quit = false;
  bool send_failed = false;
  bool skipping_long_line = false;

  // Records admitted to lanes but not yet announced on the fleet work
  // signal. Batched: one work_mu_ acquisition per reply window / recv burst
  // instead of per record.
  size_t unannounced = 0;
  auto publish_work = [&]() {
    if (unannounced == 0) return;
    {
      MutexLock lock(work_mu_);
      work_pending_ += static_cast<int64_t>(unannounced);
    }
    work_cv_.NotifyAll();
    unannounced = 0;
  };

  // Waits for every submitted record of the window, then writes all replies
  // in request order. Returns false once the peer stops reading.
  auto flush = [&]() {
    // Announce before waiting: wg.Wait() completes only after a worker has
    // scored every admitted record, and workers may be asleep until the
    // publish lands.
    publish_work();
    wg.Wait();
    if (replies.empty()) return !send_failed;
    std::string out;
    for (const PendingReply& r : replies) {
      if (r.slot >= 0) {
        const int32_t label = slots[static_cast<size_t>(r.slot)];
        if (label == kSchemaMismatchLabel) {
          out += "ERR model schema changed mid-flight";
        } else if (label == kNoModelLabel) {
          out += "ERR model evicted";
        } else {
          out += StrPrintf("%d", label);
        }
      } else {
        out += r.text;
      }
      out += '\n';
    }
    replies.clear();
    used_slots = 0;
    if (!SendAll(fd, out.data(), out.size())) send_failed = true;
    return !send_failed;
  };

  // In-progress INGEST/DELETE chunk of this connection. While set, incoming
  // lines are payload — consumed without per-line replies — until
  // `remaining` hits zero and the whole chunk is answered at once.
  struct ChunkState {
    ChunkOp op = ChunkOp::kInsert;
    int64_t remaining = 0;
    Lane* lane = nullptr;  ///< routing target; null for an unknown model
    std::vector<Tuple> tuples;
    std::string error;  ///< first payload/validation failure; sticky
  };
  std::optional<ChunkState> chunk;

  auto push_reply = [&](const Reply& reply, Lane* lane = nullptr) {
    if (reply.kind == Reply::Kind::kErr) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      if (lane != nullptr) {
        lane->errors.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (reply.kind == Reply::Kind::kBusy) {
      busy_.fetch_add(1, std::memory_order_relaxed);
      if (lane != nullptr) {
        lane->busy.fetch_add(1, std::memory_order_relaxed);
      }
    }
    replies.push_back({FormatReply(reply), -1});
  };

  // Answers the completed chunk: one ERR for a rejected chunk, BUSY when
  // the trainer queue is saturated, otherwise OK with the queued seq.
  auto finish_chunk = [&]() {
    ChunkState done = std::move(*chunk);
    chunk.reset();
    if (!done.error.empty()) {
      push_reply(Reply::Err(done.error), done.lane);
      return;
    }
    const char* what = done.op == ChunkOp::kInsert ? "ingest" : "delete";
    const size_t records = done.tuples.size();
    const std::optional<uint64_t> seq =
        done.lane->trainer->TrySubmit(done.op, std::move(done.tuples));
    if (!seq.has_value()) {
      push_reply(Reply::Busy(), done.lane);
      return;
    }
    push_reply(Reply::Ok(StrPrintf(
        "%s queued seq %llu records %zu", what,
        static_cast<unsigned long long>(*seq), records)));
  };

  // Consumes one payload line of the open chunk. Oversized lines poison the
  // chunk but still count against `remaining`, keeping the framing in sync.
  auto consume_payload = [&](std::string line, bool oversized) {
    if (chunk->error.empty()) {
      if (oversized) {
        chunk->error = "chunk payload line too long";
      } else {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        // error.empty() implies the chunk resolved to a lane with a live
        // trainer (see Verb::kIngest below).
        Result<Tuple> tuple =
            ParseLabeledRecordLine(line, chunk->lane->trainer->schema());
        if (!tuple.ok()) {
          chunk->error = "rejected chunk: " + tuple.status().message();
        } else {
          chunk->tuples.push_back(std::move(*tuple));
        }
      }
    }
    if (--chunk->remaining == 0) finish_chunk();
  };

  // Queues one data record on `lane`, or answers it at once (ERR/BUSY).
  auto admit_record = [&](const std::string& args, Lane* lane) {
    const std::shared_ptr<const ServableModel> model =
        lane->registry->Snapshot();
    if (model == nullptr) {
      push_reply(
          Reply::Err("model '" + lane->id + "' has no active model"),
          lane);
      return;
    }
    Result<Tuple> tuple = ParseRecordLine(args, model->schema);
    if (!tuple.ok()) {
      push_reply(Reply::Err(tuple.status().message()), lane);
      return;
    }
    internal::Request req;
    req.tuple = std::move(*tuple);
    req.out = &slots[used_slots];
    req.wg = &wg;
    // determinism-lint: allow(latency-histogram timestamp; no prediction depends on it)
    req.admitted = std::chrono::steady_clock::now();
    wg.Add(1);
    if (lane->queue.TryPush(std::move(req))) {
      replies.push_back({"", static_cast<int>(used_slots)});
      ++used_slots;
      ++unannounced;
    } else {
      wg.Done();  // never admitted; nothing to wait for
      push_reply(Reply::Busy(), lane);
    }
  };

  auto process_line = [&](std::string line) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.size() > options_.max_line_bytes) {
      push_reply(Reply::Err("line too long"));
      return;
    }
    if (line.empty()) {
      push_reply(Reply::Err("empty line"));
      return;
    }
    Result<Request> parsed = ParseRequest(line);
    if (!parsed.ok()) {
      push_reply(Reply::Err(parsed.status().message()));
      return;
    }
    // Route: empty id = the default model; PING/QUIT ignore the target.
    Lane* lane = ResolveLane(parsed->model_id);
    const auto unknown_model = [&]() {
      return Reply::Err("unknown model '" + parsed->model_id + "'");
    };
    switch (parsed->verb) {
      case Verb::kRecord:
        // Counted only once the record is queued or answered: a STATS that
        // sees the count and an empty queue knows a worker has popped it.
        if (lane == nullptr) {
          push_reply(unknown_model());
        } else {
          admit_record(parsed->args, lane);
          lane->requests.fetch_add(1, std::memory_order_release);
        }
        requests_.fetch_add(1, std::memory_order_release);
        return;
      case Verb::kStats:
        if (parsed->model_id.empty()) {
          replies.push_back({StatsJson(), -1});
        } else if (lane == nullptr) {
          push_reply(unknown_model());
        } else {
          replies.push_back({LaneStatsJson(*lane), -1});
        }
        return;
      case Verb::kPing:
        push_reply(Reply::Pong());
        return;
      case Verb::kQuit:
        quit = true;
        return;
      case Verb::kReload: {
        if (lane == nullptr) {
          push_reply(unknown_model());
          return;
        }
        const std::string& dir = parsed->args;
        // Per-model isolation: only this lane's registry swaps. A failure
        // keeps the lane's last-good model active.
        const Status status =
            lane->ensemble ? lane->registry->LoadAndSwapEnsemble(dir)
                           : lane->registry->LoadAndSwap(dir, lane->selector);
        if (status.ok()) {
          const std::shared_ptr<const ServableModel> model =
              lane->registry->Snapshot();
          push_reply(Reply::Ok(StrPrintf(
              "reloaded %s fingerprint %016llx", dir.c_str(),
              static_cast<unsigned long long>(model->fingerprint))));
        } else {
          push_reply(Reply::Err(status.ToString()), lane);
        }
        return;
      }
      case Verb::kIngest:
      case Verb::kDelete: {
        // Enter payload mode even for rejected chunks: the client sends the
        // payload regardless, and consuming it (while discarding) is the
        // only way to keep line framing intact.
        chunk.emplace();
        chunk->op = parsed->verb == Verb::kIngest ? ChunkOp::kInsert
                                                  : ChunkOp::kDelete;
        chunk->remaining = parsed->payload_lines;
        chunk->lane = lane;
        if (lane == nullptr) {
          chunk->error = "unknown model '" + parsed->model_id + "'";
        } else if (lane->trainer == nullptr) {
          chunk->error = "streaming ingestion requires boatd --model";
        } else if (parsed->payload_lines >
                   static_cast<int64_t>(options_.max_chunk_records)) {
          chunk->error = StrPrintf(
              "chunk too large: %lld records (max %zu)",
              static_cast<long long>(parsed->payload_lines),
              options_.max_chunk_records);
        } else {
          chunk->tuples.reserve(static_cast<size_t>(
              std::min<int64_t>(parsed->payload_lines, 4096)));
        }
        return;
      }
      case Verb::kRetrain: {
        if (lane == nullptr) {
          push_reply(unknown_model());
          return;
        }
        if (lane->trainer == nullptr) {
          push_reply(Reply::Err("streaming ingestion requires boatd --model"),
                     lane);
          return;
        }
        const Result<Trainer::RetrainResult> result = lane->trainer->Flush();
        if (!result.ok()) {
          push_reply(Reply::Err(result.status().ToString()), lane);
          return;
        }
        push_reply(Reply::Ok(StrPrintf(
            "retrain applied %llu failed %llu fingerprint %016llx",
            static_cast<unsigned long long>(result->applied),
            static_cast<unsigned long long>(result->failed),
            static_cast<unsigned long long>(result->fingerprint))));
        return;
      }
    }
  };

  char rx[4096];
  bool reading = true;
  while (reading && !quit && !send_failed) {
    const ssize_t n = ::recv(fd, rx, sizeof(rx), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      reading = false;  // peer half-closed; finish what is buffered
    } else {
      buf.append(rx, static_cast<size_t>(n));
    }

    size_t start = 0;
    size_t nl;
    while (!quit && (nl = buf.find('\n', start)) != std::string::npos) {
      std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (skipping_long_line) {
        // Tail of an oversized line already accounted for below.
        skipping_long_line = false;
        continue;
      }
      if (chunk.has_value()) {
        consume_payload(std::move(line), /*oversized=*/false);
      } else {
        process_line(std::move(line));
      }
      if (used_slots >= kReplyWindow || replies.size() >= kReplyWindow) {
        if (!flush()) break;
      }
    }
    buf.erase(0, start);
    if (!skipping_long_line && buf.size() > options_.max_line_bytes) {
      // The oversized line is consumed exactly once here (its tail is
      // discarded above), so chunk payload accounting stays in sync.
      if (chunk.has_value()) {
        consume_payload("", /*oversized=*/true);
      } else {
        push_reply(Reply::Err("line too long"));
      }
      skipping_long_line = true;
      buf.clear();
    } else if (skipping_long_line) {
      buf.clear();
    }
    if (!reading && !quit && !buf.empty() && !skipping_long_line) {
      // Lenient: final unterminated line.
      if (chunk.has_value()) {
        consume_payload(std::move(buf), /*oversized=*/false);
      } else {
        process_line(std::move(buf));
      }
      buf.clear();
    }
    if (!reading && chunk.has_value()) {
      // The peer half-closed mid-chunk; the missing payload can never
      // arrive, so answer the chunk now.
      chunk.reset();
      push_reply(Reply::Err("truncated chunk"));
    }
    if (!flush()) break;
  }

  // Every submitted request points at this frame's slots; never leave
  // before the scoring workers are done with them. Publish first —
  // unannounced records would otherwise leave the workers asleep.
  publish_work();
  wg.Wait();
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

void BoatServer::ScoringWorker(size_t worker_index) {
  const size_t max_batch =
      options_.max_batch > 0 ? static_cast<size_t>(options_.max_batch) : 1;
  std::vector<internal::Request> batch;
  batch.reserve(max_batch);
  std::vector<Tuple> tuples;
  tuples.reserve(max_batch);
  std::vector<int32_t> out;

  // Fairness between models: each worker scans the lanes round-robin from
  // its own cursor (staggered by worker index so co-workers start on
  // different lanes) and always resumes *past* the lane it just served, so
  // one saturated model cannot starve the others.
  const size_t lane_count = lanes_.size();
  size_t cursor = worker_index % lane_count;

  for (;;) {
    bool closed;
    {
      // Sleep until handlers announce work (or shutdown). The signed tally
      // may lag pops (handlers publish in batches), so a wakeup is a hint,
      // not a guarantee — the scan below is the source of truth.
      MutexLock lock(work_mu_);
      work_cv_.Wait(lock, [&] {
        work_mu_.AssertHeld();
        return work_pending_ > 0 || work_closed_;
      });
      closed = work_closed_;
    }

    Lane* lane = nullptr;
    std::optional<internal::Request> first;
    for (size_t probe = 0; probe < lane_count; ++probe) {
      Lane* candidate = lanes_[(cursor + probe) % lane_count].get();
      first = candidate->queue.TryPop();
      if (first.has_value()) {
        lane = candidate;
        cursor = (cursor + probe + 1) % lane_count;
        break;
      }
    }
    if (lane == nullptr) {
      if (closed) {
        // Closed and every lane drained: done. (A co-worker may still be
        // scoring its final batch; those records are no longer queued.)
        bool all_empty = true;
        for (const std::unique_ptr<Lane>& l : lanes_) {
          if (l->queue.size() != 0) {
            all_empty = false;
            break;
          }
        }
        if (all_empty) return;
      }
      // Spurious hint (another worker won the race, or the tally ran ahead
      // of a pop's accounting): yield and re-check.
      std::this_thread::yield();
      continue;
    }

    {
      // Test-only gate (see SetScoringPausedForTest): holding the popped
      // request here lets backpressure tests fill the lane exactly.
      MutexLock lock(pause_mu_);
      pause_cv_.Wait(lock, [&] {
        pause_mu_.AssertHeld();
        return !scoring_paused_ || lane->queue.closed();
      });
    }
    batch.clear();
    batch.push_back(std::move(*first));
    // Greedy drain, confined to the chosen lane (batches never mix models):
    // take everything already queued under one lock, without waiting. Under
    // a saturated pipeline this alone builds large batches. Then yield the
    // CPU to the connection handlers that are parsing the next records and
    // drain again, for as long as each drain makes progress. The moment one
    // comes back empty we score what we have: a lone record is never held
    // back for a companion that may not come (its own connection is blocked
    // on this reply), and max_batch bounds the loop.
    lane->queue.PopAllInto(&batch, max_batch - batch.size());
    while (batch.size() < max_batch) {
      std::this_thread::yield();
      if (lane->queue.PopAllInto(&batch, max_batch - batch.size()) == 0) break;
    }
    {
      // Account for the whole batch with one lock; see work_pending_'s
      // invariant in server.h for why this may go transiently negative.
      MutexLock lock(work_mu_);
      work_pending_ -= static_cast<int64_t>(batch.size());
    }

    // One model snapshot per batch: a concurrent RELOAD swaps this lane's
    // registry pointer, never this batch's model (RCU-style; see
    // model_registry.h). Other lanes' reloads touch other registries.
    const std::shared_ptr<const ServableModel> model =
        lane->registry->Snapshot();
    out.resize(batch.size());
    if (model == nullptr) {
      // The model was evicted after admission; flag every record.
      for (size_t i = 0; i < batch.size(); ++i) out[i] = kNoModelLabel;
    } else {
      const int arity = model->schema.num_attributes();
      bool uniform = true;
      for (const internal::Request& r : batch) {
        if (r.tuple.num_values() != arity) {
          uniform = false;
          break;
        }
      }
      // Reused buffer, no zero-fill: Predict (and the mismatch loop below)
      // writes every slot it is sized to.
      if (uniform) {
        tuples.clear();
        for (internal::Request& r : batch) {
          tuples.push_back(std::move(r.tuple));
        }
        // Routes through the blocked (SIMD-dispatched) batch kernel for
        // micro-batches of >= 32 records; smaller waves take the per-tuple
        // path. Identical labels either way. An ensemble-backed lane votes
        // across its members with one batched Predict per member.
        model->compiled.Predict(tuples, out, /*num_threads=*/1);
      } else {
        // A hot reload changed the schema arity between admission and
        // scoring: score matching tuples, flag the rest.
        for (size_t i = 0; i < batch.size(); ++i) {
          out[i] = batch[i].tuple.num_values() == arity
                       ? model->compiled.Classify(batch[i].tuple)
                       : kSchemaMismatchLabel;
        }
      }
    }

    batches_.fetch_add(1, std::memory_order_relaxed);
    batch_size_hist_.Record(batch.size());
    // determinism-lint: allow(latency-histogram timestamp; no prediction depends on it)
    const auto end = std::chrono::steady_clock::now();
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          end - batch[i].admitted)
                          .count();
      latency_us_hist_.Record(us > 0 ? static_cast<uint64_t>(us) : 0);
      *batch[i].out = out[i];
    }
    // All labels are written; release the per-window wait groups with one
    // counted Done per run of same-window records. Handlers submit whole
    // reply windows in bursts, so runs are long and the wg mutex is paid
    // per window, not per record.
    size_t run_start = 0;
    for (size_t i = 1; i <= batch.size(); ++i) {
      if (i == batch.size() || batch[i].wg != batch[run_start].wg) {
        batch[run_start].wg->Done(i - run_start);
        run_start = i;
      }
    }
  }
}

std::string BoatServer::LaneStatsJson(const Lane& lane) const {
  const std::shared_ptr<const ServableModel> model = lane.registry->Snapshot();
  // Read before the queue depth: every counted record was queued before
  // its count was published, so a depth read afterwards sees it.
  const uint64_t requests = lane.requests.load(std::memory_order_acquire);
  std::string json = StrPrintf(
      "{\"model_id\":\"%s\",\"requests\":%llu,\"errors\":%llu,"
      "\"busy\":%llu,\"queue_depth\":%zu,\"reloads\":%lld,\"ensemble\":%s",
      lane.id.c_str(), static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(
          lane.errors.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          lane.busy.load(std::memory_order_relaxed)),
      lane.queue.size(), static_cast<long long>(lane.registry->reload_count()),
      lane.ensemble ? "true" : "false");
  if (lane.trainer != nullptr) {
    json += ",\"trainer\":" + lane.trainer->StatsJson();
  }
  if (model != nullptr) {
    json += StrPrintf(
        ",\"model\":{\"fingerprint\":\"%016llx\",\"nodes\":%zu,"
        "\"members\":%d,\"dir\":\"%s\"}",
        static_cast<unsigned long long>(model->fingerprint),
        model->tree_nodes, model->compiled.num_members(),
        model->source_dir.c_str());
  }
  json += "}";
  return json;
}

std::string BoatServer::StatsJson() const {
  const Lane& default_lane = *lanes_.front();
  const std::shared_ptr<const ServableModel> model =
      default_lane.registry->Snapshot();
  // Read before the queue depths (see LaneStatsJson).
  const uint64_t requests = requests_.load(std::memory_order_acquire);
  size_t queue_depth = 0;
  int64_t reloads = 0;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    queue_depth += lane->queue.size();
    reloads += lane->registry->reload_count();
  }
  std::string json = "{";
  json += StrPrintf(
      "\"requests\":%llu,\"errors\":%llu,\"busy\":%llu,\"batches\":%llu,"
      "\"queue_depth\":%zu,\"reloads\":%lld",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(errors_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(busy_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          batches_.load(std::memory_order_relaxed)),
      queue_depth, static_cast<long long>(reloads));
  if (default_lane.trainer != nullptr) {
    json += ",\"trainer\":" + default_lane.trainer->StatsJson();
  }
  json += ",\"batch_size_hist\":" + batch_size_hist_.ToJson();
  json += StrPrintf(
      ",\"latency_us\":{\"count\":%llu,\"p50\":%llu,\"p99\":%llu}",
      static_cast<unsigned long long>(latency_us_hist_.TotalCount()),
      static_cast<unsigned long long>(latency_us_hist_.ValueAtQuantile(0.5)),
      static_cast<unsigned long long>(latency_us_hist_.ValueAtQuantile(0.99)));
  if (model != nullptr) {
    json += StrPrintf(
        ",\"model\":{\"fingerprint\":\"%016llx\",\"nodes\":%zu,"
        "\"dir\":\"%s\"}",
        static_cast<unsigned long long>(model->fingerprint),
        model->tree_nodes, model->source_dir.c_str());
  }
  if (lanes_.size() > 1) {
    json += ",\"models\":{";
    bool first = true;
    for (const std::unique_ptr<Lane>& lane : lanes_) {
      if (!first) json += ",";
      first = false;
      json += "\"" + lane->id + "\":" + LaneStatsJson(*lane);
    }
    json += "}";
  }
  json += "}";
  return json;
}

}  // namespace boat::serve
