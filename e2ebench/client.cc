#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <thread>

#include "trace.h"

namespace e2e {

namespace {

/// Parses a label reply: decimal digits only.
bool ParseLabel(const std::string& line, int32_t* label) {
  if (line.empty() || line.size() > 9) return false;
  int32_t v = 0;
  for (const char c : line) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  *label = v;
  return true;
}

/// Tallies one scoring reply for request number `i` of the corpus cycle.
void Tally(const Corpus& corpus, uint64_t i, const std::string& reply,
           LegResult* r) {
  int32_t label = 0;
  if (!ParseLabel(reply, &label)) {
    ++r->failed;
    return;
  }
  ++r->labels;
  if (!corpus.expected.empty() &&
      label != corpus.expected[i % corpus.expected.size()]) {
    ++r->wrong;
  }
}

void SleepUntilNs(int64_t due_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(due_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(due_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

}  // namespace

std::unique_ptr<Connection> Connection::Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() { ::close(fd_); }

bool Connection::Send(const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Connection::ReadLine(std::string* line) {
  for (;;) {
    const size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buf_, pos_, nl - pos_);
      pos_ = nl + 1;
      return true;
    }
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

LegResult PingPong(int port, const Corpus& corpus, double seconds) {
  LegResult r;
  auto conn = Connection::Connect(port);
  if (conn == nullptr) {
    r.failed = 1;
    return r;
  }
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::string reply;
  for (uint64_t i = 0; NowNs() < end; ++i) {
    const std::string& line = corpus.lines[i % corpus.lines.size()];
    const int64_t t0 = NowNs();
    ++r.sent;
    if (!conn->Send(line) || !conn->ReadLine(&reply)) {
      ++r.failed;
      break;
    }
    r.latency_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    Tally(corpus, i, reply, &r);
  }
  return r;
}

LegResult Pipelined(int port, const Corpus& corpus, int window,
                    double seconds, int slices) {
  LegResult r;
  auto conn = Connection::Connect(port);
  if (conn == nullptr) {
    r.failed = 1;
    return r;
  }
  // One pre-joined burst per window position in the corpus cycle, so the
  // client does no formatting while it is timed.
  const size_t n = corpus.lines.size();
  const size_t w = static_cast<size_t>(window);
  std::vector<std::string> bursts;
  for (size_t first = 0; first < n; first += w) {
    std::string burst;
    for (size_t k = 0; k < w; ++k) burst += corpus.lines[(first + k) % n];
    bursts.push_back(std::move(burst));
  }
  const int64_t start = NowNs();
  const int64_t slice_ns = static_cast<int64_t>(seconds * 1e9) / slices;
  int64_t slice_start = start;
  uint64_t slice_done = 0;
  uint64_t i = 0;
  std::string reply;
  while (static_cast<int>(r.slice_rps.size()) < slices) {
    const std::string& burst = bursts[(i % n) / w];
    r.sent += w;
    if (!conn->Send(burst)) {
      r.failed += w;
      break;
    }
    bool lost = false;
    for (size_t k = 0; k < w; ++k, ++i) {
      if (!conn->ReadLine(&reply)) {
        r.failed += w - k;
        lost = true;
        break;
      }
      Tally(corpus, i, reply, &r);
    }
    if (lost) break;
    slice_done += w;
    const int64_t now = NowNs();
    if (now - slice_start >= slice_ns) {
      r.slice_rps.push_back(static_cast<double>(slice_done) /
                            (static_cast<double>(now - slice_start) * 1e-9));
      slice_start = now;
      slice_done = 0;
    }
  }
  return r;
}

LegResult OpenLoop(int port, const Corpus& corpus, double rate,
                   double seconds, const std::atomic<bool>* stop) {
  LegResult r;
  auto conn = Connection::Connect(port);
  if (conn == nullptr) {
    r.failed = 1;
    return r;
  }
  const int64_t period_ns = static_cast<int64_t>(1e9 / rate);
  // The first request is due a little after both threads are up.
  const int64_t start = NowNs() + 2'000'000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<double> late_us;
  uint64_t sent = 0;
  bool send_failed = false;
  std::thread sender([&] {
    // Wake-ups land within microseconds of the due time instead of the
    // default 50 us timer slack; affects this thread only.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    for (uint64_t i = 0;; ++i) {
      const int64_t due = start + static_cast<int64_t>(i) * period_ns;
      if (stop != nullptr ? stop->load(std::memory_order_acquire)
                          : due >= end) {
        break;
      }
      SleepUntilNs(due);
      late_us.push_back(static_cast<double>(NowNs() - due) * 1e-3);
      if (!conn->Send(corpus.lines[i % corpus.lines.size()])) {
        send_failed = true;
        break;
      }
      ++sent;
    }
    // In-order replies: PONG marks the end of the stream.
    if (!send_failed) send_failed = !conn->Send("PING\n");
  });
  std::string reply;
  for (uint64_t i = 0;; ++i) {
    if (!conn->ReadLine(&reply)) break;
    const int64_t now = NowNs();
    if (reply == "PONG") break;
    r.latency_us.push_back(
        static_cast<double>(now - (start + static_cast<int64_t>(i) *
                                               period_ns)) *
        1e-3);
    Tally(corpus, i, reply, &r);
  }
  sender.join();
  r.sent = sent;
  r.failed += sent - std::min<uint64_t>(sent, r.labels + r.failed);
  r.late_us = std::move(late_us);
  return r;
}

ChunkResult SendChunkAndRetrain(Connection* conn, const std::string& framed) {
  ChunkResult r;
  const int64_t t0 = NowNs();
  if (!conn->Send(framed) || !conn->ReadLine(&r.chunk_reply)) return r;
  const int64_t t1 = NowNs();
  if (!conn->Send("RETRAIN\n") || !conn->ReadLine(&r.retrain_reply)) return r;
  const int64_t t2 = NowNs();
  r.ack_ms = static_cast<double>(t1 - t0) * 1e-6;
  r.barrier_ms = static_cast<double>(t2 - t1) * 1e-6;
  r.total_ms = static_cast<double>(t2 - t0) * 1e-6;
  r.ok = r.chunk_reply.rfind("OK", 0) == 0 &&
         r.retrain_reply.rfind("OK", 0) == 0;
  return r;
}

}  // namespace e2e
