// The benchmark's own wire client: raw loopback sockets, exact timing.
//
// Every leg keeps one raw sample per request (no histogram buckets), so the
// medians and tails the benchmark reports are true order statistics. Labels
// are checked reply by reply against an expected vector computed apart from
// the server (DecisionTree::Classify on the same records).

#ifndef E2EBENCH_CLIENT_H_
#define E2EBENCH_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

/// \brief One blocking TCP connection to 127.0.0.1 with a line reader.
class Connection {
 public:
  /// \brief Connects to the loopback port; null on failure.
  static std::unique_ptr<Connection> Connect(int port);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Send(const std::string& data);
  /// \brief Reads one reply line without its newline; false on EOF/error.
  bool ReadLine(std::string* line);

 private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

/// \brief Outcome of one client leg.
struct LegResult {
  uint64_t sent = 0;
  uint64_t labels = 0;  ///< label replies
  uint64_t wrong = 0;   ///< label replies that differ from the expected one
  uint64_t failed = 0;  ///< ERR / BUSY / unparsable replies, or lost ones
  std::vector<double> latency_us;  ///< ping-pong and open-loop legs
  std::vector<double> late_us;     ///< open loop: send time minus due time
  std::vector<double> slice_rps;   ///< pipelined: throughput per time slice
};

/// \brief Requests to send, cycled in order, and the label each must get
/// (empty `expected`: any label is accepted).
struct Corpus {
  std::vector<std::string> lines;
  std::vector<int32_t> expected;
};

/// \brief One request in flight at a time for `seconds`; latency is the
/// round trip.
LegResult PingPong(int port, const Corpus& corpus, double seconds);

/// \brief Closed loop over one connection: `window` requests are written in
/// one burst, then all `window` replies are read, until `seconds` pass. The
/// leg is cut into `slices` equal time slices, each yielding one rps value.
LegResult Pipelined(int port, const Corpus& corpus, int window,
                    double seconds, int slices);

/// \brief Open loop over one connection: request i is due at
/// start + i / rate and is sent at its due time whatever the replies do; its
/// latency is counted from the due time. Runs for `seconds`, or, when
/// `stop` is non-null, until *stop becomes true.
LegResult OpenLoop(int port, const Corpus& corpus, double rate,
                   double seconds, const std::atomic<bool>* stop);

/// \brief Timing of one INGEST/DELETE chunk followed by RETRAIN.
struct ChunkResult {
  bool ok = false;
  double ack_ms = 0;      ///< until the INGEST/DELETE reply
  double barrier_ms = 0;  ///< from that reply until the RETRAIN reply
  double total_ms = 0;
  std::string chunk_reply;
  std::string retrain_reply;
};

/// \brief Sends `framed` (an INGEST/DELETE line plus its payload) and then
/// RETRAIN on `conn`; ok when both replies start with "OK".
ChunkResult SendChunkAndRetrain(Connection* conn, const std::string& framed);

}  // namespace e2e

#endif  // E2EBENCH_CLIENT_H_
