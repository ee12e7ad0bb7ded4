// In-memory span and count recorder for the traced benchmark run.
//
// A span is (name, start, end, parent) around one call into a library
// layer; counts are named values recorded at the same boundaries. Both are
// kept in memory and written out once, when the run ends. With tracing off
// every call is a no-op, so the untraced run measures the program alone.
//
// Only the driver thread records: client threads keep their own raw
// samples, so the recorder needs no lock.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// \brief Nanoseconds on the steady clock.
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// \brief RAII span: opened by Tracer::Open, closed by the destructor.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  [[nodiscard]] Scope Open(const std::string& name);

  /// \brief Records a named value (a count or a derived ratio).
  void Count(const std::string& name, double value);

  /// \brief Durations, in seconds, of every closed span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  const std::map<std::string, double>& counts() const { return counts_; }

  /// \brief Writes every span and count as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  void Close(int index);

  const bool enabled_;
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
  int open_ = -1;  ///< innermost open span
};

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
