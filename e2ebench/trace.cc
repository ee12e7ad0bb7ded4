#include "trace.h"

#include <chrono>
#include <cstdio>

namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_->Close(index_);
}

Tracer::Scope Tracer::Open(const std::string& name) {
  if (!enabled_) return Scope(this, -1);
  spans_.push_back({name, NowNs(), 0, open_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return Scope(this, open_);
}

void Tracer::Close(int index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  open_ = span.parent;
}

void Tracer::Count(const std::string& name, double value) {
  if (enabled_) counts_[name] = value;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns != 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d}",
                 i == 0 ? "" : ",", i, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  std::fputs("],\n\"counts\":{", f);
  bool first = true;
  for (const auto& [name, value] : counts_) {
    std::fprintf(f, "%s\n\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::fputs("}}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
