// In-memory span recorder for the benchmark's traced replay.
//
// Spans are recorded around calls into the engine's public entry points
// from the benchmark's own code (no instrumentation inside the library).
// Each span has a name, start, end, parent and request id; spans stay in
// memory and are written out once, when the run ends. A disabled tracer
// records nothing, so one code path serves the untraced and traced passes.
//
// Single-threaded: the replay runs requests serially.

#ifndef CAJADE_PERFBENCH_TRACE_H_
#define CAJADE_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace cajade {
namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  ///< index into spans(), -1 for a request root
    uint32_t request;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_request(uint32_t id) { request_ = id; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int Begin(const char* name) {
    if (!enabled_) return -1;
    int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, NowNs(), 0, parent, request_});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void End(int index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed self time in seconds (duration minus the part
  /// covered by child spans).
  std::map<std::string, double> SelfSeconds() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += (s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return out;
  }

  /// Summed duration of the spans directly under a request root.
  double TopLevelSeconds() const {
    int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.parent >= 0 && spans_[s.parent].parent < 0) {
        ns += s.end_ns - s.start_ns;
      }
    }
    return ns * 1e-9;
  }

  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"parent\": %d, \"request\": %u}%s\n",
                   s.name, static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent, s.request,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
}  // namespace cajade

#endif  // CAJADE_PERFBENCH_TRACE_H_
