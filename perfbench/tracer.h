// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around calls into the
// simulator's public API: name, start, end and the enclosing span. Nothing
// is written until the run ends. When the tracer is disabled a Span reads
// no clock and records nothing.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_ns = 0.0;  ///< Since the tracer's epoch.
  double end_ns = 0.0;
  int parent = -1;        ///< Index of the enclosing span, -1 at top level.

  double duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int open(std::string name);
  /// Ends the span; returns its duration in ns.
  double close(int index);

  /// Chrome trace-event JSON ("X" events, microseconds).
  bool write_json(const std::string& path) const;

 private:
  double now_ns() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// RAII span on the global tracer.
class Span {
 public:
  explicit Span(const char* name) : Span(std::string(name)) {}
  explicit Span(std::string name)
      : index_(tracer().enabled() ? tracer().open(std::move(name)) : -1) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early; returns its duration in ns (0 when disabled or
  /// already stopped).
  double stop() {
    const double ns = index_ >= 0 ? tracer().close(index_) : 0.0;
    index_ = -1;
    return ns;
  }

 private:
  int index_;
};

}  // namespace perfbench
