#pragma once
// The benchmark's own machinery: clocks, spans, order statistics, digests
// and the metric sheet. Nothing here calls into flattree; the layer calls
// live in layers.hpp and the workloads in workloads.cpp.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in milliseconds.
double wall_ms();
/// CPU time of the whole process in milliseconds.
double cpu_ms();
/// Peak resident set size of this process in MiB.
double peak_rss_mb();

// -- spans ------------------------------------------------------------------
//
// A span records one call into a layer: its name ("<layer>.<call>"), start
// and end on the wall clock, the index of the enclosing span (-1 at the
// root) and the id of the operation it belongs to. Spans are only kept
// while tracing is on; they stay in memory until the run ends.

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
};

class Tracer {
 public:
  static Tracer& get();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  /// Starts a new operation id; every span opened until the next call
  /// carries it.
  void next_op() { ++op_; }

  int open(const char* name);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Moves the recorded spans out (the tracer keeps recording afresh).
  std::vector<Span> take();

 private:
  bool on_ = false;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; inert when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(Tracer::get().on() ? Tracer::get().open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::get().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// The layer a span belongs to: its name up to the first '.'.
std::string layer_of(const std::string& span_name);

/// Self time per span: its duration minus the durations of its direct
/// children.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Self time summed per layer (ms).
std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans);

/// Total duration and call count of the spans with exactly this name.
struct SpanTotal {
  double ms = 0.0;
  std::uint64_t calls = 0;
};
SpanTotal span_total(const std::vector<Span>& spans, const std::string& name);

/// Writes the spans as JSON lines (name, start, end, parent, op).
void write_spans(const std::vector<Span>& spans, const std::string& path);

// -- order statistics -------------------------------------------------------

double median(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 1)): the smallest sample with at least
/// p*n samples at or below it.
double percentile(std::vector<double> values, double p);

/// Samples that lie strictly beyond the nearest-rank p-th percentile rank.
std::size_t samples_beyond(std::size_t n, double p);

/// Minimum tail the latency metrics require: a p-th percentile is reported
/// only when at least this many samples lie beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

/// True when `n` samples give a percentile that meets kMinTailSamples.
bool percentile_supported(std::size_t n, double p);

/// Interquartile range over the median (0 for fewer than two values).
double relative_iqr(const std::vector<double>& values);

// -- digests ----------------------------------------------------------------

/// FNV-1a accumulator over the bytes of deterministic outputs.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::string hex64(std::uint64_t v);

// -- metrics ----------------------------------------------------------------

/// True for names made only of [A-Za-z0-9_.-] (and not empty).
bool valid_metric_name(const std::string& name);

/// An ordered sheet of named metrics with units.
class MetricSheet {
 public:
  /// Sets (or overwrites) a metric. Throws std::invalid_argument on a name
  /// that fails valid_metric_name.
  void set(const std::string& name, double value, const std::string& unit);
  double value(const std::string& name) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
  std::string to_json() const;
  const std::vector<std::string>& names() const { return order_; }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench
