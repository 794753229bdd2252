#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter carries over the peak of
  // the image that exec'd this one (run.py's Python interpreter).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

// -- spans ------------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  s.start_ms = wall_ms();
  spans_.push_back(std::move(s));
  int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ms = wall_ms();
  // Spans close in LIFO order (ScopedSpan is RAII); tolerate a stray close.
  while (!stack_.empty()) {
    int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

std::vector<Span> Tracer::take() {
  std::vector<Span> out;
  out.swap(spans_);
  stack_.clear();
  return out;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ms - spans[i].start_ms;
  for (const Span& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ms - s.start_ms;
  return self;
}

std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans) {
  std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[layer_of(spans[i].name)] += self[i];
  return out;
}

SpanTotal span_total(const std::vector<Span>& spans, const std::string& name) {
  SpanTotal t;
  for (const Span& s : spans)
    if (s.name == name) {
      t.ms += s.end_ms - s.start_ms;
      ++t.calls;
    }
  return t;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  char buf[256];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%d,"
                  "\"op\":%llu}\n",
                  s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                  static_cast<unsigned long long>(s.op));
    out << buf;
  }
}

// -- order statistics -------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {
std::size_t nearest_rank(std::size_t n, double p) {
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}
}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinTailSamples;
}

double relative_iqr(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  // Same rule as Python's statistics.quantiles(n=4) (exclusive method).
  auto q = [&](double frac) {
    double pos = frac * static_cast<double>(v.size() + 1) - 1.0;
    pos = std::clamp(pos, 0.0, static_cast<double>(v.size() - 1));
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  double med = median(v);
  return med != 0.0 ? (q(0.75) - q(0.25)) / med : 0.0;
}

// -- digests ----------------------------------------------------------------

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// -- metrics ----------------------------------------------------------------

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void MetricSheet::set(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) throw std::invalid_argument("bad metric name: " + name);
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

double MetricSheet::value(const std::string& name) const { return values_.at(name).first; }

std::string MetricSheet::to_json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    double v = std::isfinite(value) ? value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + order_[i] + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
