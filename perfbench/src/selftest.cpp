// Self-tests of the benchmark's own pieces: span self-time arithmetic, the
// tail-sample rule for percentiles, best-time arithmetic, metric names, and
// workload determinism.
// Run with `python3 perfbench/run.py --selftest`; exits non-zero on failure.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

Span span(const char* name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start_ms = start;
  s.end_ms = end;
  s.parent = parent;
  return s;
}

void test_self_time() {
  // a [0,10] holds siblings b [1,4] and c [5,9]; c holds d [6,8].
  std::vector<Span> spans = {span("x.a", 0, 10, -1), span("y.b", 1, 4, 0),
                             span("y.c", 5, 9, 0), span("z.d", 6, 8, 2)};
  std::vector<double> self = self_times(spans);
  expect(near(self[0], 3) && near(self[1], 3) && near(self[2], 2) && near(self[3], 2),
         "self time subtracts direct children only");
  auto layers = self_time_by_layer(spans);
  expect(near(layers["x"], 3) && near(layers["y"], 5) && near(layers["z"], 2),
         "self time sums per layer");
  double total = 0;
  for (const auto& [layer, ms] : layers) total += ms;
  expect(near(total, 10), "layer self times add up to the root span");
  expect(span_total(spans, "y.b").calls == 1 && near(span_total(spans, "y.c").ms, 4),
         "span totals by name");

  // The tracer links parents through real nesting.
  Tracer& t = Tracer::get();
  t.take();
  t.set_on(true);
  {
    ScopedSpan outer("bench.round");
    { ScopedSpan first("mcf.solve"); }
    {
      ScopedSpan second("fault.on_event");
      ScopedSpan inner("graph.apl");
    }
  }
  t.set_on(false);
  std::vector<Span> rec = t.take();
  expect(rec.size() == 4 && rec[0].parent == -1 && rec[1].parent == 0 && rec[2].parent == 0 &&
             rec[3].parent == 2,
         "tracer records parent indices of nested and sibling spans");
  for (const Span& s : rec) expect(s.end_ms >= s.start_ms, "span closes after it opens");
  { ScopedSpan off("mcf.solve"); }
  expect(t.spans().empty(), "spans are not recorded while tracing is off");
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  expect(near(percentile(v, 0.95), 190) && near(percentile(v, 0.5), 100),
         "nearest-rank percentile");
  expect(samples_beyond(200, 0.95) == 10 && percentile_supported(200, 0.95),
         "200 samples leave 10 beyond p95");
  expect(samples_beyond(199, 0.95) == 9 && !percentile_supported(199, 0.95),
         "199 samples are too few for p95");
  expect(!percentile_supported(0, 0.95) && percentile_supported(20, 0.5),
         "empty streams have no percentile; 20 samples carry a median");
  std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  expect(near(relative_iqr(ten), (8.25 - 2.75) / 5.5), "relative IQR matches Python's rule");
  expect(near(median(ten), 5.5), "median of an even count");
}

void test_best_times() {
  // Two operations over three untraced rounds and one traced round; the
  // traced round is fastest but must not count.
  auto round = [](double a, double b) {
    RoundOut r;
    r.op_ms = {a, b};
    r.op_kind = {0, 1};
    r.work = 4.0;
    r.e2e_ms = a + b;
    return r;
  };
  RunTotals t;
  t.add(round(3, 10), false, 0);
  t.add(round(2, 12), false, 1);
  t.add(round(5, 9), false, 0);
  t.add(round(1, 1), true, 0);
  std::vector<double> best = t.best_op_ms();
  expect(best.size() == 2 && near(best[0], 2) && near(best[1], 9),
         "best time per operation over the untraced rounds");
  expect(near(t.work_per_s(), 4.0 / 0.011), "work per second over the summed best times");
  expect(near(t.kind_p50(1), 9), "per-kind median of best times");
  expect(t.op_latencies().size() == 6, "pooled latencies keep every untraced sample");
}

void test_metric_names() {
  for (const std::string& n : end_to_end_names())
    expect(valid_metric_name(n), "end-to-end name " + n);
  for (const std::string& n : per_layer_names())
    expect(valid_metric_name(n), "per-layer name " + n);
  for (const char* bad : {"", "a b", "x/y", "p95%", "q\"", "caf\xc3\xa9"})
    expect(!valid_metric_name(bad), std::string("rejects name '") + bad + "'");
  MetricSheet sheet;
  bool threw = false;
  try {
    sheet.set("bad name", 1.0, "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "a sheet refuses an invalid name");
  sheet.set("a.b-c_d", 0.1, "ms");
  expect(sheet.to_json() == "{\"a.b-c_d\": {\"value\": 0.10000000000000001, \"unit\": \"ms\"}}",
         "values keep every digit");
}

void test_determinism() {
  for (const std::string& name : workload_names()) {
    auto a = make_workload(name), b = make_workload(name), c = make_workload(name);
    a->setup(1);
    b->setup(1);
    c->setup(2);
    expect(a->input_digest() == b->input_digest(), name + ": same seed, same inputs");
    expect(a->input_digest() != c->input_digest(), name + ": other seed, other inputs");
    RoundOut ra = a->round(/*check=*/true), rb = b->round(/*check=*/false);
    expect(ra.failed == 0, name + ": checked round passes");
    expect(!ra.op_digest.empty() && ra.op_digest == rb.op_digest,
           name + ": same seed, same output digest");
    expect(ra.op_ms.size() == ra.op_kind.size() && ra.work > 0 && ra.e2e_ms > 0,
           name + ": round accounting");
  }
}

}  // namespace

int main() {
  test_self_time();
  test_percentiles();
  test_best_times();
  test_metric_names();
  test_determinism();
  if (g_failures == 0) {
    std::printf("perfbench selftest: OK\n");
    return 0;
  }
  std::printf("perfbench selftest: %d failure(s)\n", g_failures);
  return 1;
}
