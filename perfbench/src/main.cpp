// perfbench: times one workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// The run builds the workload's inputs, runs one round with every output
// checked, then repeats rounds for S seconds; batches of repeated set-ups
// are timed in between (setup_s is their median). Each round's
// per-operation output hashes must equal the checked round's. The timing
// metrics come from each operation's best time over the rounds. With
// --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 untraced and traced rounds alternate and it carries the
// per-layer sheet instead. Human-readable diagnostics (digests, aliases,
// spreads) precede it.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "graph/multi_bfs.hpp"
#include "harness.hpp"
#include "metrics.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.empty()) cpus.push_back(-1);  // affinity unknown: leave placement to the OS
  return cpus;
}

void pin_to_cpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Times the set-up of the workload's inputs in batches of repeated
/// set-ups, each about kBatchMs long and split over the CPUs in turn;
/// setup_s is the median over the batches of each batch's fastest set-up
/// (as for the rounds, a slower repeat is time the host took, and some
/// CPUs are slower than others for a while). One batch runs before the
/// timed rounds and the rest between them, spread over the run, so a slow
/// spell of the host shifts at most a few of them. A warm-up pass counts
/// how many set-ups fill a batch.
class SetupTimer {
 public:
  static constexpr std::size_t kBatches = 9;

  SetupTimer(std::string name, std::uint64_t seed, std::vector<int> cpus)
      : name_(std::move(name)), seed_(seed), cpus_(std::move(cpus)) {
    constexpr double kWarmMs = 100.0;
    int warm = 0;
    for (double t0 = wall_ms(); wall_ms() - t0 < kWarmMs; ++warm)
      make_workload(name_)->setup(seed_);
    reps_ = std::max(1, static_cast<int>(warm * kBatchMs / kWarmMs));
  }

  void batch() {
    double best_ms = 0.0;
    for (int r = 0; r < reps_; ++r) {
      if (r % per_cpu() == 0)
        pin_to_cpu(cpus_[static_cast<std::size_t>(r / per_cpu()) % cpus_.size()]);
      std::unique_ptr<Workload> w = make_workload(name_);
      double start = wall_ms();
      w->setup(seed_);
      double ms = wall_ms() - start;
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    per_setup_s_.push_back(best_ms / 1000.0);
  }

  std::size_t batches() const { return per_setup_s_.size(); }
  double seconds() const { return median(per_setup_s_); }
  double spread() const { return relative_iqr(per_setup_s_); }

 private:
  static constexpr double kBatchMs = 200.0;
  int per_cpu() const { return std::max(1, reps_ / static_cast<int>(cpus_.size())); }

  std::string name_;
  std::uint64_t seed_;
  std::vector<int> cpus_;
  int reps_ = 1;
  std::vector<double> per_setup_s_;
};

/// Keeps freed memory in the process. By default glibc hands large blocks
/// and the heap's free top back to the kernel, and convert-apl then
/// faults about 50,000 pages back in every round; what a page fault costs
/// on a virtual machine depends on the host's memory load, so those rounds
/// measured the host.
void keep_freed_memory() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's maximum: blocks up to 32 MiB come from the heap
  mallopt(M_TRIM_THRESHOLD, INT_MAX);   // never shrink the heap
}

}  // namespace

int main(int argc, char** argv) {
  keep_freed_memory();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Tracer& tracer = Tracer::get();

  // -- set-up ---------------------------------------------------------------
  const std::vector<int> cpus = allowed_cpus();
  pin_to_cpu(cpus[0]);
  SetupTimer setup(args.workload, args.seed, cpus);
  setup.batch();
  tracer.set_on(args.trace);
  w->setup(args.seed);
  tracer.set_on(false);
  std::vector<Span> setup_spans = tracer.take();

  // -- checked round: the reference outputs ----------------------------------
  RunTotals totals;
  tracer.set_on(args.trace);
  RoundOut reference = w->round(/*check=*/true);
  tracer.set_on(false);
  std::vector<Span> check_spans = tracer.take();
  totals.attempted += reference.op_digest.size();
  totals.failed += reference.failed;
  Digest output_digest;
  for (std::uint64_t d : reference.op_digest) output_digest.u64(d);

  // -- timed rounds ------------------------------------------------------------
  // Rounds rotate over the CPUs the process may use, so no run spends all
  // its time on one core that a co-tenant slows. In traced runs each CPU
  // takes an untraced round and then a traced one.
  const std::size_t per_cpu = args.trace ? 2 : 1;
  flattree::obs::reset_metrics();
  flattree::graph::MultiBfsStats bfs{};
  double start = wall_ms(), cpu_start = cpu_ms();
  // Past --seconds, keep going until every operation has kMinRounds
  // untraced repeats to take its best time from, and the pooled p95 has its
  // tail samples (only a much slower machine than usual needs this).
  constexpr std::size_t kMinRounds = 6;
  auto elapsed = [&] { return (wall_ms() - start) / (args.seconds * 1000.0); };
  auto done = [&] {
    return elapsed() >= 1.0 && totals.rounds() >= kMinRounds * per_cpu &&
           setup.batches() >= SetupTimer::kBatches &&
           (args.trace || percentile_supported(totals.op_latencies().size(), 0.95));
  };
  for (std::size_t i = 0; !done(); ++i) {
    const int cpu = cpus[(i / per_cpu) % cpus.size()];
    pin_to_cpu(cpu);
    const bool traced = args.trace && i % 2 == 1;
    flattree::graph::MultiBfsStats bfs0 = flattree::graph::multi_bfs_stats();
    flattree::obs::set_enabled(traced);
    tracer.set_on(traced);
    RoundOut r;
    {
      ScopedSpan span("bench.round");
      r = w->round(/*check=*/false);
    }
    tracer.set_on(false);
    flattree::obs::set_enabled(false);
    if (traced) {
      flattree::graph::MultiBfsStats bfs1 = flattree::graph::multi_bfs_stats();
      bfs.words_touched += bfs1.words_touched - bfs0.words_touched;
      bfs.batches += bfs1.batches - bfs0.batches;
    }
    std::size_t mismatched = 0;
    if (r.op_digest.size() != reference.op_digest.size()) {
      mismatched = r.op_digest.size();
    } else {
      for (std::size_t k = 0; k < r.op_digest.size(); ++k)
        mismatched += r.op_digest[k] != reference.op_digest[k];
    }
    totals.attempted += r.op_digest.size();
    totals.failed += r.failed + mismatched;
    totals.add(r, traced, cpu);
    // Set-up batches fall due evenly over --seconds.
    const double due = 1.0 + (SetupTimer::kBatches - 1.0) * std::min(1.0, elapsed());
    if (static_cast<double>(setup.batches()) < std::floor(due)) setup.batch();
  }
  const double wall_total = wall_ms() - start, cpu_total = cpu_ms() - cpu_start;
  std::vector<Span> round_spans = tracer.take();
  const double cpu_wait = std::max(0.0, 1.0 - cpu_total / wall_total);

  // -- report ---------------------------------------------------------------------
  std::printf("perfbench workload=%s seed=%llu rounds=%zu traced_rounds=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              totals.rounds(), totals.traced_rounds());
  std::printf("digest inputs=%s outputs=%s\n", hex64(w->input_digest()).c_str(),
              hex64(output_digest.value()).c_str());

  MetricSheet sheet;
  bool tail_ok = true;
  if (!args.trace) {
    tail_ok = end_to_end_sheet(sheet, totals, setup.seconds(), peak_rss_mb());
    print_aliases(args.workload, sheet);
    print_latency(args.workload, totals);
    std::printf("spread setup_s=%.4f round_rate=%.4f (relative IQR across setup batches / "
                "rounds)\n",
                setup.spread(), totals.rate_spread());
  } else {
    LayerInputs in{setup_spans, check_spans, round_spans, flattree::obs::snapshot_metrics(),
                   bfs, w->op_kinds(), cpu_wait};
    per_layer_sheet(sheet, totals, in);
    if (!args.spans.empty()) {
      std::vector<Span> all = setup_spans;
      all.insert(all.end(), check_spans.begin(), check_spans.end());
      all.insert(all.end(), round_spans.begin(), round_spans.end());
      write_spans(all, args.spans);
    }
    print_layer_table(sheet);
  }
  totals.print_cpus();
  std::printf("noise cpu_wait_frac=%.4f (1 - process CPU / wall over the timed rounds)\n",
              cpu_wait);
  if (!tail_ok)
    std::printf("error: fewer than %zu latency samples beyond p95\n", kMinTailSamples);

  const bool correct = totals.failed == 0 && tail_ok;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", totals.attempted, totals.failed,
              sheet.to_json().c_str());
  return correct ? 0 : 1;
}
