#ifndef RSTBENCH_HARNESS_H_
#define RSTBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "extmem/storage.h"

namespace rstbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`.
double MsSince(Clock::time_point start);

/// Percentile (q in [0, 1]) of `values`, interpolated linearly between
/// the closest ranks; 0 when empty.
double Percentile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// User plus system CPU seconds of the whole process (every thread).
double ProcessCpuSeconds();

/// Peak resident set of the process in MiB.
double PeakRssMb();

/// `part / whole`, 0 when `whole` is 0 (a rate with an empty base).
double Ratio(double part, double whole);

/// What one run reports: the operation tally plus named metrics.
struct RunReport {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; a false `ok` is a failure.
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Latencies of one closed-loop measured window.
struct Window {
  std::vector<double> latencies_ms;
  /// When `interval_s` > 0: each operation's completion time, seconds
  /// after the window opened, in `latencies_ms` order.
  std::vector<double> end_s;
  double wall_s = 0;
  double cpu_s = 0;
  /// 0: rate and percentiles are taken over the whole window. > 0: over
  /// each whole interval of this length, and the median over intervals
  /// is reported, so a stall of the shared machine that spans a few
  /// intervals does not move the run's figures.
  double interval_s = 0;

  double ops_per_s() const;
  double p50_ms() const { return IntervalMedian(0.50); }
  double p99_ms() const { return IntervalMedian(0.99); }
  double cpu_s_per_op() const {
    return latencies_ms.empty()
               ? 0
               : cpu_s / static_cast<double>(latencies_ms.size());
  }

 private:
  /// Latencies of each whole interval (one group when interval_s is 0).
  std::vector<std::vector<double>> Intervals() const;
  double IntervalMedian(double q) const;
};

/// Wall-clock spans recorded around the public calls into each layer.
/// Kept in memory while the workload runs and written out as JSON lines
/// at the end. A disabled log records nothing: Begin returns -1 and End
/// ignores it, so untraced runs pay one branch per call site.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t op = 0;   // operation the span belongs to
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when disabled).
  std::int64_t Begin(const char* name, std::uint64_t op,
                     std::int64_t parent = -1);
  void End(std::int64_t id);

  /// Snapshot of every recorded span.
  std::vector<Span> spans() const;

  /// Durations (ms) of the closed spans called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Median over the `root` spans of the share (in %) of each span that
/// its direct children cover — how much of an operation the timed
/// public calls account for.
double CoveredPct(const SpanLog& log, const std::string& root);

/// One caller in a closed loop: runs `op(i, log)` for i = 0, 1, ...,
/// timing each call and counting each result (false = wrong output) in
/// `report`. The operations come in rounds of `round` (a workload's
/// rotation over its inputs) and the window holds whole rounds: the
/// number of them nearest to `seconds`, at least one. Every window then
/// has the same mix, so its median does not depend on where the clock
/// happened to stop in the rotation.
template <typename Op>
Window RunClosedLoop(double seconds, std::uint64_t round, SpanLog& log,
                     RunReport& report, Op&& op) {
  Window window;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;;) {
    const Clock::time_point begin = Clock::now();
    const bool ok = op(i++, log);
    window.latencies_ms.push_back(MsSince(begin));
    report.Check(ok);
    if (i % round != 0) continue;
    const double elapsed_s = MsSince(start) / 1e3;
    const double round_s = elapsed_s / static_cast<double>(i / round);
    if (elapsed_s + round_s / 2 >= seconds) break;
  }
  window.wall_s = MsSince(start) / 1e3;
  window.cpu_s = ProcessCpuSeconds() - cpu_start;
  return window;
}

/// The sorting layer alone: `SortInputToTape` over the fields `values`
/// on a decider context with `storage`, timed and checked against an
/// in-memory sort, plus the pass count `SortForDecider` reports for the
/// same input. Counts both outputs in `report`.
struct HalfSort {
  double ms = 0;
  std::size_t passes = 0;
};
HalfSort SortOneHalf(const std::vector<std::string>& values,
                     const rstlab::extmem::StorageOptions& storage,
                     RunReport& report);

/// Every run's fixed inputs, parsed from the command line.
struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small-N mode for the benchmark's own test.
  bool smoke = false;
  /// Directory inside the checkout for tape files.
  std::string scratch_dir;

  /// Length of one measured window. A traced run measures an untraced
  /// and a traced window back to back (their difference is the tracing
  /// overhead), so the run as a whole still measures `seconds`.
  double window_s() const { return trace ? seconds / 2 : seconds; }
};

/// Median over `reps` calls of `setup`, which returns the seconds it
/// spent on its timed part.
template <typename F>
double MedianSetupSeconds(int reps, F&& setup) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) samples.push_back(setup());
  return Median(samples);
}

/// Setup repetitions per run: `setup_s` reports their median.
inline constexpr int kSetupReps = 3;

/// Adds the end-to-end metrics every workload reports (untraced runs).
/// `success_rate` is 1 - error_rate: a metric that is never 0.
void AddEndToEnd(RunReport& report, const Window& window, double setup_s);

/// Per-layer values of one traced run, keyed by metric name. Every
/// workload reports the same metric list: a layer the workload does
/// not exercise (or that no public call exposes on it) reads 0, which
/// is the predicted "no change" cell.
using LayerValues = std::map<std::string, double>;

/// Adds every per-layer metric in its fixed order and unit, taking
/// values from `values` and 0 for names it lacks. Also fills the
/// tracing-overhead metrics from the untraced and traced windows of the
/// same run. Returns false when `values` names an unknown metric.
bool AddLayers(RunReport& report, const LayerValues& values,
               const Window& untraced, const Window& traced,
               double covered_pct);

RunReport RunDecideOutOfCore(const RunSpec& spec, SpanLog& spans);
RunReport RunQueryInMemory(const RunSpec& spec, SpanLog& spans);
RunReport RunServeMixed(const RunSpec& spec, SpanLog& spans);

}  // namespace rstbench

#endif  // RSTBENCH_HARNESS_H_
