#ifndef RSTLAB_PARALLEL_BENCH_RECORDER_H_
#define RSTLAB_PARALLEL_BENCH_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace rstlab::parallel {

/// One trial-engine measurement: an experiment's Monte-Carlo loop timed
/// end to end, plus a tally checksum so runs at different thread counts
/// can be compared for bit-identical results straight from the JSON.
struct TrialBenchEntry {
  std::string bench;        // binary name, e.g. "bench_fingerprint"
  std::string experiment;   // loop label, e.g. "E1.m=1024"
  std::size_t threads = 0;  // thread count the loop ran with
  std::uint64_t trials = 0;
  double wall_seconds = 0.0;
  double trials_per_sec = 0.0;  // trials / wall_seconds
  std::uint64_t tally_checksum = 0;
  /// Pre-rendered `{"name":value,...}` snapshot of the binary's metrics
  /// registry at record time; empty (and omitted from the JSON row)
  /// unless the binary ran with `--metrics`.
  std::string metrics_json;
};

/// Accumulates TrialBenchEntry rows for one bench binary and writes them
/// to the file the RSTLAB_BENCH_JSON environment variable names, and to
/// no file when it is unset or empty (so a bench run from the
/// repository root never replaces the committed `BENCH_trials.json`).
///
/// The file is a JSON array with one object per line. Write() merges:
/// entries from *other* bench binaries already in the file are kept,
/// this binary's previous entries are replaced — so running the bench
/// suite in any order converges to one complete snapshot, and the perf
/// trajectory can be tracked by committing the file. The merge is
/// crash- and race-safe: the new file is assembled in a temp file next
/// to the target and atomically rename()d over it, so a reader (or a
/// concurrently-writing sibling binary) always sees a complete file.
class BenchRecorder {
 public:
  BenchRecorder(std::string bench_name, std::size_t threads);

  /// Records one timed Monte-Carlo loop. When a metrics registry is
  /// attached, the row also captures its snapshot at this moment
  /// (cumulative totals for the binary so far).
  void Record(const std::string& experiment, std::uint64_t trials,
              double wall_seconds, std::uint64_t tally_checksum);

  /// Attaches the `--metrics` registry whose snapshots Record() folds
  /// into subsequent rows (nullptr detaches; not owned).
  void set_metrics(const obs::MetricsRegistry* registry) {
    metrics_ = registry;
  }

  const std::vector<TrialBenchEntry>& entries() const { return entries_; }

  /// Merges this binary's entries into the JSON file and returns the
  /// path written. Fails with FailedPrecondition, creating no file, when
  /// RSTLAB_BENCH_JSON is unset or empty, and with Internal when the
  /// file cannot be written.
  Result<std::string> Write() const;

  /// The output path Write() will use: RSTLAB_BENCH_JSON, or empty.
  static std::string OutputPath();

 private:
  std::string bench_name_;
  std::size_t threads_;
  std::vector<TrialBenchEntry> entries_;
  const obs::MetricsRegistry* metrics_ = nullptr;
};

/// Formats one entry as a single-line JSON object.
std::string FormatTrialBenchEntry(const TrialBenchEntry& entry);

/// Order-sensitive 64-bit mix of a tally's integer fields, recorded as
/// `tally_checksum` so bit-identity across thread counts is visible in
/// the JSON (splitmix64-style finalizer per value).
std::uint64_t Checksum64(std::initializer_list<std::uint64_t> values);

}  // namespace rstlab::parallel

#endif  // RSTLAB_PARALLEL_BENCH_RECORDER_H_
