#ifndef RSTLAB_OBS_FLAGS_H_
#define RSTLAB_OBS_FLAGS_H_

#include <memory>
#include <ostream>
#include <string>

#include "obs/jsonl_sink.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rstlab::obs {

/// Observability options shared by every bench binary: the values of
/// its `--trace=FILE` and `--metrics` flags.
struct ObsOptions {
  /// Destination for the JSON-lines trace (empty = no trace file).
  std::string trace_path;
  /// Whether to tally trace-derived metrics and print/record them.
  bool metrics = false;
};

/// Owns a bench binary's observability plumbing for one invocation:
/// the JSON-lines exporter behind `--trace=FILE`, the metrics registry
/// behind `--metrics`, and the run begin/end markers. With neither flag
/// given, `sink()` is nullptr and every emitter stays on its null-sink
/// fast path.
class ObsSession {
 public:
  /// Builds the sink chain for `options` and emits the kRunBegin
  /// marker labelled `bench_name`.
  ObsSession(const ObsOptions& options, std::string bench_name);

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// The sink to install on runners/contexts, or nullptr when the
  /// invocation is untraced.
  TraceSink* sink();

  /// The metrics registry, or nullptr unless `--metrics` was given.
  MetricsRegistry* metrics();

  /// True iff `--trace=FILE` was given (whether or not it opened).
  bool tracing() const { return jsonl_ != nullptr; }

  /// Emits the kRunEnd marker, flushes the trace file, and prints the
  /// metrics summary (when enabled) plus the trace destination to `os`.
  void Finish(std::ostream& os);

 private:
  std::string bench_name_;
  std::unique_ptr<JsonlSink> jsonl_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<CountingSink> counting_;
  bool finished_ = false;
};

}  // namespace rstlab::obs

#endif  // RSTLAB_OBS_FLAGS_H_
