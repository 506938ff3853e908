#ifndef RSTLAB_SERVE_SERVICE_H_
#define RSTLAB_SERVE_SERVICE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "serve/artifact_cache.h"
#include "serve/request.h"
#include "serve/trace_bridge.h"
#include "sorting/run_options.h"
#include "tape/resource_meter.h"
#include "util/status.h"

namespace rstlab::serve {

/// Trials per batch-engine pass on the fingerprint path. A request
/// holds at most this many parameter lanes at once, whatever its trial
/// count, and its streamed frames go out one group at a time.
inline constexpr std::uint64_t kFingerprintLaneGroup = 64;

/// The outcome of one experiment request. Every field is a pure
/// function of the request payload — no timestamps, thread counts or
/// server identity — which is the whole shard-determinism argument:
/// two servers (or one) given byte-identical requests produce
/// byte-identical result frames, so the serve-shard conformance suite
/// can compare them with strcmp.
struct ExperimentResult {
  std::string request_id;
  std::string problem;
  /// Trials the engine executed (1 for the deterministic problems
  /// regardless of the requested count — re-running a deterministic
  /// decider cannot change the verdict).
  std::uint64_t executed_trials = 0;
  /// Trials that accepted (for the deciders: verdict yes = 1, no = 0).
  std::uint64_t accepts = 0;
  /// Order-sensitive fold of every per-trial observation (params,
  /// verdicts), the serving twin of the bench tally checksum.
  std::uint64_t checksum = 0;
  /// Problem-specific count (xpath-count: selected nodes; claim1:
  /// collision trials).
  std::uint64_t extra = 0;
  /// Measured (r, s, t) bill of the metered tape run, when the problem
  /// has one (deciders always; fingerprint when a budget asks for it).
  std::optional<tape::ResourceReport> report;
  /// Whether the measured bill stayed inside the declared budget
  /// (true when no budget was declared).
  bool budget_ok = true;

  /// The deterministic `{"event":"result",...}` NDJSON frame.
  std::string ToJson() const;
};

/// Executes validated experiment requests against the library: the
/// compute half of the server, separated so the conformance suite and
/// tests can drive it without sockets. Owns no threads — each call
/// runs on the caller's thread (the scheduler provides concurrency)
/// and is deterministic per request payload.
class ExperimentService {
 public:
  /// Uses `cache` for prime pools, parsed instances/XML/queries and
  /// analyzer certificates, and `run` for the storage of decider and
  /// budget contexts, the geometry of their sorts and the lane width of
  /// the batched fingerprint.
  explicit ExperimentService(ArtifactCache& cache,
                             sorting::RunOptions run = {});

  /// Runs one request. `events` (nullable) receives NDJSON progress
  /// frames: per-trial markers when `request.stream` is set. Errors are
  /// named statuses the server maps onto HTTP codes (unknown problem
  /// NotFound -> 404, bad instance InvalidArgument -> 400, ...).
  Result<ExperimentResult> Execute(const ExperimentRequest& request,
                                   NdjsonTraceSink* events = nullptr);

 private:
  ArtifactCache& cache_;
  const sorting::RunOptions run_;
};

}  // namespace rstlab::serve

#endif  // RSTLAB_SERVE_SERVICE_H_
