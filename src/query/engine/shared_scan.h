#ifndef RSTLAB_QUERY_ENGINE_SHARED_SCAN_H_
#define RSTLAB_QUERY_ENGINE_SHARED_SCAN_H_

#include <string>
#include <vector>

#include "check/query_certificate.h"
#include "query/engine/operator.h"
#include "query/engine/plan.h"
#include "query/relation.h"
#include "stmodel/st_context.h"
#include "util/status.h"

namespace rstlab::query::engine {

/// One query registered for a shared-scan pass.
struct QueryRequest {
  RelAlgExprPtr expr;
  /// Metrics label; "q<index>" when empty.
  std::string label;
};

/// One query's evaluation record.
struct QueryOutcome {
  /// Per-query failure (admission rejection, engine fault, RST015
  /// post-check). The other fields are meaningful only when OK —
  /// except `plan` and `certificate`, which are always filled.
  Status status = Status::OK();
  /// Normalized result relation.
  Relation result;
  /// The per-query (r, s) bill (excludes the shared input pass, which
  /// is billed once on the caller's context).
  QueryCost cost;
  /// DescribePlan rendering.
  std::string plan;
  /// The pre-execution plan certificate.
  check::QueryCertificate certificate;
};

/// Executor policy.
struct SharedScanOptions {
  EngineConfig config;
  PlanOptions plan;
  /// Parse tape 0 as a Section 4 XML document (lanes "set1"/"set2")
  /// instead of a Theorem 11 tuple stream.
  bool xml = false;
  /// Upgrade every certificate with the promise that join build keys
  /// are unique (see check::QueryPlanShape::joins_unique_keys).
  bool unique_join_keys = false;
  /// Pre-execution RST018 admission gate: reject plans whose certified
  /// bounds escape `check::kTheorem11Envelope` before running them.
  bool admit = false;
};

/// Evaluates every registered query against the input on tape 0 of
/// `ctx` with ONE pass over the input: the pass demultiplexes the
/// stream into per-relation spool lanes (billed on `ctx`), then all
/// queries run over the immutable lanes — on `config.threads` workers,
/// or on the calling thread when that is one — each with its own
/// pipeline, scratch lanes and deterministic CostMeter. Every query's
/// measured bill is then checked against its certificate (RST015).
/// Results, bills and certificates are bit-identical across thread
/// counts, storage backends and co-registered queries; the conform
/// suite pins exactly that.
///
/// Fails as a whole only when the input itself is malformed (spool
/// build failure); per-query failures land in the outcome's status.
/// When `config.metrics` is set, per-query bills are published as
/// query.<label>.* gauges plus query.executed / query.failed counters.
Result<std::vector<QueryOutcome>> ExecuteSharedScan(
    stmodel::StContext& ctx, const std::vector<QueryRequest>& queries,
    const SharedScanOptions& options);

}  // namespace rstlab::query::engine

#endif  // RSTLAB_QUERY_ENGINE_SHARED_SCAN_H_
