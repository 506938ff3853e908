#ifndef RSTLAB_QUERY_ENGINE_PLAN_H_
#define RSTLAB_QUERY_ENGINE_PLAN_H_

#include <cstddef>
#include <string>

#include "check/query_certificate.h"
#include "query/engine/operator.h"
#include "query/engine/spool.h"
#include "query/relalg.h"
#include "util/status.h"

namespace rstlab::query::engine {

/// Plan compiler knobs.
struct PlanOptions {
  /// Rewrite σ_{col=col}(A × B) chains with cross-side conditions into
  /// sort-based merge joins (the engine's join operator). Off = keep
  /// the Theorem 11 doubling product followed by selections.
  bool merge_join = true;
};

/// The attribute count of `expr`'s output tuples, derived from the
/// spool's lane arities (0 for streams over empty relations — harmless,
/// every operator over them is empty).
std::size_t StaticArity(const RelAlgExprPtr& expr,
                        const RelationSpool& spool);

/// Compiles `expr` into a pull pipeline over `spool`'s lanes:
/// leaves scan lanes, unions/projections sort-and-dedup on spill lanes,
/// difference/intersection merge two sorted streams, products run the
/// Theorem 11 doubling construction, and (with opts.merge_join)
/// selection-over-product chains whose conditions bridge the two sides
/// become sort-based merge joins. The returned operator is unopened;
/// the caller drives Open/Next*/Close and owns `env`'s pointees.
Result<StreamOperatorPtr> BuildPipeline(const RelAlgExprPtr& expr,
                                        const RelationSpool& spool,
                                        OperatorEnv env,
                                        const PlanOptions& opts = {});

/// The certificate-relevant shape of the pipeline BuildPipeline would
/// compile for `expr` — same traversal, no operators built. Feed to
/// check::CertifyQueryPlan for the pre-execution admission gate.
check::QueryPlanShape AnalyzePlan(const RelAlgExprPtr& expr,
                                  const RelationSpool& spool,
                                  const EngineConfig& config,
                                  const PlanOptions& opts = {});

/// One-line plan rendering, e.g. "((R1 - R2) + (R2 - R1))".
std::string DescribePlan(const RelAlgExprPtr& expr);

}  // namespace rstlab::query::engine

#endif  // RSTLAB_QUERY_ENGINE_PLAN_H_
