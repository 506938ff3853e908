#include "query/engine/shared_scan.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "query/engine/spool.h"

namespace rstlab::query::engine {

namespace {

/// Evaluates one query over the sealed spool. Never throws; every
/// failure path lands in the outcome's status, and the pipeline is
/// Closed on success and failure alike (the lifecycle the extmem
/// residency tests pin).
QueryOutcome RunOne(const QueryRequest& request, const RelationSpool& spool,
                    std::size_t input_size,
                    const extmem::StorageOptions& storage,
                    const SharedScanOptions& options) {
  QueryOutcome outcome;
  outcome.plan = DescribePlan(request.expr);
  check::QueryPlanShape shape =
      AnalyzePlan(request.expr, spool, options.config, options.plan);
  if (options.unique_join_keys) shape.joins_unique_keys = true;
  outcome.certificate = check::CertifyQueryPlan(shape);

  if (options.admit) {
    Status admitted = check::CheckTheorem11Envelope(outcome.certificate);
    if (!admitted.ok()) {
      outcome.status = admitted;
      return outcome;
    }
  }

  CostMeter meter;
  OperatorEnv env{&options.config, &storage, &meter};
  Result<StreamOperatorPtr> built =
      BuildPipeline(request.expr, spool, env, options.plan);
  if (!built.ok()) {
    outcome.status = built.status();
    return outcome;
  }
  StreamOperatorPtr root = std::move(built).value();

  outcome.result.name = request.label.empty() ? "result" : request.label;
  Status run = root->Open();
  if (run.ok()) {
    for (;;) {
      Result<TupleBatch> next = root->Next();
      if (!next.ok()) {
        run = next.status();
        break;
      }
      TupleBatch batch = std::move(next).value();
      meter.CountTuplesOut(batch.tuples.size());
      for (const std::string& field : batch.tuples) {
        Tuple tuple = DecodeTuple(field);
        outcome.result.arity =
            std::max(outcome.result.arity, tuple.size());
        outcome.result.tuples.push_back(std::move(tuple));
      }
      if (batch.at_end) break;
    }
  }
  root->Close();
  outcome.cost = meter.cost();
  if (!run.ok()) {
    outcome.status = run;
    return outcome;
  }
  outcome.result.Normalize();
  outcome.status = check::CheckQueryCostsAgainstCertificate(
      outcome.cost.scan_bound, outcome.cost.internal_bits,
      outcome.certificate, input_size);
  return outcome;
}

void PublishMetrics(obs::MetricsRegistry& metrics,
                    const std::vector<QueryRequest>& queries,
                    const std::vector<QueryOutcome>& outcomes) {
  metrics.Add("query.shared_scans", 1);
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const QueryOutcome& outcome = outcomes[i];
    if (!outcome.status.ok()) {
      ++failed;
      continue;
    }
    std::string label = queries[i].label;
    if (label.empty()) label.append("q").append(std::to_string(i));
    metrics.SetGauge("query." + label + ".scan_bound",
                     static_cast<double>(outcome.cost.scan_bound));
    metrics.SetGauge("query." + label + ".internal_bits",
                     static_cast<double>(outcome.cost.internal_bits));
    metrics.SetGauge("query." + label + ".external_cells",
                     static_cast<double>(outcome.cost.external_cells));
    metrics.SetGauge("query." + label + ".sorts",
                     static_cast<double>(outcome.cost.sorts));
    metrics.SetGauge("query." + label + ".tuples_out",
                     static_cast<double>(outcome.cost.tuples_out));
  }
  metrics.Add("query.executed", outcomes.size() - failed);
  metrics.Add("query.failed", failed);
}

}  // namespace

Result<std::vector<QueryOutcome>> ExecuteSharedScan(
    stmodel::StContext& ctx, const std::vector<QueryRequest>& queries,
    const SharedScanOptions& options) {
  // Phase A: the one shared pass — demultiplex the input into sealed
  // per-relation lanes, billed on the caller's context.
  Result<std::unique_ptr<RelationSpool>> spooled =
      options.xml ? RelationSpool::BuildFromXml(ctx)
                  : RelationSpool::Build(ctx);
  if (!spooled.ok()) return spooled.status();
  const std::unique_ptr<RelationSpool> spool = std::move(spooled).value();

  // Phase B: every query pulls from the sealed lanes; workers only
  // decide scheduling, never results or bills. A one-thread pool runs
  // the queries on this thread, in order.
  std::vector<QueryOutcome> outcomes(queries.size());
  const std::size_t input_size = ctx.input_size();
  const extmem::StorageOptions& storage = ctx.storage_options();
  parallel::ThreadPool pool(std::min(options.config.threads, queries.size()));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    pool.Submit([&, i] {
      outcomes[i] = RunOne(queries[i], *spool, input_size, storage, options);
    });
  }
  pool.Wait();

  if (options.config.metrics != nullptr) {
    PublishMetrics(*options.config.metrics, queries, outcomes);
  }
  return outcomes;
}

}  // namespace rstlab::query::engine
