// query-inmemory: one shared-scan pass of three Theorem 11 plans over a
// relation pair on the in-memory backend. The spool, the pull operators
// and their spill-lane sorts do the work; there is no block I/O and no
// socket.

#include <memory>
#include <string>
#include <vector>

#include "check/query_certificate.h"
#include "harness.h"
#include "query/engine/plan.h"
#include "query/engine/shared_scan.h"
#include "query/engine/spool.h"
#include "query/relalg.h"
#include "query/workload.h"
#include "relation_pair.h"
#include "stmodel/st_context.h"

namespace rstbench {

namespace engine = rstlab::query::engine;

RunReport RunQueryInMemory(const RunSpec& spec, SpanLog& spans) {
  // 16384 tuples per side of 24-bit values, 1/8 of R2 perturbed:
  // N ~ 0.9M cells.
  const std::size_t tuples = spec.smoke ? 512 : 16384;
  const std::size_t value_len = 24;
  const std::size_t k = tuples / 8;
  RunReport report;

  // The linear generator must reproduce the library's stream; check it
  // where the library's quadratic generator is still cheap.
  {
    rstlab::query::RelationPairSpec library;
    library.seed = spec.seed;
    library.num_tuples = 1024;
    library.value_len = value_len;
    library.perturbations = 128;
    report.Check(rstlab::query::MakeRelationPair(library).stream ==
                 RelationPairStream(spec.seed, 1024, value_len, 128));
  }
  const std::string stream =
      RelationPairStream(spec.seed, tuples, value_len, k);

  using rstlab::query::Rel;
  const std::vector<engine::QueryRequest> queries = {
      {rstlab::query::SymmetricDifferenceQuery(), "symdiff"},
      {rstlab::query::Difference(Rel("R1"), Rel("R2")), "r1_minus_r2"},
      {rstlab::query::Union(Rel("R1"), Rel("R2")), "union"},
  };
  const std::vector<std::size_t> expected_sizes = {2 * k, k, tuples + k};
  engine::SharedScanOptions options;
  options.config.threads = 2;
  const rstlab::extmem::StorageOptions mem;  // in-memory backend

  // Bills of the first run; every later run must match them exactly.
  std::vector<engine::QueryCost> pinned;
  rstlab::tape::ResourceReport input_bill;
  rstlab::extmem::IoStats input_io;
  auto op = [&](std::uint64_t i, SpanLog& log) {
    const std::int64_t root = log.Begin("query.op", i);
    std::int64_t span = log.Begin("stmodel.load_input", i, root);
    auto ctx = std::make_unique<rstlab::stmodel::StContext>(1, mem);
    ctx->LoadInput(stream);
    log.End(span);
    bool ok = true;
    {
      span = log.Begin("query.shared_scan", i, root);
      const rstlab::Result<std::vector<engine::QueryOutcome>> outcomes =
          engine::ExecuteSharedScan(*ctx, queries, options);
      log.End(span);
      ok = outcomes.ok() && outcomes.value().size() == queries.size();
      const bool pin = ok && pinned.empty();
      for (std::size_t q = 0; ok && q < queries.size(); ++q) {
        const engine::QueryOutcome& outcome = outcomes.value()[q];
        ok = outcome.status.ok() &&
             outcome.result.tuples.size() == expected_sizes[q];
        if (pin) pinned.push_back(outcome.cost);
        ok = ok && outcome.cost.SameBill(pinned[q]) &&
             outcome.cost.tuples_out == pinned[q].tuples_out;
      }
      const rstlab::tape::ResourceReport bill = ctx->Report();
      if (pin) {
        input_bill = bill;
        input_io = ctx->IoStatsTotal();
      }
      ok = ok && bill.scan_bound == input_bill.scan_bound &&
           bill.internal_space == input_bill.internal_space;
      span = log.Begin("query.release", i, root);
    }  // results freed inside the release span
    ctx.reset();
    log.End(span);
    log.End(root);
    return ok;
  };

  SpanLog off(false);
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    const Clock::time_point start = Clock::now();
    report.Check(op(0, off));
    return MsSince(start) / 1e3;
  });
  const Window untraced = RunClosedLoop(spec.window_s(), 1, off, report, op);
  if (!spec.trace) {
    AddEndToEnd(report, untraced, setup_s);
    return report;
  }
  const Window traced = RunClosedLoop(spec.window_s(), 1, spans, report, op);

  // The spool alone, and the plan certificates alone, on the same input.
  std::vector<double> spool_ms;
  std::vector<double> certify_us;
  for (int rep = 0; rep < 3; ++rep) {
    rstlab::stmodel::StContext ctx(1, mem);
    ctx.LoadInput(stream);
    Clock::time_point start = Clock::now();
    auto spool = engine::RelationSpool::Build(ctx);
    spool_ms.push_back(MsSince(start));
    report.Check(spool.ok());
    if (!spool.ok()) break;
    start = Clock::now();
    for (const engine::QueryRequest& query : queries) {
      const rstlab::check::QueryCertificate cert =
          rstlab::check::CertifyQueryPlan(engine::AnalyzePlan(
              query.expr, *spool.value(), options.config, options.plan));
      report.Check(!cert.scan_bound.unbounded());
    }
    certify_us.push_back(MsSince(start) * 1e3);
  }

  // One relation's values through the sorting layer: the spill-lane
  // sorts under the operators sort lanes of this shape.
  std::vector<std::string> r1_values;
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t end = stream.find('#', at);
    if (stream.compare(at, 3, "R1,") == 0) {
      r1_values.push_back(stream.substr(at + 3, end - at - 3));
    }
    at = end + 1;
  }
  const HalfSort sort = SortOneHalf(r1_values, mem, report);

  double scans = 0, bits = 0, sorts = 0, tuples_out = 0;
  for (const engine::QueryCost& cost : pinned) {
    scans += static_cast<double>(cost.scan_bound);
    bits += static_cast<double>(cost.internal_bits);
    sorts += static_cast<double>(cost.sorts);
    tuples_out += static_cast<double>(cost.tuples_out);
  }
  const double shared_scan_ms = Median(spans.DurationsMs("query.shared_scan"));
  const double hit_lookups =
      static_cast<double>(input_io.cache_hits + input_io.cache_misses);
  const LayerValues layers = {
      {"stmodel.load_input_ms",
       Median(spans.DurationsMs("stmodel.load_input"))},
      {"sorting.sort_ms", sort.ms},
      {"sorting.passes", static_cast<double>(sort.passes)},
      {"tape.scans", static_cast<double>(input_bill.scan_bound)},
      {"tape.internal_bits", static_cast<double>(input_bill.internal_space)},
      {"extmem.block_reads", static_cast<double>(input_io.block_reads)},
      {"extmem.block_writes", static_cast<double>(input_io.block_writes)},
      {"extmem.blocks_per_mcell",
       Ratio(static_cast<double>(input_io.block_reads + input_io.block_writes),
             static_cast<double>(stream.size()) / 1e6)},
      {"extmem.cache_hit_rate",
       Ratio(static_cast<double>(input_io.cache_hits), hit_lookups)},
      {"extmem.readahead_hit_rate",
       Ratio(static_cast<double>(input_io.readahead_hits),
             static_cast<double>(input_io.readahead_blocks))},
      {"extmem.prefetch_hit_rate",
       Ratio(static_cast<double>(input_io.prefetch_hits),
             static_cast<double>(input_io.prefetch_issued))},
      {"extmem.evictions", static_cast<double>(input_io.evictions)},
      {"query.shared_scan_ms", shared_scan_ms},
      {"query.spool_build_ms", Median(spool_ms)},
      {"query.pipelines_ms", shared_scan_ms - Median(spool_ms)},
      {"check.certify_plan_us", Median(certify_us)},
      {"query.scans", scans},
      {"query.internal_bits", bits},
      {"query.sorts", sorts},
      {"query.tuples_out", tuples_out},
  };
  if (!AddLayers(report, layers, untraced, traced,
                 CoveredPct(spans, "query.op"))) {
    report.Check(false);
  }
  return report;
}

}  // namespace rstbench
