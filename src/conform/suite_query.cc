// The query-engine oracle: every plan of the depth family must agree
// with the in-memory reference evaluator on both storage backends and
// at every thread count — verdicts, result relations and per-query
// (r, s) bills bit-identical — and a finished shared scan must leave no
// resident cache blocks or live file storages behind. The differential
// generalizes the parallel-sort oracle one layer up: from one operator
// to whole certified pipelines sharing a single input pass.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "conform/case_id.h"
#include "conform/shrink.h"
#include "conform/suites.h"
#include "extmem/residency.h"
#include "extmem/storage.h"
#include "query/engine/shared_scan.h"
#include "query/relalg.h"
#include "stmodel/st_context.h"
#include "stmodel/tape_io.h"
#include "util/bitstring.h"
#include "util/random.h"

namespace rstlab::conform {

namespace {

using query::engine::QueryOutcome;
using query::engine::QueryRequest;
using query::engine::SharedScanOptions;

/// The depth-d plan family shared with tests/query_engine_test.cc.
query::RelAlgExprPtr PlanForDepth(std::uint64_t depth) {
  using namespace query;  // NOLINT(build/namespaces): expr factories
  switch (depth) {
    case 1:
      return Rel("R1");
    case 2:
      return Difference(Rel("R1"), Rel("R2"));
    case 3:
      return SymmetricDifferenceQuery();
    case 4:
      return Project(Intersection(Union(Rel("R1"), Rel("R2")), Rel("R1")),
                     {0});
    default:
      return Union(Project(Difference(Rel("R1"), Rel("R2")), {0}),
                   Intersection(Rel("R2"), Rel("R1")));
  }
}

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string out;
  for (const auto& f : fields) {
    out += f;
    out += stmodel::kFieldSeparator;
  }
  return out;
}

extmem::StorageOptions FileOptions() {
  extmem::StorageOptions options;
  options.backend = extmem::BackendKind::kFile;
  options.block_size = 64;
  options.cache_blocks = 4;
  options.readahead_blocks = 2;
  return options;
}

Result<QueryOutcome> RunVariant(const std::string& stream,
                                const query::RelAlgExprPtr& plan,
                                const extmem::StorageOptions& storage,
                                std::size_t threads) {
  stmodel::StContext ctx(1, storage);
  ctx.LoadInput(stream);
  SharedScanOptions options;
  options.config.threads = threads;
  Result<std::vector<QueryOutcome>> run =
      query::engine::ExecuteSharedScan(ctx, {QueryRequest{plan, ""}},
                                       options);
  if (!run.ok()) return run.status();
  return std::move(run.value()[0]);
}

/// "" when the engine conforms on (fields, depth): reference identity
/// on mem/1, then bill + result identity for mem/3, file/1 and file/3,
/// then resource-residency hygiene.
std::string CheckQueryCase(const std::vector<std::string>& fields,
                           std::uint64_t depth) {
  const std::uint64_t blocks = extmem::ResidentCacheBlocks();
  const std::uint64_t files = extmem::LiveFileStorages();

  // In-memory reference over the parsed fields.
  std::map<std::string, query::Relation> db;
  db["R1"] = query::Relation{"R1", 1, {}};
  db["R2"] = query::Relation{"R2", 1, {}};
  for (const std::string& field : fields) {
    const std::size_t comma = field.find(',');
    db[field.substr(0, comma)].tuples.push_back({field.substr(comma + 1)});
  }
  const query::RelAlgExprPtr plan = PlanForDepth(depth);
  Result<query::Relation> reference = query::EvaluateInMemory(plan, db);
  if (!reference.ok()) {
    return "reference evaluation failed: " + reference.status().ToString();
  }

  const std::string stream = JoinFields(fields);
  Result<QueryOutcome> baseline =
      RunVariant(stream, plan, extmem::StorageOptions{}, 1);
  if (!baseline.ok() || !baseline.value().status.ok()) {
    return "mem/1-thread run failed: " +
           (baseline.ok() ? baseline.value().status : baseline.status())
               .ToString();
  }
  if (!(baseline.value().result == reference.value())) {
    return "engine result differs from in-memory reference";
  }

  struct Variant {
    const char* label;
    extmem::StorageOptions storage;
    std::size_t threads;
  };
  const Variant variants[] = {{"mem/3-threads", extmem::StorageOptions{}, 3},
                              {"file/1-thread", FileOptions(), 1},
                              {"file/3-threads", FileOptions(), 3}};
  for (const Variant& variant : variants) {
    Result<QueryOutcome> run =
        RunVariant(stream, plan, variant.storage, variant.threads);
    if (!run.ok() || !run.value().status.ok()) {
      return std::string(variant.label) + " run failed: " +
             (run.ok() ? run.value().status : run.status()).ToString();
    }
    QueryOutcome outcome = std::move(run.value());
    // Self-test fault: a phantom reversal on the last variant — the bug
    // a backend- or thread-dependent billing path would introduce.
    if (FaultInjectionEnabled() &&
        std::string(variant.label) == "file/3-threads") {
      outcome.cost.scan_bound += 1;
    }
    if (!(outcome.result == baseline.value().result)) {
      return std::string(variant.label) +
             ": result differs from mem/1-thread";
    }
    if (!outcome.cost.SameBill(baseline.value().cost) ||
        outcome.cost.tuples_out != baseline.value().cost.tuples_out) {
      return std::string(variant.label) + ": (r, s) bill differs: [" +
             outcome.cost.ToString() + "] vs [" +
             baseline.value().cost.ToString() + "]";
    }
  }

  if (extmem::ResidentCacheBlocks() != blocks) {
    return "shared scan left cache blocks resident";
  }
  if (extmem::LiveFileStorages() != files) {
    return "shared scan leaked file storages";
  }
  return "";
}

class QueryEngineSuite final : public Suite {
 public:
  const char* name() const override { return "query-engine"; }
  const char* description() const override {
    return "streaming query plans vs in-memory reference: result and "
           "(r, s) identity across backends and thread counts";
  }

  CaseOutcome RunCase(std::uint64_t seed,
                      std::uint64_t index) const override {
    Rng rng(CaseRngSeed(CaseId{name(), seed, index}));
    const std::uint64_t depth = 1 + index % 5;
    const std::size_t m = rng.UniformBelow(40);
    std::vector<std::string> fields;
    for (std::size_t i = 0; i < m; ++i) {
      // ~half the fields land in each relation; duplicates are frequent
      // at short value lengths, exercising set semantics on a multiset
      // stream.
      const char* rel = rng.Bernoulli(0.5) ? "R1" : "R2";
      fields.push_back(
          std::string(rel) + "," +
          BitString::Random(1 + rng.UniformBelow(8), rng).ToString());
    }

    CaseOutcome outcome;
    std::string failure = CheckQueryCase(fields, depth);
    if (failure.empty()) return outcome;

    const std::function<bool(const std::vector<std::string>&)> still_fails =
        [depth](const std::vector<std::string>& candidate) {
          return !CheckQueryCase(candidate, depth).empty();
        };
    const std::function<std::vector<std::vector<std::string>>(
        const std::vector<std::string>&)>
        candidates = &SequenceRemovalCandidates<std::string>;
    ShrinkStats stats;
    fields = GreedyShrink(std::move(fields), still_fails, candidates,
                          /*max_attempts=*/200, &stats);

    outcome.passed = false;
    outcome.failure = CheckQueryCase(fields, depth);
    outcome.counterexample = JoinFields(fields) +
                             "  (depth=" + std::to_string(depth) +
                             " m=" + std::to_string(fields.size()) + ")";
    outcome.shrink_attempts = stats.attempts;
    return outcome;
  }
};

}  // namespace

std::unique_ptr<Suite> MakeQueryEngineSuite() {
  return std::make_unique<QueryEngineSuite>();
}

}  // namespace rstlab::conform
