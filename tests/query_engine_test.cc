#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/query_certificate.h"
#include "conform/harness.h"
#include "extmem/counting_storage.h"
#include "extmem/residency.h"
#include "extmem/storage.h"
#include "query/engine/operators.h"
#include "query/engine/plan.h"
#include "query/engine/shared_scan.h"
#include "query/engine/spool.h"
#include "query/relalg.h"
#include "query/workload.h"
#include "query/xml_events.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "tape/tape.h"

namespace rstlab::query::engine {
namespace {

extmem::StorageOptions MemOptions() { return extmem::StorageOptions{}; }

extmem::StorageOptions FileOptions() {
  extmem::StorageOptions options;
  options.backend = extmem::BackendKind::kFile;
  options.block_size = 64;
  options.cache_blocks = 4;
  options.readahead_blocks = 2;
  return options;
}

/// The depth-d expression family of the property matrix (arity-1
/// relations R1, R2).
RelAlgExprPtr ExprForDepth(int depth) {
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

Result<std::vector<QueryOutcome>> RunEngine(
    const std::string& stream, const std::vector<RelAlgExprPtr>& exprs,
    const extmem::StorageOptions& storage, std::size_t threads,
    SharedScanOptions options = {}) {
  stmodel::StContext ctx(1, storage);
  ctx.LoadInput(stream);
  options.config.threads = threads;
  std::vector<QueryRequest> requests;
  requests.reserve(exprs.size());
  for (const RelAlgExprPtr& expr : exprs) requests.push_back({expr, ""});
  return ExecuteSharedScan(ctx, requests, options);
}

// ---------------------------------------------------------------------
// Property matrix: depth x backend x threads x N, engine vs reference
// ---------------------------------------------------------------------

TEST(QueryEngineProperty, MatrixMatchesReferenceBitIdentically) {
  const std::size_t seeds = conform::EnvTestCases(3);
  for (std::size_t seed = 1; seed <= seeds; ++seed) {
    for (int depth = 1; depth <= 5; ++depth) {
      RelationPairSpec spec;
      spec.seed = seed * 977 + static_cast<std::uint64_t>(depth);
      spec.num_tuples = 1 + seed * 5 + static_cast<std::size_t>(depth);
      spec.value_len = 6;
      spec.perturbations = (seed + static_cast<std::size_t>(depth)) % 3;
      spec.skew_duplicates = depth % 2 == 0;
      const RelationPairWorkload workload = MakeRelationPair(spec);
      const RelAlgExprPtr expr = ExprForDepth(depth);

      Result<Relation> reference =
          EvaluateInMemory(expr, workload.database);
      ASSERT_TRUE(reference.ok()) << reference.status().message();

      Result<std::vector<QueryOutcome>> baseline =
          RunEngine(workload.stream, {expr}, MemOptions(), 1);
      ASSERT_TRUE(baseline.ok()) << baseline.status().message();
      const QueryOutcome& base = baseline.value()[0];
      ASSERT_TRUE(base.status.ok())
          << "depth " << depth << ": " << base.status.message();
      EXPECT_TRUE(base.result == reference.value())
          << "depth " << depth << " plan " << base.plan;

      // Backend and thread variants: verdicts, result multisets and
      // (r, s) bills must be bit-identical to the mem/1-thread run.
      struct Variant {
        extmem::StorageOptions storage;
        std::size_t threads;
      };
      const Variant variants[] = {{MemOptions(), 2},
                                  {MemOptions(), 4},
                                  {FileOptions(), 1},
                                  {FileOptions(), 2},
                                  {FileOptions(), 4}};
      for (const Variant& variant : variants) {
        Result<std::vector<QueryOutcome>> run = RunEngine(
            workload.stream, {expr}, variant.storage, variant.threads);
        ASSERT_TRUE(run.ok()) << run.status().message();
        const QueryOutcome& outcome = run.value()[0];
        ASSERT_TRUE(outcome.status.ok()) << outcome.status.message();
        EXPECT_TRUE(outcome.result == base.result);
        EXPECT_TRUE(outcome.cost.SameBill(base.cost))
            << "depth " << depth << ": " << outcome.cost.ToString()
            << " vs " << base.cost.ToString();
        EXPECT_EQ(outcome.cost.tuples_out, base.cost.tuples_out);
      }
    }
  }
}

TEST(QueryEngineProperty, SymmetricDifferenceSweepStaysCertified) {
  // N sweep: exact symmetric-difference sizes and in-certificate bills
  // at growing input sizes (the Theorem 11 upper-bound shape), at the
  // default sort geometry and at one-field runs, where every sort makes
  // ceil(log_k m) merge passes against the certificate's
  // floor(log2 k)-scaled charge.
  sorting::SortConfig eight_way = sorting::kPaperSortConfig;
  eight_way.fanout = 8;
  for (const sorting::SortConfig& sort :
       {sorting::SortConfig{}, sorting::kPaperSortConfig, eight_way}) {
    for (const std::size_t n : {4u, 16u, 64u, 256u}) {
      SCOPED_TRACE("fanout " + std::to_string(sort.fanout) + " L " +
                   std::to_string(sort.run_length) + " tuples " +
                   std::to_string(n));
      RelationPairSpec spec;
      spec.seed = 41 + n;
      spec.num_tuples = n;
      spec.value_len = 10;
      spec.perturbations = n / 4;
      const RelationPairWorkload workload = MakeRelationPair(spec);

      SharedScanOptions options;
      options.config.sort = sort;
      Result<std::vector<QueryOutcome>> run =
          RunEngine(workload.stream, {SymmetricDifferenceQuery()},
                    MemOptions(), 1, options);
      ASSERT_TRUE(run.ok());
      const QueryOutcome& outcome = run.value()[0];
      // Every run is post-checked: a bill outside the plan certificate
      // would have surfaced as RST015 in the status.
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.message();
      EXPECT_EQ(outcome.result.tuples.size(),
                workload.symmetric_difference);
      EXPECT_TRUE(check::WithinLogScanClass(outcome.certificate));
    }
  }
}

TEST(QueryEngineProperty, SharedScanManyQueriesOneVsManyThreads) {
  RelationPairSpec spec;
  spec.seed = 7;
  spec.num_tuples = 24;
  spec.value_len = 8;
  spec.perturbations = 3;
  spec.skew_duplicates = true;
  const RelationPairWorkload workload = MakeRelationPair(spec);
  std::vector<RelAlgExprPtr> exprs;
  for (int depth = 1; depth <= 5; ++depth) {
    exprs.push_back(ExprForDepth(depth));
  }
  exprs.push_back(Intersection(Rel("R1"), Rel("R2")));

  Result<std::vector<QueryOutcome>> serial =
      RunEngine(workload.stream, exprs, FileOptions(), 1);
  Result<std::vector<QueryOutcome>> parallel =
      RunEngine(workload.stream, exprs, FileOptions(), 4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial.value().size(), exprs.size());
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    const QueryOutcome& a = serial.value()[i];
    const QueryOutcome& b = parallel.value()[i];
    ASSERT_TRUE(a.status.ok()) << a.status.message();
    ASSERT_TRUE(b.status.ok()) << b.status.message();
    EXPECT_TRUE(a.result == b.result) << "query " << i;
    EXPECT_TRUE(a.cost.SameBill(b.cost))
        << "query " << i << ": " << a.cost.ToString() << " vs "
        << b.cost.ToString();
  }
}

// ---------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------

TEST(QueryEngineEdge, EmptyRelationAndSingleTuple) {
  // R2 never appears in the stream: an empty relation, not an error.
  const std::string stream = "R1,0110#";
  for (const auto& storage : {MemOptions(), FileOptions()}) {
    Result<std::vector<QueryOutcome>> run = RunEngine(
        stream,
        {Difference(Rel("R1"), Rel("R2")),
         Intersection(Rel("R1"), Rel("R2")), Union(Rel("R1"), Rel("R2")),
         Rel("R2")},
        storage, 1);
    ASSERT_TRUE(run.ok());
    const std::vector<QueryOutcome>& outcomes = run.value();
    for (const QueryOutcome& outcome : outcomes) {
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.message();
    }
    EXPECT_EQ(outcomes[0].result.tuples,
              (std::vector<Tuple>{{"0110"}}));  // R1 - {} = R1
    EXPECT_TRUE(outcomes[1].result.tuples.empty());
    EXPECT_EQ(outcomes[2].result.tuples.size(), 1u);
    EXPECT_TRUE(outcomes[3].result.tuples.empty());
  }
}

TEST(QueryEngineEdge, PairDifferingInExactlyOneElement) {
  RelationPairSpec spec;
  spec.seed = 13;
  spec.num_tuples = 32;
  spec.value_len = 8;
  spec.perturbations = 1;
  const RelationPairWorkload workload = MakeRelationPair(spec);
  ASSERT_EQ(workload.symmetric_difference, 2u);
  Result<std::vector<QueryOutcome>> run = RunEngine(
      workload.stream, {SymmetricDifferenceQuery()}, FileOptions(), 1);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run.value()[0].status.ok());
  EXPECT_EQ(run.value()[0].result.tuples.size(), 2u);
}

// A one-attribute tuple holding the empty string is encoded "R2,#": an
// empty payload is still a tuple, and the engine must see it as the
// oracle does.
TEST(QueryEngineEdge, EmptyStringTuplesMatchReference) {
  std::map<std::string, Relation> db;
  for (const char* name : {"R1", "R2"}) {
    db[name].name = name;
    db[name].arity = 1;
  }
  db["R1"].tuples = {{"0"}, {""}};
  db["R2"].tuples = {{""}};
  const std::string stream = EncodeDatabaseStream(db);
  ASSERT_EQ(stream, "R1,0#R1,#R2,#");
  const std::vector<RelAlgExprPtr> exprs = {
      Union(Rel("R1"), Rel("R2")), Difference(Rel("R1"), Rel("R2")),
      Intersection(Rel("R1"), Rel("R2")), SymmetricDifferenceQuery(),
      Rel("R2")};
  for (const auto& storage : {MemOptions(), FileOptions()}) {
    Result<std::vector<QueryOutcome>> run =
        RunEngine(stream, exprs, storage, 1);
    ASSERT_TRUE(run.ok()) << run.status().message();
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      const QueryOutcome& outcome = run.value()[i];
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.message();
      Result<Relation> reference = EvaluateInMemory(exprs[i], db);
      ASSERT_TRUE(reference.ok()) << reference.status().message();
      EXPECT_TRUE(outcome.result == reference.value())
          << "plan " << outcome.plan << ": "
          << outcome.result.tuples.size() << " tuple(s), reference "
          << reference.value().tuples.size();
    }
  }
}

std::map<std::string, Relation> DupKeyDatabase(std::size_t n) {
  std::map<std::string, Relation> db;
  for (const char* name : {"R1", "R2"}) {
    Relation r;
    r.name = name;
    r.arity = 2;
    for (std::size_t i = 0; i < n; ++i) {
      std::string v;
      for (std::size_t b = 0; b < 4; ++b) v += ((i >> b) & 1) ? '1' : '0';
      // Column 1 is constant: every join key collides.
      r.tuples.push_back({v + (name[1] == '2' ? "1" : ""), "0"});
    }
    db[name] = r;
  }
  return db;
}

TEST(QueryEngineEdge, JoinWithAllDuplicateKeysMatchesReference) {
  const std::map<std::string, Relation> db = DupKeyDatabase(6);
  // Join on the all-equal column: every pair matches, the buffered
  // B-group is the whole relation.
  const RelAlgExprPtr join =
      EquiJoin(Rel("R1"), Rel("R2"), 2, {{1, 1}});
  Result<Relation> reference = EvaluateInMemory(join, db);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference.value().tuples.size(), 36u);
  for (const auto& storage : {MemOptions(), FileOptions()}) {
    Result<std::vector<QueryOutcome>> run =
        RunEngine(EncodeDatabaseStream(db), {join}, storage, 1);
    ASSERT_TRUE(run.ok());
    ASSERT_TRUE(run.value()[0].status.ok())
        << run.value()[0].status.message();
    EXPECT_TRUE(run.value()[0].result == reference.value());
  }
}

TEST(QueryEngineEdge, JoinOnUniqueKeyMatchesReferenceAndProductFallback) {
  RelationPairSpec spec;
  spec.seed = 23;
  spec.num_tuples = 12;
  spec.arity = 2;
  spec.value_len = 6;
  spec.perturbations = 4;
  const RelationPairWorkload workload = MakeRelationPair(spec);
  const RelAlgExprPtr join =
      EquiJoin(Rel("R1"), Rel("R2"), 2, {{0, 0}});
  Result<Relation> reference = EvaluateInMemory(join, workload.database);
  ASSERT_TRUE(reference.ok());

  Result<std::vector<QueryOutcome>> merged =
      RunEngine(workload.stream, {join}, MemOptions(), 1);
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(merged.value()[0].status.ok())
      << merged.value()[0].status.message();
  EXPECT_TRUE(merged.value()[0].result == reference.value());

  // With the join rewrite disabled the same query runs through the
  // doubling product — same result, different (certified) plan.
  SharedScanOptions options;
  options.plan.merge_join = false;
  Result<std::vector<QueryOutcome>> product =
      RunEngine(workload.stream, {join}, MemOptions(), 1, options);
  ASSERT_TRUE(product.ok());
  ASSERT_TRUE(product.value()[0].status.ok())
      << product.value()[0].status.message();
  EXPECT_TRUE(product.value()[0].result == reference.value());
}

// ---------------------------------------------------------------------
// XML: the engine behind the Theorem 12/13 verdicts
// ---------------------------------------------------------------------

/// The two XML queries as engine plans over the BuildFromXml lanes.
std::vector<RelAlgExprPtr> XmlQueries() {
  return {Difference(Rel("set1"), Rel("set2")),       // XPath core
          SymmetricDifferenceQuery("set1", "set2")};  // XQuery core
}

void CheckXmlWorkload(const XmlWorkloadSpec& spec) {
  const XmlWorkload workload = MakeXmlWorkload(spec);
  // The generator's exact ground truth: |set1 - set2| follows from the
  // set sizes and the symmetric difference.
  const std::size_t common = (workload.set1_count + workload.set2_count -
                              workload.symmetric_difference) /
                             2;
  const std::size_t set1_only = workload.set1_count - common;

  for (const auto& storage : {MemOptions(), FileOptions()}) {
    SharedScanOptions options;
    options.xml = true;
    Result<std::vector<QueryOutcome>> run =
        RunEngine(workload.document, XmlQueries(), storage, 2, options);
    ASSERT_TRUE(run.ok()) << run.status().message();
    const QueryOutcome& diff = run.value()[0];
    const QueryOutcome& symdiff = run.value()[1];
    ASSERT_TRUE(diff.status.ok()) << diff.status.message();
    ASSERT_TRUE(symdiff.status.ok()) << symdiff.status.message();
    // XPath: some set1 value missing from set2.
    EXPECT_EQ(diff.result.tuples.size(), set1_only);
    // XQuery: sets equal iff the symmetric difference is empty.
    EXPECT_EQ(symdiff.result.tuples.empty(), workload.sets_equal);
    EXPECT_EQ(symdiff.result.tuples.size(),
              workload.symmetric_difference);
  }
}

TEST(QueryEngineXml, DeepNestingDocument) {
  XmlWorkloadSpec spec;
  spec.seed = 3;
  spec.set1_values = 12;
  spec.set2_values = 12;
  spec.value_len = 8;
  spec.nesting_depth = 12;
  spec.perturbations = 2;
  CheckXmlWorkload(spec);
}

TEST(QueryEngineXml, SkewedFanoutAndOneGiantRoot) {
  // One giant root child: set1 carries essentially the whole document.
  XmlWorkloadSpec spec;
  spec.seed = 5;
  spec.set1_values = 300;
  spec.set2_values = 1;
  spec.value_len = 10;
  spec.nesting_depth = 2;
  spec.perturbations = 1;
  CheckXmlWorkload(spec);
}

TEST(QueryEngineXml, EqualSetsDocument) {
  XmlWorkloadSpec spec;
  spec.seed = 9;
  spec.set1_values = 20;
  spec.set2_values = 20;
  spec.value_len = 8;
  spec.perturbations = 0;
  CheckXmlWorkload(spec);
}

// ---------------------------------------------------------------------
// Regression pin: the tokenizer reads each input cell exactly once
// ---------------------------------------------------------------------

TEST(XmlEventReaderRegression, ReadsEachCellExactlyOnce) {
  // The pre-PR-10 scanner re-read cells up to three times per tag (one
  // probe per alternative). The event reader's single-read + pushback
  // loop is pinned here: a full event walk costs exactly
  // document-length reads plus the one terminating blank probe.
  XmlWorkloadSpec spec;
  spec.seed = 11;
  spec.set1_values = 9;
  spec.set2_values = 7;
  spec.value_len = 12;
  spec.nesting_depth = 3;
  spec.perturbations = 2;
  const XmlWorkload workload = MakeXmlWorkload(spec);

  auto storage =
      std::make_unique<extmem::CountingStorage>(workload.document);
  extmem::CountingStorage* counter = storage.get();
  tape::Tape t(std::move(storage));
  stmodel::StContext meter(1);  // arena donor for the reader's buffer
  XmlEventReader reader(t, meter.arena());
  std::size_t strings = 0;
  for (;;) {
    Result<XmlEvent> event = reader.Next();
    ASSERT_TRUE(event.ok()) << event.status().message();
    if (event.value().kind == XmlEventKind::kEndOfInput) break;
    if (event.value().kind == XmlEventKind::kEndTag &&
        event.value().content == "string") {
      ++strings;
    }
  }
  EXPECT_EQ(strings, spec.set1_values + spec.set2_values);
  EXPECT_EQ(counter->reads, workload.document.size() + 1);
}

// ---------------------------------------------------------------------
// Regression pin: the spool's input pass bills its field buffer
// ---------------------------------------------------------------------

TEST(RelationSpoolBill, InputPassBillsItsFieldBuffer) {
  // Build holds one "name,v1,v2,..." field at a time, metered like the
  // XML event reader's buffer: 8 bits per character of the longest
  // field, plus one. The shared input pass is one scan with exactly
  // that internal bill.
  RelationPairSpec spec;
  spec.seed = 7;
  spec.num_tuples = 8;
  spec.arity = 2;
  spec.value_len = 6;
  spec.perturbations = 2;  // perturbed tuples are one character longer
  const RelationPairWorkload workload = MakeRelationPair(spec);
  std::size_t longest = 0;
  for (std::size_t start = 0, end = workload.stream.find('#');
       end != std::string::npos;
       start = end + 1, end = workload.stream.find('#', start)) {
    longest = std::max(longest, end - start);
  }
  ASSERT_GT(longest, 0u);

  stmodel::StContext ctx(1);
  ctx.LoadInput(workload.stream);
  ASSERT_TRUE(RelationSpool::Build(ctx).ok());
  EXPECT_EQ(ctx.Report().scan_bound, 1u);
  EXPECT_EQ(ctx.Report().internal_space, 8 * (longest + 1));

  // The buffer also holds an unterminated last field, and an empty
  // stream still holds the one-symbol buffer.
  const std::pair<const char*, std::size_t> cases[] = {
      {"", 8}, {"R1,0#", 8 * 5}, {"R1,0#R2,0101", 8 * 8}};
  for (const auto& [stream, bits] : cases) {
    stmodel::StContext small(1);
    small.LoadInput(stream);
    ASSERT_TRUE(RelationSpool::Build(small).ok());
    EXPECT_EQ(small.Report().internal_space, bits) << stream;
  }
}

// ---------------------------------------------------------------------
// Operator lifecycle: spill lanes and cache blocks released on success
// and on injected mid-stream failure
// ---------------------------------------------------------------------

TEST(QueryEngineLifecycle, FileResourcesReleasedOnSuccess) {
  const std::uint64_t blocks = extmem::ResidentCacheBlocks();
  const std::uint64_t files = extmem::LiveFileStorages();
  {
    RelationPairSpec spec;
    spec.seed = 29;
    spec.num_tuples = 40;
    spec.value_len = 8;
    spec.perturbations = 5;
    const RelationPairWorkload workload = MakeRelationPair(spec);
    Result<std::vector<QueryOutcome>> run = RunEngine(
        workload.stream, {SymmetricDifferenceQuery()}, FileOptions(), 2);
    ASSERT_TRUE(run.ok());
    ASSERT_TRUE(run.value()[0].status.ok());
  }
  EXPECT_EQ(extmem::ResidentCacheBlocks(), blocks);
  EXPECT_EQ(extmem::LiveFileStorages(), files);
}

TEST(QueryEngineLifecycle, FileResourcesReleasedOnInjectedFailure) {
  const std::uint64_t blocks = extmem::ResidentCacheBlocks();
  const std::uint64_t files = extmem::LiveFileStorages();
  {
    RelationPairSpec spec;
    spec.seed = 31;
    spec.num_tuples = 24;
    spec.value_len = 8;
    const RelationPairWorkload workload = MakeRelationPair(spec);
    SharedScanOptions options;
    options.config.inject_failure_in_sort = true;
    Result<std::vector<QueryOutcome>> run =
        RunEngine(workload.stream, {SymmetricDifferenceQuery()},
                  FileOptions(), 1, options);
    ASSERT_TRUE(run.ok());  // the scan itself succeeds...
    EXPECT_FALSE(run.value()[0].status.ok());  // ...the query fails
    EXPECT_NE(run.value()[0].status.message().find("injected"),
              std::string::npos);
  }
  EXPECT_EQ(extmem::ResidentCacheBlocks(), blocks);
  EXPECT_EQ(extmem::LiveFileStorages(), files);
}

TEST(QueryEngineLifecycle, FileResourcesReleasedOnSortLayerFault) {
  const std::uint64_t blocks = extmem::ResidentCacheBlocks();
  const std::uint64_t files = extmem::LiveFileStorages();
  {
    RelationPairSpec spec;
    spec.seed = 37;
    spec.num_tuples = 50;
    spec.value_len = 8;
    const RelationPairWorkload workload = MakeRelationPair(spec);
    SharedScanOptions options;
    options.config.sort.fanout = 4;
    options.config.sort.run_length = 8;
    options.config.sort.inject_failure_before_merge = true;
    Result<std::vector<QueryOutcome>> run =
        RunEngine(workload.stream, {SymmetricDifferenceQuery()},
                  FileOptions(), 1, options);
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(run.value()[0].status.ok());
  }
  EXPECT_EQ(extmem::ResidentCacheBlocks(), blocks);
  EXPECT_EQ(extmem::LiveFileStorages(), files);
}

TEST(QueryEngineLifecycle, EarlyCloseReleasesScratch) {
  const std::uint64_t blocks = extmem::ResidentCacheBlocks();
  const std::uint64_t files = extmem::LiveFileStorages();
  {
    RelationPairSpec spec;
    spec.seed = 43;
    spec.num_tuples = 64;
    spec.value_len = 8;
    const RelationPairWorkload workload = MakeRelationPair(spec);
    stmodel::StContext ctx(1, FileOptions());
    ctx.LoadInput(workload.stream);
    Result<std::unique_ptr<RelationSpool>> spool =
        RelationSpool::Build(ctx);
    ASSERT_TRUE(spool.ok());
    EngineConfig config;
    CostMeter meter;
    OperatorEnv env{&config, &ctx.storage_options(), &meter};
    Result<StreamOperatorPtr> pipeline =
        BuildPipeline(SymmetricDifferenceQuery(), *spool.value(), env);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(pipeline.value()->Open().ok());
    Result<TupleBatch> first = pipeline.value()->Next();
    ASSERT_TRUE(first.ok());
    // Abandon the stream mid-way; Close must still release everything.
    pipeline.value()->Close();
    pipeline.value()->Close();  // idempotent
  }
  EXPECT_EQ(extmem::ResidentCacheBlocks(), blocks);
  EXPECT_EQ(extmem::LiveFileStorages(), files);
}

// ---------------------------------------------------------------------
// Certificates: RST015 bill checks and the RST018 admission gate
// ---------------------------------------------------------------------

TEST(QueryCertificate, ViolationIsReportedAsRst015) {
  check::QueryPlanShape shape;
  shape.leaf_scans = 1;
  shape.sort_degrees = {1};
  const check::QueryCertificate cert = check::CertifyQueryPlan(shape);
  const Status ok =
      check::CheckQueryCostsAgainstCertificate(3, 64, cert, 1024);
  EXPECT_TRUE(ok.ok()) << ok.message();
  const Status bad = check::CheckQueryCostsAgainstCertificate(
      1u << 20, 64, cert, 1024);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("RST015"), std::string::npos);
}

TEST(QueryCertificate, AdmissionGateRejectsDuplicateKeyJoins) {
  RelationPairSpec spec;
  spec.seed = 47;
  spec.num_tuples = 8;
  spec.arity = 2;
  spec.value_len = 6;
  const RelationPairWorkload workload = MakeRelationPair(spec);
  const RelAlgExprPtr join =
      EquiJoin(Rel("R1"), Rel("R2"), 2, {{0, 0}});

  // Without the unique-keys promise the certified group buffer carries
  // an N-degree term, which escapes the O(log N) internal envelope.
  SharedScanOptions options;
  options.admit = true;
  Result<std::vector<QueryOutcome>> rejected =
      RunEngine(workload.stream, {join}, MemOptions(), 1, options);
  ASSERT_TRUE(rejected.ok());
  ASSERT_FALSE(rejected.value()[0].status.ok());
  EXPECT_NE(rejected.value()[0].status.message().find("RST018"),
            std::string::npos);

  // With the promise the same plan is admitted, runs, and its measured
  // bill passes the RST015 post-check.
  options.unique_join_keys = true;
  Result<std::vector<QueryOutcome>> admitted =
      RunEngine(workload.stream, {join}, MemOptions(), 1, options);
  ASSERT_TRUE(admitted.ok());
  EXPECT_TRUE(admitted.value()[0].status.ok())
      << admitted.value()[0].status.message();
}

TEST(QueryCertificate, SymmetricDifferencePlanIsInTheLogScanClass) {
  RelationPairSpec spec;
  spec.seed = 53;
  spec.num_tuples = 16;
  const RelationPairWorkload workload = MakeRelationPair(spec);
  SharedScanOptions options;
  options.admit = true;  // full Theorem 11 admission gate
  Result<std::vector<QueryOutcome>> run =
      RunEngine(workload.stream, {SymmetricDifferenceQuery()},
                MemOptions(), 1, options);
  ASSERT_TRUE(run.ok());
  const QueryOutcome& outcome = run.value()[0];
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.message();
  EXPECT_TRUE(check::WithinLogScanClass(outcome.certificate));
  EXPECT_EQ(outcome.plan, "((R1 - R2) + (R2 - R1))");
}

// ---------------------------------------------------------------------
// Workload generator invariants
// ---------------------------------------------------------------------

TEST(QueryWorkload, RelationPairGroundTruthIsExact) {
  for (const std::size_t k : {0u, 1u, 5u}) {
    RelationPairSpec spec;
    spec.seed = 61;
    spec.num_tuples = 20;
    spec.perturbations = k;
    const RelationPairWorkload workload = MakeRelationPair(spec);
    EXPECT_EQ(workload.symmetric_difference, 2 * k);
    const Relation& r1 = workload.database.at("R1");
    const Relation& r2 = workload.database.at("R2");
    EXPECT_EQ(r1.tuples.size(), 20u);
    EXPECT_EQ(r2.tuples.size(), 20u);
    if (k == 0) {
      EXPECT_TRUE(r1 == r2);
    }
  }
  // Same spec, same instance: workloads are pure functions of the spec.
  RelationPairSpec spec;
  spec.seed = 67;
  spec.num_tuples = 10;
  spec.skew_duplicates = true;
  EXPECT_EQ(MakeRelationPair(spec).stream, MakeRelationPair(spec).stream);
}

TEST(QueryWorkload, XmlGroundTruthIsExact) {
  XmlWorkloadSpec spec;
  spec.seed = 71;
  spec.set1_values = 10;
  spec.set2_values = 6;
  spec.perturbations = 2;
  const XmlWorkload workload = MakeXmlWorkload(spec);
  // overlap = 6, common = 4: |set1 \ set2| = 6, |set2 \ set1| = 2.
  EXPECT_EQ(workload.symmetric_difference, 8u);
  EXPECT_FALSE(workload.sets_equal);
  EXPECT_EQ(MakeXmlWorkload(spec).document, workload.document);
}

}  // namespace
}  // namespace rstlab::query::engine
