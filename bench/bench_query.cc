// Experiment E21 (Theorem 11, engine form): the streaming query engine
// end to end.
//
//  * E21a: the symmetric-difference plan over an N sweep of adversarial
//    relation pairs — measured (r, s) must stay inside the plan's
//    symbolic certificate evaluated at that N, and the scan bound must
//    fit c_Q * log2(N) (Theorem 11's upper-bound shape);
//  * E21b: symbolic dominance — the certificate itself is checked
//    against the Theorem 11 envelope coeff * ceil(log2 N) statically at
//    every N = 2^8 .. 2^24 (the RST018 admission gate's sweep);
//  * E21c: out-of-core — a Section 4 XML document of >= 2^24 tape cells
//    evaluated on the file backend with a per-tape cache thousands of
//    times smaller than the input, through the parallel k-way sort
//    lanes, with the RST015 post-check live. `--small` (the CI mode)
//    shrinks the document to ~2^19 cells; the committed BENCH row is
//    the full-size run.

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "check/query_certificate.h"
#include "core/experiment.h"
#include "driver.h"
#include "extmem/storage.h"
#include "parallel/bench_recorder.h"
#include "query/engine/shared_scan.h"
#include "query/relalg.h"
#include "query/workload.h"
#include "stmodel/st_context.h"

namespace {

using rstlab::bench::SecondsSince;
using rstlab::core::FormatDouble;
using rstlab::core::Table;
using rstlab::parallel::BenchRecorder;
using rstlab::parallel::Checksum64;
using rstlab::sorting::RunOptions;
using namespace rstlab::query;

engine::QueryOutcome RunSymdiff(rstlab::stmodel::StContext& ctx,
                                const engine::SharedScanOptions& options,
                                bool xml) {
  const RelAlgExprPtr plan = xml
                                 ? SymmetricDifferenceQuery("set1", "set2")
                                 : SymmetricDifferenceQuery();
  auto outcomes = engine::ExecuteSharedScan(
      ctx, {engine::QueryRequest{plan, "symdiff"}}, options);
  if (!outcomes.ok()) {
    engine::QueryOutcome failed;
    failed.status = outcomes.status();
    return failed;
  }
  return std::move(outcomes.value()[0]);
}

/// E21a: N sweep of the symmetric-difference plan, measured bill vs the
/// certificate evaluated at that N.
void RunSweepTable(const RunOptions& run, BenchRecorder& recorder) {
  Table table("E21a: symdiff plan, measured (r, s) vs certificate at N",
              {"tuples", "N", "ms", "r", "cert r(N)", "s", "cert s(N)",
               "|R1^R2|"});
  for (std::size_t tuples : {64u, 256u, 1024u, 4096u}) {
    RelationPairSpec spec;
    spec.seed = 0xE21 + tuples;
    spec.num_tuples = tuples;
    spec.value_len = 16;
    spec.perturbations = tuples / 8;
    const RelationPairWorkload workload = MakeRelationPair(spec);

    rstlab::stmodel::StContext ctx(1, run.storage);
    ctx.LoadInput(workload.stream);
    const std::size_t n = ctx.input_size();
    engine::SharedScanOptions options;
    options.config.sort = run.sort;
    options.admit = true;  // full admission gate + RST015 post-check
    const auto start = std::chrono::steady_clock::now();
    const engine::QueryOutcome outcome = RunSymdiff(ctx, options, false);
    const double wall = SecondsSince(start);
    if (!outcome.status.ok()) {
      std::cout << "  ERROR at tuples=" << tuples << ": "
                << outcome.status << "\n";
      continue;
    }
    if (outcome.result.tuples.size() != workload.symmetric_difference) {
      std::cout << "  WARNING: symdiff size "
                << outcome.result.tuples.size() << " != ground truth "
                << workload.symmetric_difference << "\n";
    }
    table.AddRow(
        {std::to_string(tuples), std::to_string(n),
         FormatDouble(wall * 1e3), std::to_string(outcome.cost.scan_bound),
         std::to_string(outcome.certificate.scan_bound.Eval(n)),
         std::to_string(outcome.cost.internal_bits),
         std::to_string(outcome.certificate.internal_bits.Eval(n)),
         std::to_string(outcome.result.tuples.size())});
    recorder.Record(
        "E21a_symdiff_mem_" + std::to_string(n), /*trials=*/1, wall,
        Checksum64({outcome.cost.scan_bound, outcome.cost.internal_bits,
                    outcome.cost.tuples_out,
                    outcome.result.tuples.size()}));
  }
  table.Print(std::cout);
  std::cout << "  (rows execute under --admit: the RST018 gate and the "
               "RST015 post-check both passed)\n\n";
}

/// E21b: the certificate's symbolic dominance over the whole Theorem 11
/// envelope sweep — no execution, pure BoundExpr arithmetic.
void RunEnvelopeTable(BenchRecorder& recorder) {
  // A representative symdiff certificate: the shape AnalyzePlan derives
  // for ((R1 - R2) + (R2 - R1)) over degree-1 lanes with 16-bit values.
  rstlab::check::QueryPlanShape shape;
  shape.leaf_scans = 4;
  shape.merge_ops = 2;
  shape.sort_degrees = {1, 1, 1, 1, 1};
  shape.operators = 11;
  shape.max_field_len = 19;
  const rstlab::check::QueryCertificate cert =
      rstlab::check::CertifyQueryPlan(shape);
  constexpr rstlab::check::Theorem11Envelope envelope =
      rstlab::check::kTheorem11Envelope;

  Table table("E21b: certificate vs Theorem 11 envelope, N = 2^8..2^24",
              {"N", "cert r(N)", "envelope r(N)", "cert s(N)",
               "envelope s(N)"});
  std::vector<std::uint64_t> evals;
  std::uint64_t previous = 0;
  bool monotone = true;
  for (std::size_t log_n = 8; log_n <= 24; log_n += 4) {
    const std::size_t n = std::size_t{1} << log_n;
    const std::uint64_t r = cert.scan_bound.Eval(n);
    const std::uint64_t s = cert.internal_bits.Eval(n);
    monotone = monotone && r >= previous;
    previous = r;
    evals.push_back(r);
    evals.push_back(s);
    table.AddRow({"2^" + std::to_string(log_n), std::to_string(r),
                  std::to_string(envelope.scan_coeff * log_n),
                  std::to_string(s),
                  std::to_string(envelope.bits_coeff * log_n)});
  }
  table.Print(std::cout);
  const rstlab::Status dominated =
      rstlab::check::CheckTheorem11Envelope(cert);
  std::cout << "  dominance 2^8..2^24: "
            << (dominated.ok() && monotone ? "HOLDS" : "VIOLATED");
  if (!dominated.ok()) std::cout << " (" << dominated << ")";
  std::cout << "  [" << cert.ToString() << "]\n\n";
  recorder.Record("E21b_envelope_sweep", /*trials=*/evals.size() / 2,
                  0.0,
                  Checksum64({evals[0], evals[1], evals[evals.size() - 2],
                              evals[evals.size() - 1],
                              dominated.ok() && monotone ? 1u : 0u}));
}

/// E21c: the >= 2^24-cell XML document out-of-core.
void RunOutOfCoreTable(BenchRecorder& recorder, bool small) {
  // 2 x 131072 items of ~80 cells each: ~21M tape cells (> 2^24). The
  // per-tape cache is 64 x 4096 = 256 KiB — about 1/80th of the input —
  // so lanes and spill files stream through extmem.
  XmlWorkloadSpec spec;
  spec.seed = 0xE21C;
  spec.set1_values = small ? 4096 : 131072;
  spec.set2_values = spec.set1_values;
  spec.value_len = 40;
  spec.nesting_depth = 1;
  spec.perturbations = 16;
  const XmlWorkload workload = MakeXmlWorkload(spec);

  rstlab::extmem::StorageOptions storage;
  storage.backend = rstlab::extmem::BackendKind::kFile;
  storage.block_size = 4096;
  storage.cache_blocks = 64;
  storage.readahead_blocks = 4;

  engine::SharedScanOptions options;
  options.xml = true;
  options.admit = true;
  options.config.threads = 4;
  options.config.sort.threads = 4;
  options.config.sort.fanout = 8;
  options.config.sort.run_length = 1024;

  rstlab::stmodel::StContext ctx(1, storage);
  ctx.LoadInput(workload.document);
  const std::size_t n = ctx.input_size();
  const auto start = std::chrono::steady_clock::now();
  const engine::QueryOutcome outcome = RunSymdiff(ctx, options, true);
  const double wall = SecondsSince(start);

  Table table("E21c: XML symdiff out-of-core (file backend, cache 256 KiB)",
              {"N", "secs", "r", "cert r(N)", "s", "cert s(N)",
               "|set1^set2|"});
  if (!outcome.status.ok()) {
    std::cout << "  ERROR: " << outcome.status << "\n";
    return;
  }
  table.AddRow({std::to_string(n), FormatDouble(wall),
                std::to_string(outcome.cost.scan_bound),
                std::to_string(outcome.certificate.scan_bound.Eval(n)),
                std::to_string(outcome.cost.internal_bits),
                std::to_string(outcome.certificate.internal_bits.Eval(n)),
                std::to_string(outcome.result.tuples.size())});
  table.Print(std::cout);
  if (outcome.result.tuples.size() != workload.symmetric_difference) {
    std::cout << "  WARNING: symdiff size != ground truth "
              << workload.symmetric_difference << "\n";
  }
  std::cout << "  (admitted through the RST018 gate; measured bill "
               "passed the RST015 post-check at N = "
            << n << ")\n\n";
  recorder.Record(
      std::string("E21c_xml_outofcore_file_") + (small ? "small_" : "") +
          std::to_string(n),
      /*trials=*/1, wall,
      Checksum64({outcome.cost.scan_bound, outcome.cost.internal_bits,
                  outcome.cost.tuples_out,
                  outcome.result.tuples.size()}));
}

void BM_SymdiffSharedScan(benchmark::State& state, const RunOptions& run) {
  const std::size_t tuples = static_cast<std::size_t>(state.range(0));
  RelationPairSpec spec;
  spec.seed = 1;
  spec.num_tuples = tuples;
  spec.value_len = 16;
  spec.perturbations = tuples / 8;
  const RelationPairWorkload workload = MakeRelationPair(spec);
  for (auto _ : state) {
    rstlab::stmodel::StContext ctx(1, run.storage);
    ctx.LoadInput(workload.stream);
    engine::SharedScanOptions options;
    options.config.sort = run.sort;
    const engine::QueryOutcome outcome = RunSymdiff(ctx, options, false);
    benchmark::DoNotOptimize(outcome.cost.scan_bound);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tuples) *
                          state.iterations());
}

}  // namespace

int main(int argc, char** argv) {
  // E21c picks its own file backend and geometry: it is the out-of-core
  // row.
  return rstlab::bench::Main(
      argc, argv, "bench_query",
      [](rstlab::bench::Bench& b) {
        RunSweepTable(b.run, b.recorder);
        RunEnvelopeTable(b.recorder);
        RunOutOfCoreTable(b.recorder, b.small);
        benchmark::RegisterBenchmark("BM_SymdiffSharedScan",
                                     BM_SymdiffSharedScan, b.run)
            ->Arg(256)->Arg(1024);
        return 0;
      },
      /*recorder_threads=*/4);
}
