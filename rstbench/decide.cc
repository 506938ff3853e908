// decide-outofcore: the Corollary 7 sort-and-scan deciders on the file
// backend, with an input about 8.5 times the per-tape block cache, so
// the sort's passes and the extmem block I/O under them do the work.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "extmem/storage.h"
#include "harness.h"
#include "problems/generators.h"
#include "problems/instance.h"
#include "problems/reference.h"
#include "sorting/deciders.h"
#include "sorting/parallel_sort.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace rstbench {
namespace {

using rstlab::extmem::IoStats;
using rstlab::problems::Instance;
using rstlab::problems::Problem;

struct Variant {
  Problem problem;
  const char* kind;  // generator, as in `rstlab generate`
  std::string encoded;
  bool expected = false;  // RefDecide's verdict
};

/// The measured bill of a variant's first run; later runs must match.
struct Pin {
  bool set = false;
  std::uint64_t scans = 0;
  std::size_t internal_bits = 0;
  IoStats io;
};

Instance Generate(const std::string& kind, std::size_t m, std::size_t n,
                  rstlab::Rng& rng) {
  if (kind == "equal") return rstlab::problems::EqualMultisets(m, n, rng);
  if (kind == "perturbed") {
    return rstlab::problems::PerturbedMultisets(m, n, 1, rng);
  }
  if (kind == "sorted") return rstlab::problems::SortedPair(m, n, rng);
  return rstlab::problems::MisorderedPair(m, n, rng);
}

std::string Fields(const std::vector<std::string>& values) {
  std::string out;
  for (const std::string& v : values) out += v + "#";
  return out;
}

}  // namespace

HalfSort SortOneHalf(const std::vector<std::string>& values,
                     const rstlab::extmem::StorageOptions& storage,
                     RunReport& report) {
  std::vector<std::string> sorted_values = values;
  std::sort(sorted_values.begin(), sorted_values.end());
  const std::string input = Fields(values);
  const std::string sorted = Fields(sorted_values);

  HalfSort out;
  {
    rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes, storage);
    ctx.LoadInput(input);
    const Clock::time_point start = Clock::now();
    const rstlab::Status status = rstlab::sorting::SortInputToTape(ctx);
    out.ms = MsSince(start);
    report.Check(status.ok() &&
                 ctx.tape(1).storage().ReadRange(0, sorted.size()) == sorted);
  }
  rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes, storage);
  ctx.LoadInput(input);
  rstlab::sorting::SortStats stats;
  report.Check(rstlab::sorting::SortForDecider(ctx, 0, 3, 4, &stats).ok() &&
               ctx.tape(0).storage().ReadRange(0, sorted.size()) == sorted);
  out.passes = stats.passes;
  return out;
}

RunReport RunDecideOutOfCore(const RunSpec& spec, SpanLog& spans) {
  // m = 2^16 fields of n = 16 bits: N = 2m(n+1) ~ 2.2M cells against a
  // 64 x 4096-cell (256 KiB) default per-tape cache.
  const std::size_t m = std::size_t{1} << (spec.smoke ? 9 : 16);
  const std::size_t n = spec.smoke ? 10 : 16;

  // One round of the rotation runs each problem on two generator kinds,
  // one built as a yes- and one as a no-instance (RefDecide judges
  // either way). CHECK-SORT sorts one half where the others sort two,
  // so its operations are the cheaper ones.
  std::vector<Variant> variants = {
      {Problem::kSetEquality, "equal", "", false},
      {Problem::kMultisetEquality, "perturbed", "", false},
      {Problem::kCheckSort, "sorted", "", false},
      {Problem::kSetEquality, "perturbed", "", false},
      {Problem::kMultisetEquality, "equal", "", false},
      {Problem::kCheckSort, "misordered", "", false},
  };
  rstlab::Rng rng(spec.seed);
  std::vector<std::string> half;  // first list of the first instance
  for (Variant& v : variants) {
    const Instance instance = Generate(v.kind, m, n, rng);
    v.encoded = instance.Encode();
    v.expected = rstlab::problems::RefDecide(v.problem, instance);
    if (half.empty()) {
      for (const auto& value : instance.first) {
        half.push_back(value.ToString());
      }
    }
  }

  rstlab::extmem::StorageOptions storage;
  storage.backend = rstlab::extmem::BackendKind::kFile;
  storage.dir = spec.scratch_dir + "/tapes";

  std::vector<Pin> pins(variants.size());
  RunReport report;
  auto op = [&](std::uint64_t i, SpanLog& log) {
    const Variant& v = variants[i % variants.size()];
    Pin& pin = pins[i % variants.size()];
    const std::int64_t root = log.Begin("decide.op", i);
    std::int64_t span = log.Begin("stmodel.load_input", i, root);
    auto ctx = std::make_unique<rstlab::stmodel::StContext>(
        rstlab::sorting::kDeciderTapes, storage);
    ctx->LoadInput(v.encoded);
    log.End(span);
    span = log.Begin("sorting.decide", i, root);
    const rstlab::Result<bool> verdict =
        rstlab::sorting::DecideOnTapes(v.problem, *ctx);
    log.End(span);
    span = log.Begin("tape.report", i, root);
    const rstlab::tape::ResourceReport bill = ctx->Report();
    const IoStats io = ctx->IoStatsTotal();
    const bool on_file =
        ctx->backend() == rstlab::extmem::BackendKind::kFile;
    log.End(span);
    span = log.Begin("extmem.release", i, root);
    ctx.reset();  // closes and unlinks the tape files
    log.End(span);
    log.End(root);

    if (!pin.set) {
      pin = Pin{true, bill.scan_bound, bill.internal_space, io};
    }
    return on_file && verdict.ok() && verdict.value() == v.expected &&
           bill.scan_bound == pin.scans &&
           bill.internal_space == pin.internal_bits;
  };

  SpanLog off(false);
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    const Clock::time_point start = Clock::now();
    report.Check(op(0, off));
    return MsSince(start) / 1e3;
  });
  const Window untraced =
      RunClosedLoop(spec.window_s(), variants.size(), off, report, op);
  if (!spec.trace) {
    AddEndToEnd(report, untraced, setup_s);
    return report;
  }
  const Window traced =
      RunClosedLoop(spec.window_s(), variants.size(), spans, report, op);

  // The sorting layer without the decider's split and compare scans.
  const HalfSort sort = SortOneHalf(half, storage, report);

  // Bills and block I/O are exact per variant; report their mean over
  // the rotation.
  double scans = 0, bits = 0, reads = 0, writes = 0, hits = 0,
         lookups = 0, ra_hits = 0, ra_blocks = 0, pf_hits = 0,
         pf_issued = 0, evictions = 0, cells = 0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Pin& pin = pins[i];
    scans += static_cast<double>(pin.scans);
    bits += static_cast<double>(pin.internal_bits);
    reads += static_cast<double>(pin.io.block_reads);
    writes += static_cast<double>(pin.io.block_writes);
    hits += static_cast<double>(pin.io.cache_hits);
    lookups += static_cast<double>(pin.io.cache_hits + pin.io.cache_misses);
    ra_hits += static_cast<double>(pin.io.readahead_hits);
    ra_blocks += static_cast<double>(pin.io.readahead_blocks);
    pf_hits += static_cast<double>(pin.io.prefetch_hits);
    pf_issued += static_cast<double>(pin.io.prefetch_issued);
    evictions += static_cast<double>(pin.io.evictions);
    cells += static_cast<double>(variants[i].encoded.size());
  }
  const double k = static_cast<double>(variants.size());
  const LayerValues layers = {
      {"stmodel.load_input_ms",
       Median(spans.DurationsMs("stmodel.load_input"))},
      {"sorting.decide_ms", Median(spans.DurationsMs("sorting.decide"))},
      {"sorting.sort_ms", sort.ms},
      {"sorting.passes", static_cast<double>(sort.passes)},
      {"tape.scans", scans / k},
      {"tape.internal_bits", bits / k},
      {"extmem.block_reads", reads / k},
      {"extmem.block_writes", writes / k},
      {"extmem.blocks_per_mcell", Ratio(reads + writes, cells / 1e6)},
      {"extmem.cache_hit_rate", Ratio(hits, lookups)},
      {"extmem.readahead_hit_rate", Ratio(ra_hits, ra_blocks)},
      {"extmem.prefetch_hit_rate", Ratio(pf_hits, pf_issued)},
      {"extmem.evictions", evictions / k},
  };
  if (!AddLayers(report, layers, untraced, traced,
                 CoveredPct(spans, "decide.op"))) {
    report.Check(false);
  }
  return report;
}

}  // namespace rstbench
