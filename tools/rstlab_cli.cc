// rstlab command-line tool: generate instances, run every decider, sort
// tapes and evaluate XPath queries from the shell.
//
//   rstlab generate <equal|perturbed|sorted|misordered|disjoint|
//                    checkphi-yes|checkphi-no> <m> <n> [seed]
//   rstlab decide <set-equality|multiset-equality|check-sort|disjoint>
//                 [file|-]
//   rstlab fingerprint [file|-] [seed]
//   rstlab sort [file|-]
//   rstlab xpath "<query>" [xml-file|-]
//
// Instances use the paper's v1#...#vm#v'1#...#v'm# encoding; '-' (the
// default) reads from stdin. Every decision prints the verdict plus the
// run's resource bill in the paper's (r, s, t) cost units.
//
// The common flags (sorting::ParseRunOptions, over the RSTLAB_*
// environment) are parsed once and handed to decide, fingerprint, sort,
// query and serve as values: --tape-backend=file runs the tapes from
// checksummed block files with --cache-blocks=K blocks per tape in RAM,
// so deciders run on inputs larger than memory; --merge-fanout=K and
// --run-length=L set the k-way sort behind every decider (default
// K = 8, L = 1024; K = 2, L = 1 is the paper's binary merge sort), whose
// (r, s) bill is identical at every --sort-threads; --simd=LEVEL picks
// serve's fingerprint lane width. conform runs at the environment
// defaults, so a replay triple names the same run whatever flags are
// passed.

#include <poll.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/growth.h"
#include "check/registry.h"
#include "check/sort_certificate.h"
#include "conform/harness.h"
#include "conform/oracle.h"
#include "core/rstlab.h"
#include "machine/turing_machine.h"
#include "query/engine/shared_scan.h"
#include "query/workload.h"
#include "serve/server.h"
#include "serve/shutdown.h"
#include "sorting/parallel_sort.h"
#include "sorting/run_options.h"

namespace {

int Usage() {
  std::cerr
      << "usage:\n"
      << "  rstlab generate <kind> <m> <n> [seed]   kinds: equal,"
         " perturbed, sorted,\n"
      << "                                          misordered, disjoint,"
         " checkphi-yes, checkphi-no,\n"
      << "                                          relpair, xmlpair"
         " (query workloads:\n"
      << "                                          m per side, n"
         " perturbations)\n"
      << "  rstlab decide <problem> [file|-]        problems:"
         " set-equality, multiset-equality,\n"
      << "                                          check-sort, disjoint\n"
      << "  rstlab fingerprint [file|-] [seed]\n"
      << "  rstlab sort [file|-]\n"
      << "  rstlab xpath \"<query>\" [xml-file|-]\n"
      << "  rstlab query <plans> [file|-] [--xml] [--threads=T]"
         " [--admit]\n"
      << "               [--unique-keys] [--explain]\n"
      << "                                          streaming query"
         " engine: plans\n"
      << "                                          (comma-separated:"
         " scan, union, diff,\n"
      << "                                          intersect, symdiff)"
         " share ONE input\n"
      << "                                          pass; --xml reads a"
         " Section 4\n"
      << "                                          document; --admit"
         " gates every plan\n"
      << "                                          on its Theorem 11"
         " envelope (RST018)\n"
      << "  rstlab check [machine|all] [--runs=K] [--symbolic]"
         " [--check-n-sweep]\n"
      << "                                          static analysis of"
         " every shipped\n"
      << "                                          paper/zoo machine;"
         " exit 1 on errors.\n"
      << "                                          --symbolic prints"
         " inferred growth\n"
      << "                                          classes (and the"
         " k-way sort\n"
      << "                                          certificate);"
         " --check-n-sweep\n"
      << "                                          re-verifies bounds"
         " at N=2^8..2^24\n"
      << "  rstlab conform [suite|all] [--seed=S] [--cases=K]\n"
      << "                 [--replay=suite:seed:index] [--corpus=DIR]"
         " [--selftest]\n"
      << "                                          differential"
         " conformance oracles;\n"
      << "                                          failures are shrunk"
         " and replayable\n"
      << "  rstlab serve [--port=P] [--threads=T] [--max-inflight=K]\n"
      << "               [--max-connections=C] [--cache-entries=E]\n"
      << "               [--max-generator-cells=G]\n"
      << "                                          experiment daemon on"
         " 127.0.0.1;\n"
      << "                                          SIGINT/SIGTERM drain"
         " and exit 0\n"
      << "common flags (decide, fingerprint, sort, query, serve):\n"
      << rstlab::sorting::kRunOptionsUsage;
  return 2;
}

// Rejects any remaining `--flag` the subcommand does not define. The
// common-flag parser already stripped its flags, so by the time a
// subcommand sees a `--` argument it is either in that subcommand's own
// vocabulary or a typo — and a typo silently consumed as a positional
// argument (a file name, a selector) is worse than an error.
bool RejectUnknownFlags(const char* command,
                        const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag " << arg << " for rstlab " << command
                << "\n";
      return true;
    }
  }
  return false;
}

std::string ReadInput(const std::string& source) {
  if (source == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    std::string text = buffer.str();
    // Strip a trailing newline from interactive input.
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    return text;
  }
  std::ifstream file(source);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string text = buffer.str();
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  return text;
}

int Generate(const std::vector<std::string>& args) {
  if (RejectUnknownFlags("generate", args)) return Usage();
  if (args.size() < 3) return Usage();
  const std::string& kind = args[0];
  const std::size_t m = std::strtoull(args[1].c_str(), nullptr, 10);
  const std::size_t n = std::strtoull(args[2].c_str(), nullptr, 10);
  const std::uint64_t seed =
      args.size() > 3 ? std::strtoull(args[3].c_str(), nullptr, 10) : 1;
  if (kind == "relpair" || kind == "xmlpair") {
    // Query-engine workloads: relation pairs / Section 4 XML documents
    // that agree on all but n elements, with exact ground truth baked
    // into the generator (see src/query/workload.h). m sizes each side.
    if (kind == "relpair") {
      rstlab::query::RelationPairSpec spec;
      spec.seed = seed;
      spec.num_tuples = m;
      spec.perturbations = n;
      std::cout << rstlab::query::MakeRelationPair(spec).stream << "\n";
    } else {
      rstlab::query::XmlWorkloadSpec spec;
      spec.seed = seed;
      spec.set1_values = m;
      spec.set2_values = m;
      spec.perturbations = n;
      std::cout << rstlab::query::MakeXmlWorkload(spec).document << "\n";
    }
    return 0;
  }
  rstlab::Rng rng(seed);
  rstlab::problems::Instance instance;
  if (kind == "equal") {
    instance = rstlab::problems::EqualMultisets(m, n, rng);
  } else if (kind == "perturbed") {
    instance = rstlab::problems::PerturbedMultisets(m, n, 1, rng);
  } else if (kind == "sorted") {
    instance = rstlab::problems::SortedPair(m, n, rng);
  } else if (kind == "misordered") {
    instance = rstlab::problems::MisorderedPair(m, n, rng);
  } else if (kind == "disjoint") {
    instance = rstlab::problems::DisjointSets(m, n, rng);
  } else if (kind == "checkphi-yes" || kind == "checkphi-no") {
    rstlab::problems::CheckPhi problem(
        m, n, rstlab::permutation::BitReversalPermutation(m));
    instance = kind == "checkphi-yes" ? problem.RandomYesInstance(rng)
                                      : problem.RandomNoInstance(rng);
  } else {
    return Usage();
  }
  std::cout << instance.Encode() << "\n";
  return 0;
}

int Decide(const std::vector<std::string>& args,
           const rstlab::sorting::RunOptions& run) {
  if (RejectUnknownFlags("decide", args)) return Usage();
  if (args.empty()) return Usage();
  const std::string& problem_name = args[0];
  const std::string source = args.size() > 1 ? args[1] : "-";
  const std::string encoded = ReadInput(source);

  rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes,
                                 run.storage);
  ctx.LoadInput(encoded);
  rstlab::Result<bool> verdict = false;
  if (problem_name == "set-equality") {
    verdict = rstlab::sorting::DecideOnTapes(
        rstlab::problems::Problem::kSetEquality, ctx, run.sort);
  } else if (problem_name == "multiset-equality") {
    verdict = rstlab::sorting::DecideOnTapes(
        rstlab::problems::Problem::kMultisetEquality, ctx, run.sort);
  } else if (problem_name == "check-sort") {
    verdict = rstlab::sorting::DecideOnTapes(
        rstlab::problems::Problem::kCheckSort, ctx, run.sort);
  } else if (problem_name == "disjoint") {
    verdict = rstlab::sorting::DecideDisjointOnTapes(ctx, run.sort);
  } else {
    return Usage();
  }
  if (!verdict.ok()) {
    std::cerr << "error: " << verdict.status() << "\n";
    return 1;
  }
  std::cout << (verdict.value() ? "yes" : "no") << "  ["
            << ctx.Report().ToString() << "]\n";
  return 0;
}

int Fingerprint(const std::vector<std::string>& args,
                const rstlab::sorting::RunOptions& run) {
  if (RejectUnknownFlags("fingerprint", args)) return Usage();
  const std::string source = args.empty() ? "-" : args[0];
  const std::uint64_t seed =
      args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 10) : 1;
  rstlab::Rng rng(seed);
  rstlab::stmodel::StContext ctx(1, run.storage);
  ctx.LoadInput(ReadInput(source));
  auto outcome = rstlab::fingerprint::TestMultisetEqualityOnTapes(ctx, rng);
  if (!outcome.ok()) {
    std::cerr << "error: " << outcome.status() << "\n";
    return 1;
  }
  std::cout << (outcome.value().accepted ? "accept" : "reject")
            << "  [" << ctx.Report().ToString()
            << "]  (p1=" << outcome.value().params.p1
            << ", p2=" << outcome.value().params.p2
            << ", x=" << outcome.value().params.x << ")\n";
  return 0;
}

int Sort(const std::vector<std::string>& args,
         const rstlab::sorting::RunOptions& run) {
  if (RejectUnknownFlags("sort", args)) return Usage();
  const std::string source = args.empty() ? "-" : args[0];
  rstlab::stmodel::StContext ctx(3, run.storage);
  ctx.LoadInput(ReadInput(source));
  rstlab::sorting::SortStats stats;
  rstlab::Status status =
      rstlab::sorting::SortForDecider(ctx, 0, 1, 2, &stats, run.sort);
  if (!status.ok()) {
    std::cerr << "error: " << status << "\n";
    return 1;
  }
  rstlab::tape::Tape& t = ctx.tape(0);
  t.Seek(0);
  for (std::size_t i = 0; i < stats.num_fields; ++i) {
    std::cout << rstlab::stmodel::ReadField(t) << "#";
  }
  std::cout << "\n" << stats.passes << " passes  ["
            << ctx.Report().ToString() << "]\n";
  return 0;
}

int XPath(const std::vector<std::string>& args) {
  if (RejectUnknownFlags("xpath", args)) return Usage();
  if (args.empty()) return Usage();
  auto query = rstlab::query::ParseXPath(args[0]);
  if (!query.ok()) {
    std::cerr << "query error: " << query.status() << "\n";
    return 1;
  }
  const std::string source = args.size() > 1 ? args[1] : "-";
  auto doc = rstlab::query::ParseXml(ReadInput(source));
  if (!doc.ok()) {
    std::cerr << "document error: " << doc.status() << "\n";
    return 1;
  }
  const auto selected =
      rstlab::query::EvalPath(*doc.value(), query.value());
  std::cout << selected.size() << " node(s) selected\n";
  for (const auto* node : selected) {
    std::cout << "<" << node->name << ">: " << node->StringValue()
              << "\n";
  }
  return 0;
}

// The streaming query engine from the shell: every named plan runs
// over ONE shared pass of the input stream (or XML document), each
// with its own certified pipeline and (r, s) bill.
int Query(const std::vector<std::string>& args,
          const rstlab::sorting::RunOptions& run) {
  rstlab::query::engine::SharedScanOptions options;
  options.config.sort = run.sort;
  bool explain = false;
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    if (arg == "--xml") {
      options.xml = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.config.threads =
          std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg == "--admit") {
      options.admit = true;
    } else if (arg == "--unique-keys") {
      options.unique_join_keys = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag " << arg << " for rstlab query\n";
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) return Usage();

  // Comma-separated plan names over the two input relations — the
  // stream's R1/R2 lanes, or the document's set1/set2 lanes with --xml.
  const std::string a = options.xml ? "set1" : "R1";
  const std::string b = options.xml ? "set2" : "R2";
  std::vector<rstlab::query::engine::QueryRequest> requests;
  std::string names = positional[0];
  while (!names.empty()) {
    const std::size_t comma = names.find(',');
    const std::string name = names.substr(0, comma);
    names = comma == std::string::npos ? "" : names.substr(comma + 1);
    rstlab::query::RelAlgExprPtr plan;
    if (name == "scan") {
      plan = rstlab::query::Rel(a);
    } else if (name == "union") {
      plan = rstlab::query::Union(rstlab::query::Rel(a),
                                  rstlab::query::Rel(b));
    } else if (name == "diff") {
      plan = rstlab::query::Difference(rstlab::query::Rel(a),
                                       rstlab::query::Rel(b));
    } else if (name == "intersect") {
      plan = rstlab::query::Intersection(rstlab::query::Rel(a),
                                         rstlab::query::Rel(b));
    } else if (name == "symdiff") {
      plan = rstlab::query::SymmetricDifferenceQuery(a, b);
    } else {
      std::cerr << "unknown plan \"" << name
                << "\" (scan, union, diff, intersect, symdiff)\n";
      return Usage();
    }
    requests.push_back({plan, name});
  }

  const std::string source = positional.size() > 1 ? positional[1] : "-";
  rstlab::stmodel::StContext ctx(1, run.storage);
  ctx.LoadInput(ReadInput(source));
  auto outcomes =
      rstlab::query::engine::ExecuteSharedScan(ctx, requests, options);
  if (!outcomes.ok()) {
    std::cerr << "error: " << outcomes.status() << "\n";
    return 1;
  }
  bool failed = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& outcome = outcomes.value()[i];
    if (!outcome.status.ok()) {
      std::cout << requests[i].label << ": error: " << outcome.status
                << "\n";
      failed = true;
      continue;
    }
    std::cout << requests[i].label << ": "
              << outcome.result.tuples.size() << " tuple(s)  ["
              << outcome.cost.ToString() << "]\n";
    if (explain) {
      std::cout << "  plan " << outcome.plan << "\n"
                << "  certificate " << outcome.certificate.ToString()
                << "\n";
    }
  }
  std::cout << "shared input pass  [" << ctx.Report().ToString() << "]\n";
  return failed ? 1 : 0;
}

// Re-verifies one machine's symbolic certificate across the N sweep
// 2^8 .. 2^24 (doubling): BoundExpr::Eval must be monotone in N, and
// when the machine declares a class the inferred bound must stay
// inside the declared envelope at every swept N — the single-point
// RST010/RST011 check repeated at seventeen sizes. Returns the number
// of failures printed.
std::size_t SweepSymbolicBounds(const rstlab::check::CheckedMachine& entry,
                                const rstlab::check::Analysis& analysis) {
  std::size_t failures = 0;
  const rstlab::check::BoundExpr& r = analysis.resources.scan_bound;
  const rstlab::check::BoundExpr& s =
      analysis.resources.total_internal_cells;
  std::uint64_t prev_r = 0;
  std::uint64_t prev_s = 0;
  for (std::size_t n = std::size_t{1} << 8; n <= (std::size_t{1} << 24);
       n <<= 1) {
    const std::uint64_t rn = r.Eval(n);
    const std::uint64_t sn = s.Eval(n);
    if (rn < prev_r || sn < prev_s) {
      std::cout << "  sweep N=" << n << ": Eval is not monotone (r "
                << prev_r << " -> " << rn << ", s " << prev_s << " -> "
                << sn << ")\n";
      ++failures;
    }
    prev_r = rn;
    prev_s = sn;
    if (!entry.options.declared.has_value()) continue;
    const rstlab::core::ResourceClass& declared = *entry.options.declared;
    if (!r.unbounded() && rn > declared.r_of_n(n)) {
      std::cout << "  sweep N=" << n << ": inferred scan bound "
                << r.ToString() << " = " << rn
                << " exceeds declared r(N) = " << declared.r_of_n(n)
                << " of " << declared.name << "\n";
      ++failures;
    }
    if (!s.unbounded() && sn > declared.s_of_n(n)) {
      std::cout << "  sweep N=" << n << ": inferred internal-space bound "
                << s.ToString() << " = " << sn
                << " exceeds declared s(N) = " << declared.s_of_n(n)
                << " of " << declared.name << "\n";
      ++failures;
    }
  }
  return failures;
}

// Runs the static analyzer over the shipped machine registry, then —
// as the runtime half of the contract — replays each machine's sample
// inputs under random choices and asserts the measured RunCosts never
// exceed the statically certified bounds (RST015 otherwise).
// --symbolic additionally prints each machine's inferred growth
// classes plus the symbolic k-way sort certificate; --check-n-sweep
// re-verifies every symbolic bound across N = 2^8 .. 2^24.
int Check(const std::vector<std::string>& args) {
  std::string selector = "all";
  std::size_t runs = 16;
  bool symbolic = false;
  bool n_sweep = false;
  for (const std::string& arg : args) {
    if (arg.rfind("--runs=", 0) == 0) {
      runs = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--symbolic") {
      symbolic = true;
    } else if (arg == "--check-n-sweep") {
      n_sweep = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag " << arg << " for rstlab check\n";
      return Usage();
    } else {
      selector = arg;
    }
  }

  bool matched = false;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  rstlab::Rng rng(7);
  for (const rstlab::check::CheckedMachine& entry :
       rstlab::check::AllCheckedMachines()) {
    if (selector != "all" && selector != entry.name) continue;
    matched = true;
    const rstlab::check::Analysis analysis =
        rstlab::check::Analyze(entry.spec, entry.options);
    errors += analysis.diagnostics.num_errors();
    warnings += analysis.diagnostics.num_warnings();
    std::cout << entry.name << ": "
              << (analysis.clean() ? "ok" : "FAIL") << "  [static r<="
              << analysis.resources.scan_bound.ToString() << " s<="
              << analysis.resources.total_internal_cells.ToString()
              << " t=" << entry.spec.num_external_tapes << "]";
    if (entry.options.declared.has_value()) {
      std::cout << "  declared " << entry.options.declared->name;
    }
    std::cout << "\n";
    if (symbolic) {
      std::cout << "  growth: r "
                << rstlab::check::GrowthClassName(
                       rstlab::check::GrowthOf(
                           analysis.resources.scan_bound))
                << ", s "
                << rstlab::check::GrowthClassName(
                       rstlab::check::GrowthOf(
                           analysis.resources.total_internal_cells))
                << "\n";
    }
    if (n_sweep) errors += SweepSymbolicBounds(entry, analysis);
    const std::string report = analysis.diagnostics.ToString();
    if (!report.empty()) std::cout << report;

    // Runtime certificate hook over the sample inputs.
    auto tm = rstlab::machine::TuringMachine::Create(entry.spec);
    if (!tm.ok()) {
      std::cout << "  executor rejects spec: " << tm.status() << "\n";
      ++errors;
      continue;
    }
    for (const std::string& input : entry.sample_inputs) {
      for (std::size_t i = 0; i < runs; ++i) {
        const rstlab::machine::RunResult run =
            tm.value().RunRandomized(input, rng, 10000);
        const rstlab::Status certified =
            rstlab::check::CheckCostsAgainstCertificate(
                run.costs, analysis.resources, input.size());
        if (!certified.ok()) {
          std::cout << "  run on \"" << input << "\": " << certified
                    << "\n";
          ++errors;
        }
      }
    }
  }
  for (const rstlab::check::CheckedListMachine& entry :
       rstlab::check::AllCheckedListMachines()) {
    if (selector != "all" && selector != entry.name) continue;
    matched = true;
    const rstlab::check::Diagnostics diag =
        rstlab::check::CheckListMachine(*entry.program, entry.options);
    errors += diag.num_errors();
    warnings += diag.num_warnings();
    std::cout << entry.name << ": " << (diag.clean() ? "ok" : "FAIL");
    if (entry.options.declared.has_value()) {
      std::cout << "  declared " << entry.options.declared->name;
    }
    std::cout << "\n";
    const std::string report = diag.ToString();
    if (!report.empty()) std::cout << report;
  }
  // The symbolic k-way sort certificate: Corollary 7's membership in
  // ST(O(log N), O(1), 2) at the default merge geometry, checked as
  // growth classes — O(log N) scans and O(log N) internal bits, i.e. a
  // constant number of machine words. Any stronger growth is an error.
  if (symbolic && (selector == "all" || selector == "kway-sort")) {
    matched = true;
    const rstlab::sorting::SortConfig config;
    const rstlab::check::SymbolicSortCertificate cert =
        rstlab::check::CertifyKWaySortSymbolic(/*max_field_len=*/64,
                                               config.fanout,
                                               config.run_length);
    const rstlab::check::GrowthClass r_growth =
        rstlab::check::GrowthOf(cert.scan_bound);
    const rstlab::check::GrowthClass s_growth =
        rstlab::check::GrowthOf(cert.internal_bits);
    const bool inside =
        r_growth <= rstlab::check::GrowthClass::kLogarithmic &&
        s_growth <= rstlab::check::GrowthClass::kLogarithmic;
    std::cout << "kway-sort: " << (inside ? "ok" : "FAIL")
              << "  [symbolic " << cert.ToString() << "]  growth: r "
              << rstlab::check::GrowthClassName(r_growth) << ", s(bits) "
              << rstlab::check::GrowthClassName(s_growth)
              << "  declared ST(O(log N), O(1), 2)\n";
    if (!inside) ++errors;
    if (n_sweep) {
      std::uint64_t prev_r = 0;
      std::uint64_t prev_s = 0;
      for (std::size_t n = std::size_t{1} << 8;
           n <= (std::size_t{1} << 24); n <<= 1) {
        const std::uint64_t rn = cert.scan_bound.Eval(n);
        const std::uint64_t sn = cert.internal_bits.Eval(n);
        if (rn < prev_r || sn < prev_s) {
          std::cout << "  sweep N=" << n
                    << ": Eval is not monotone (r " << prev_r << " -> "
                    << rn << ", s " << prev_s << " -> " << sn << ")\n";
          ++errors;
        }
        prev_r = rn;
        prev_s = sn;
      }
    }
  }
  if (!matched) {
    std::cerr << "unknown machine \"" << selector << "\"\n";
    return 2;
  }
  std::cout << errors << " error(s), " << warnings << " warning(s)\n";
  return errors == 0 ? 0 : 1;
}

// Runs the differential conformance harness: every named suite for K
// cases under one seed, after replaying the checked-in corpus (when a
// --corpus directory is given) and/or one explicit --replay triple.
// Output is deterministic — two invocations at equal flags are
// byte-identical — so CI can diff it. Exit 1 on any failure.
int Conform(const std::vector<std::string>& args) {
  std::string selector = "all";
  std::uint64_t seed = 1;
  std::uint64_t cases = 100;
  std::string replay;
  std::string corpus;
  bool selftest = false;
  for (const std::string& arg : args) {
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--cases=", 0) == 0) {
      cases = std::strtoull(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--replay=", 0) == 0) {
      replay = arg.substr(9);
    } else if (arg.rfind("--corpus=", 0) == 0) {
      corpus = arg.substr(9);
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown conform flag " << arg << "\n";
      return 2;
    } else {
      selector = arg;
    }
  }

  using rstlab::conform::CaseId;
  using rstlab::conform::CaseOutcome;

  std::size_t failures = 0;

  // One explicit replay: run just that case, report, and stop.
  if (!replay.empty()) {
    rstlab::Result<CaseId> id = CaseId::Parse(replay);
    if (!id.ok()) {
      std::cerr << "error: " << id.status() << "\n";
      return 2;
    }
    rstlab::Result<CaseOutcome> outcome =
        rstlab::conform::ReplayCase(id.value());
    if (!outcome.ok()) {
      std::cerr << "error: " << outcome.status() << "\n";
      return 2;
    }
    std::cout << id.value().ToString() << ": "
              << (outcome.value().passed ? "ok" : "FAIL") << "\n";
    if (!outcome.value().passed) {
      std::cout << "  " << outcome.value().failure << "\n"
                << "  counterexample: " << outcome.value().counterexample
                << "\n";
      return 1;
    }
    return 0;
  }

  // Corpus replay first: every counterexample the harness ever found
  // stays a permanent regression test.
  if (!corpus.empty()) {
    rstlab::Result<std::vector<CaseId>> ids =
        rstlab::conform::LoadCorpusDir(corpus);
    if (!ids.ok()) {
      std::cerr << "error: " << ids.status() << "\n";
      return 2;
    }
    for (const CaseId& id : ids.value()) {
      if (selector != "all" && selector != id.suite) continue;
      rstlab::Result<CaseOutcome> outcome =
          rstlab::conform::ReplayCase(id);
      if (!outcome.ok()) {
        std::cerr << "error: " << outcome.status() << "\n";
        return 2;
      }
      std::cout << "corpus " << id.ToString() << ": "
                << (outcome.value().passed ? "ok" : "FAIL") << "\n";
      if (!outcome.value().passed) {
        std::cout << "  " << outcome.value().failure << "\n"
                  << "  counterexample: "
                  << outcome.value().counterexample << "\n";
        ++failures;
      }
    }
  }

  // Self-test: inject a known fault into every oracle and demand each
  // suite reports at least one shrunk, replayable failure. A suite
  // that stays green while its subject is broken is the real failure.
  if (selftest) {
    rstlab::conform::SetFaultInjection(true);
    std::size_t blind_suites = 0;
    bool matched = false;
    for (const rstlab::conform::Suite* suite :
         rstlab::conform::AllSuites()) {
      if (selector != "all" && selector != suite->name()) continue;
      matched = true;
      const rstlab::conform::SuiteReport report =
          rstlab::conform::RunSuite(*suite, seed, cases);
      std::cout << suite->name() << ": injected fault "
                << (report.passed() ? "NOT DETECTED" : "detected") << " ("
                << report.failures.size() << "/" << cases
                << " cases failed)\n";
      if (report.passed()) ++blind_suites;
    }
    rstlab::conform::SetFaultInjection(false);
    if (!matched) {
      std::cerr << "unknown conformance suite \"" << selector << "\"\n";
      return 2;
    }
    std::cout << blind_suites << " blind suite(s)\n";
    return blind_suites == 0 ? 0 : 1;
  }

  bool matched = false;
  for (const rstlab::conform::Suite* suite :
       rstlab::conform::AllSuites()) {
    if (selector != "all" && selector != suite->name()) continue;
    matched = true;
    const rstlab::conform::SuiteReport report =
        rstlab::conform::RunSuite(*suite, seed, cases);
    std::cout << report.ToString();
    failures += report.failures.size();
  }
  if (!matched) {
    std::cerr << "unknown conformance suite \"" << selector
              << "\"; available:\n";
    for (const rstlab::conform::Suite* suite :
         rstlab::conform::AllSuites()) {
      std::cerr << "  " << suite->name() << "  -  "
                << suite->description() << "\n";
    }
    return 2;
  }
  std::cout << failures << " failing case(s)\n";
  return failures == 0 ? 0 : 1;
}

// Runs the experiment daemon until SIGINT/SIGTERM, then drains every
// in-flight trial and exits 0 (the graceful-shutdown contract shared
// with the bench binaries).
int Serve(const std::vector<std::string>& args,
          const rstlab::sorting::RunOptions& run) {
  rstlab::serve::ServerOptions options;
  options.run = run;
  for (const std::string& arg : args) {
    if (arg.rfind("--port=", 0) == 0) {
      options.port = static_cast<std::uint16_t>(
          std::strtoul(arg.c_str() + 7, nullptr, 10));
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      options.max_inflight = std::strtoull(arg.c_str() + 15, nullptr, 10);
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      options.max_connections =
          std::strtoull(arg.c_str() + 18, nullptr, 10);
    } else if (arg.rfind("--cache-entries=", 0) == 0) {
      options.cache_entries = std::strtoull(arg.c_str() + 16, nullptr, 10);
    } else if (arg.rfind("--max-generator-cells=", 0) == 0) {
      options.max_generator_cells =
          std::strtoull(arg.c_str() + 22, nullptr, 10);
    } else {
      std::cerr << "unknown flag " << arg << " for rstlab serve\n";
      return Usage();
    }
  }

  rstlab::serve::ShutdownGuard shutdown;
  rstlab::serve::HttpServer server(options);
  const rstlab::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "error: " << started << "\n";
    return 1;
  }
  std::cout << "rstlab serve listening on 127.0.0.1:" << server.port()
            << " (threads=" << options.threads
            << ", max-inflight=" << options.max_inflight << ")"
            << std::endl;

  pollfd waiter{shutdown.wait_fd(), POLLIN, 0};
  while (!shutdown.requested()) {
    ::poll(&waiter, 1, -1);
  }
  std::cout << "shutting down: draining in-flight experiments"
            << std::endl;
  server.Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const rstlab::sorting::RunOptions run =
      rstlab::sorting::ParseRunOptions(&argc, argv);
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();
  const std::string command = args[0];
  args.erase(args.begin());
  if (command == "generate") return Generate(args);
  if (command == "decide") return Decide(args, run);
  if (command == "fingerprint") return Fingerprint(args, run);
  if (command == "sort") return Sort(args, run);
  if (command == "xpath") return XPath(args);
  if (command == "query") return Query(args, run);
  if (command == "check") return Check(args);
  if (command == "conform") return Conform(args);
  if (command == "serve") return Serve(args, run);
  std::cerr << "unknown subcommand \"" << command << "\"\n";
  return Usage();
}
