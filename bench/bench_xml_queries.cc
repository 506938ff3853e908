// Experiments E12/E13 (Theorems 12/13): the paper's XQuery and XPath
// queries on the XML encoding of SET-EQUALITY instances.
//
// Paper rows reproduced:
//  * the XQuery query returns <result><true/></result> exactly on equal
//    sets (Theorem 12's reduction);
//  * the Figure 1 XPath query selects a node exactly when X - Y is
//    nonempty, and the two-run machine T-tilde built on a compliant
//    filter decides SET-EQUALITY with one-sided error. Measured
//    acceptance probabilities expose a small inaccuracy in the paper:
//    boosting needs three T-tilde rounds, not two, to clear 1/2.

#include <cmath>
#include <iostream>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "driver.h"
#include "problems/generators.h"
#include "problems/reference.h"
#include "query/xml.h"
#include "query/xml_reduction.h"
#include "query/xpath.h"
#include "query/xquery.h"
#include "util/random.h"

namespace {

using rstlab::Rng;
using rstlab::core::FormatDouble;
using rstlab::core::Table;
using namespace rstlab::query;

void RunSemanticsTable() {
  Table table("E12: XQuery / XPath semantics on encoded instances",
              {"m", "n", "doc_bytes", "xquery_correct", "xpath_correct"});
  Rng rng(1212);
  for (std::size_t m : {4u, 16u, 64u, 256u}) {
    const std::size_t n = 16;
    int xquery_ok = 0;
    int xpath_ok = 0;
    std::size_t doc_bytes = 0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
      rstlab::problems::Instance inst =
          t % 2 == 0 ? rstlab::problems::EqualSets(m, n, rng)
                     : rstlab::problems::PerturbedMultisets(m, n, 1, rng);
      XmlDocument doc = EncodeSetInstanceAsXml(inst);
      doc_bytes = SerializeXml(*doc).size();
      const bool equal = rstlab::problems::RefSetEquality(inst);
      const bool query_true = EvaluatePaperXQueryToString(*doc) ==
                              "<result><true></true></result>";
      xquery_ok += query_true == equal;

      // The XPath filter detects X - Y nonempty.
      std::set<std::string> y;
      for (const auto& v : inst.second) y.insert(v.ToString());
      bool x_minus_y = false;
      for (const auto& v : inst.first) {
        if (y.count(v.ToString()) == 0) x_minus_y = true;
      }
      xpath_ok += FilterMatches(*doc, PaperXPathQuery()) == x_minus_y;
    }
    table.AddRow({std::to_string(m), std::to_string(n),
                  std::to_string(doc_bytes),
                  std::to_string(xquery_ok) + "/" + std::to_string(trials),
                  std::to_string(xpath_ok) + "/" +
                      std::to_string(trials)});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void RunTTildeTable() {
  Table table("E13: T-tilde protocol acceptance probabilities",
              {"case", "rounds", "measured", "paper/exact"});
  Rng rng(1313);
  FilterOracle oracle = ModelFilterOracle(0.5);
  rstlab::problems::Instance yes = rstlab::problems::EqualSets(8, 12, rng);
  rstlab::problems::Instance no =
      rstlab::problems::PerturbedMultisets(8, 12, 1, rng);
  const int trials = 20000;

  for (std::size_t rounds : {1u, 2u, 3u, 4u}) {
    int yes_accepts = 0;
    for (int t = 0; t < trials; ++t) {
      yes_accepts += BoostedTTildeAccepts(yes, oracle, rng, rounds);
    }
    const double exact = 1.0 - std::pow(0.75, static_cast<double>(rounds));
    table.AddRow({"X == Y", std::to_string(rounds),
                  FormatDouble(yes_accepts / static_cast<double>(trials)),
                  FormatDouble(exact)});
  }
  int no_accepts = 0;
  for (int t = 0; t < trials; ++t) {
    no_accepts += BoostedTTildeAccepts(no, oracle, rng, 3);
  }
  table.AddRow({"X != Y", "3",
                FormatDouble(no_accepts / static_cast<double>(trials)),
                "0 (rejects surely)"});
  table.Print(std::cout);
  std::cout << "  paper: accept >= 1/4 per round; \"two independent runs\""
               " reach only 1-(3/4)^2 = 0.4375 < 1/2 — three rounds are"
               " needed (measured above)\n\n";
}

void BM_XPathFilter(benchmark::State& state) {
  Rng rng(3);
  rstlab::problems::Instance inst = rstlab::problems::EqualSets(
      static_cast<std::size_t>(state.range(0)), 16, rng);
  XmlDocument doc = EncodeSetInstanceAsXml(inst);
  const XPathPath query = PaperXPathQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterMatches(*doc, query));
  }
}
BENCHMARK(BM_XPathFilter)->Arg(16)->Arg(64)->Arg(256);

void BM_XQueryEval(benchmark::State& state) {
  Rng rng(4);
  rstlab::problems::Instance inst = rstlab::problems::EqualSets(
      static_cast<std::size_t>(state.range(0)), 16, rng);
  XmlDocument doc = EncodeSetInstanceAsXml(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluatePaperXQueryToString(*doc));
  }
}
BENCHMARK(BM_XQueryEval)->Arg(16)->Arg(64)->Arg(256);

void BM_XmlParse(benchmark::State& state) {
  Rng rng(5);
  rstlab::problems::Instance inst = rstlab::problems::EqualSets(
      static_cast<std::size_t>(state.range(0)), 16, rng);
  const std::string text = SerializeXml(*EncodeSetInstanceAsXml(inst));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseXml(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      text.size() * static_cast<std::size_t>(state.iterations())));
}
BENCHMARK(BM_XmlParse)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_xml_queries", [](rstlab::bench::Bench&) {
        RunSemanticsTable();
        RunTTildeTable();
        return 0;
      });
}
