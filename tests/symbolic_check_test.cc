// The symbolic bound engine: BoundExpr algebra and saturation, growth
// inference over the shipped registry across the N sweep, the two new
// diagnostics (RST017 shadowed rule, RST018 dominance witness), and
// the N-parametric k-way sort certificate.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/analyzer.h"
#include "check/bound_expr.h"
#include "check/diagnostics.h"
#include "check/growth.h"
#include "check/registry.h"
#include "check/sort_certificate.h"
#include "core/complexity.h"
#include "machine/machine_builder.h"
#include "tape/resource_meter.h"
#include "util/random.h"

namespace rstlab::check {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

using machine::MachineBuilder;
using machine::MachineSpec;
using machine::Move;

// ---------------------------------------------------------------------
// BoundExpr algebra.
// ---------------------------------------------------------------------

TEST(BoundExprTest, ConstantArithmetic) {
  const BoundExpr five = BoundExpr::Constant(2) + BoundExpr::Constant(3);
  EXPECT_TRUE(five.IsConstant());
  EXPECT_EQ(five.ConstantValue(), 5u);
  const BoundExpr ten = five * BoundExpr::Constant(2);
  EXPECT_EQ(ten.Eval(1), 10u);
  EXPECT_EQ(ten.Eval(1u << 20), 10u);  // constants ignore N
}

TEST(BoundExprTest, PolynomialEvalAndToString) {
  // 3 + 2*logN + N*logN: Eval at N = 1024 (logN = 10).
  const BoundExpr e = BoundExpr::Constant(3) + BoundExpr::LogN(2) +
                      BoundExpr::Linear(1) * BoundExpr::LogN(1);
  EXPECT_EQ(e.Eval(1024), 3u + 2u * 10u + 1024u * 10u);
  EXPECT_EQ(e.ToString(), "3 + 2*logN + N*logN");
  EXPECT_FALSE(e.IsConstant());
  EXPECT_FALSE(e.unbounded());
}

TEST(BoundExprTest, MulDistributesOverTerms) {
  // (1 + N) * (2 + logN) = 2 + logN + 2N + N*logN.
  const BoundExpr product =
      (BoundExpr::Constant(1) + BoundExpr::Linear(1)) *
      (BoundExpr::Constant(2) + BoundExpr::LogN(1));
  const std::size_t n = 1u << 16;  // logN = 16
  EXPECT_EQ(product.Eval(n),
            2u + 16u + 2u * n + static_cast<std::uint64_t>(n) * 16u);
}

TEST(BoundExprTest, MaxIsTermwiseDominator) {
  const BoundExpr a = BoundExpr::Constant(10) + BoundExpr::LogN(1);
  const BoundExpr b = BoundExpr::Constant(2) + BoundExpr::LogN(5);
  const BoundExpr m = BoundExpr::Max(a, b);
  for (std::size_t n : {2u, 256u, 1u << 20}) {
    EXPECT_GE(m.Eval(n), a.Eval(n));
    EXPECT_GE(m.Eval(n), b.Eval(n));
  }
}

TEST(BoundExprTest, UnboundedAbsorbsAndZeroAnnihilates) {
  const BoundExpr top = BoundExpr::Unbounded();
  EXPECT_TRUE(top.unbounded());
  EXPECT_EQ(top.Eval(4), kMax);
  EXPECT_TRUE((top + BoundExpr::Constant(1)).unbounded());
  EXPECT_TRUE((top * BoundExpr::Linear(2)).unbounded());
  // 0 * unbounded = 0: a block that is never entered costs nothing even
  // if its body defies analysis.
  const BoundExpr zero = BoundExpr::Constant(0);
  EXPECT_FALSE((zero * top).unbounded());
  EXPECT_EQ((zero * top).Eval(1u << 20), 0u);
}

TEST(BoundExprTest, CeilLog2MatchesDefinition) {
  EXPECT_EQ(CeilLog2(0), 1u);  // clamped to max(2, n)
  EXPECT_EQ(CeilLog2(1), 1u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(4), 2u);
  EXPECT_EQ(CeilLog2(5), 3u);
  EXPECT_EQ(CeilLog2(1u << 20), 20u);
  EXPECT_EQ(CeilLog2((1u << 20) + 1), 21u);
}

// ---------------------------------------------------------------------
// Saturation at UINT64_MAX-adjacent values (the satellite fix: bound
// accumulation must clamp, never wrap to a small admissible-looking
// number).
// ---------------------------------------------------------------------

TEST(SaturationTest, SatAddBoundary) {
  EXPECT_EQ(SatAdd(kMax - 1, 1), kMax);  // exact, no clamp needed
  EXPECT_EQ(SatAdd(kMax, 0), kMax);
  EXPECT_EQ(SatAdd(kMax, 1), kMax);      // clamped
  EXPECT_EQ(SatAdd(kMax, kMax), kMax);
  EXPECT_EQ(SatAdd(1, kMax - 1), kMax);
}

TEST(SaturationTest, SatMulBoundary) {
  EXPECT_EQ(SatMul(kMax, 0), 0u);
  EXPECT_EQ(SatMul(0, kMax), 0u);
  EXPECT_EQ(SatMul(kMax, 1), kMax);
  EXPECT_EQ(SatMul(kMax / 2, 2), kMax - 1);  // exact
  EXPECT_EQ(SatMul(kMax / 2 + 1, 2), kMax);  // clamped
  EXPECT_EQ(SatMul(kMax, kMax), kMax);
}

TEST(SaturationTest, EvalSaturatesInsteadOfWrapping) {
  const BoundExpr huge = BoundExpr::Constant(kMax) + BoundExpr::Constant(1);
  EXPECT_EQ(huge.Eval(2), kMax);
  const BoundExpr product = BoundExpr::Linear(kMax);
  EXPECT_EQ(product.Eval(3), kMax);
  // N^3 at N = 2^22 overflows 64 bits; Eval must clamp.
  const BoundExpr cubic = BoundExpr::Monomial(1, 3, 0);
  EXPECT_EQ(cubic.Eval(std::size_t{1} << 22), kMax);
}

TEST(SaturationTest, CertifyKWaySortSaturatesAtHugeGeometry) {
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  const SortCertificate cert =
      CertifyKWaySort(huge, huge, huge, huge, huge - 1);
  // Wrapping arithmetic would fold these to small, admissible-looking
  // numbers; saturation pins them to the top.
  EXPECT_EQ(cert.max_internal_bits, huge);
  EXPECT_GE(cert.max_scan_bound, cert.fanout);
  const SymbolicSortCertificate symbolic =
      CertifyKWaySortSymbolic(huge, huge, huge);
  EXPECT_EQ(symbolic.internal_bits.Eval(1u << 20), kMax);
}

// ---------------------------------------------------------------------
// Property: Eval is monotone in N for any expression built from the
// public factories (growth inference and admission both rely on it).
// ---------------------------------------------------------------------

TEST(BoundExprProperty, EvalIsMonotoneInN) {
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    BoundExpr e = BoundExpr::Constant(rng.UniformBelow(100));
    const std::size_t num_terms = 1 + rng.UniformBelow(4);
    for (std::size_t t = 0; t < num_terms; ++t) {
      e += BoundExpr::Monomial(rng.UniformBelow(1u << 20),
                               static_cast<unsigned>(rng.UniformBelow(3)),
                               static_cast<unsigned>(rng.UniformBelow(3)));
    }
    std::uint64_t prev = 0;
    for (std::size_t n = 1; n <= (std::size_t{1} << 32);
         n <<= 1) {
      const std::uint64_t at_n = e.Eval(n);
      ASSERT_GE(at_n, prev) << e.ToString() << " at N = " << n;
      prev = at_n;
    }
  }
}

TEST(BoundExprTest, FindWitnessNLocatesCrossing) {
  // Linear(1) vs a constant envelope of 1000: first power-of-two
  // crossing above 256 is 1024.
  const auto witness = FindWitnessN(
      BoundExpr::Linear(1), [](std::size_t) -> std::uint64_t { return 1000; },
      /*n_lo=*/256, /*n_hi=*/std::size_t{1} << 40);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(*witness, 1024u);
  // A quadratic envelope dominates Linear everywhere in the window.
  const auto none = FindWitnessN(
      BoundExpr::Linear(1),
      [](std::size_t n) -> std::uint64_t {
        return SatMul(static_cast<std::uint64_t>(n), n);
      },
      256, std::size_t{1} << 40);
  EXPECT_FALSE(none.has_value());
}

// ---------------------------------------------------------------------
// Registry sweep: every shipped machine's symbolic certificate stays
// inside its declared envelope at every N in 2^8 .. 2^24.
// ---------------------------------------------------------------------

TEST(RegistrySweepTest, DeclaredEnvelopesDominateAcrossNSweep) {
  for (const CheckedMachine& entry : AllCheckedMachines()) {
    const Analysis analysis = Analyze(entry.spec, entry.options);
    ASSERT_TRUE(analysis.clean())
        << entry.name << ":\n"
        << analysis.diagnostics.ToString();
    const BoundExpr& r = analysis.resources.scan_bound;
    const BoundExpr& s = analysis.resources.total_internal_cells;
    EXPECT_FALSE(r.unbounded()) << entry.name;
    EXPECT_FALSE(s.unbounded()) << entry.name;
    if (!entry.options.declared.has_value()) continue;
    const core::ResourceClass& declared = *entry.options.declared;
    for (std::size_t n = std::size_t{1} << 8; n <= (std::size_t{1} << 24);
         n <<= 1) {
      EXPECT_LE(r.Eval(n), declared.r_of_n(n))
          << entry.name << " scans at N = " << n;
      EXPECT_LE(s.Eval(n), declared.s_of_n(n))
          << entry.name << " cells at N = " << n;
    }
  }
}

TEST(RegistrySweepTest, BalancedZerosOnesInfersLogarithmicSpace) {
  // The flagship of the growth pass: the binary-counter rule must bound
  // the counter machine's internal tape by O(log N) — before the
  // symbolic engine this collapsed to "unbounded".
  const Analysis analysis = Analyze(machine::zoo::BalancedZerosOnes());
  const BoundExpr& cells = analysis.resources.total_internal_cells;
  ASSERT_FALSE(cells.unbounded());
  EXPECT_EQ(GrowthOf(cells), GrowthClass::kLogarithmic);
  EXPECT_EQ(GrowthOf(analysis.resources.scan_bound),
            GrowthClass::kConstant);
}

// ---------------------------------------------------------------------
// RST017: shadowed duplicate rule.
// ---------------------------------------------------------------------

MachineSpec MachineWithDuplicateRule() {
  MachineBuilder b(1, 0);
  b.SetStart(0).AddFinal(100, true).AddFinal(101, false);
  b.On(0, "1").Go(100, "1", {Move::kStay});
  b.On(0, "1").Go(100, "1", {Move::kStay});  // byte-identical twin
  b.On(0, "0").Go(101, "0", {Move::kStay});
  b.On(0, std::string(1, machine::kBlank))
      .Go(101, std::string(1, machine::kBlank), {Move::kStay});
  return b.Build();
}

TEST(NegativeTest, RST017ShadowedRule) {
  const Analysis analysis = Analyze(MachineWithDuplicateRule());
  const Diagnostic* d = analysis.diagnostics.FindCode(Code::kShadowedRule);
  ASSERT_NE(d, nullptr) << analysis.diagnostics.ToString();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->state, 0);
  EXPECT_EQ(d->key, "1");
}

TEST(NegativeTest, RST017SkippedForDeclaredRandomizedMachines) {
  // A biased coin encodes probability 3/5 as duplicate actions — the
  // duplicates carry weight there and must not be flagged.
  AnalyzeOptions options;
  options.declared = core::RstClass("RST(1, 0, 1)", core::ConstScans(1),
                                    core::ConstSpace(0), 1);
  const Analysis analysis =
      Analyze(machine::zoo::BiasedCoin(3, 5), options);
  EXPECT_EQ(analysis.diagnostics.FindCode(Code::kShadowedRule), nullptr)
      << analysis.diagnostics.ToString();
}

// ---------------------------------------------------------------------
// RST018: declared class not dominated, with a concrete witness N.
// ---------------------------------------------------------------------

TEST(NegativeTest, RST018ReportsWitnessN) {
  // 4*logN dominates the counter machine's inferred 2*logN + 22 cells
  // at check_n = 2^20 (80 >= 62) but not at N = 256 (32 < 38): the
  // single-point check passes and the sweep must catch the crossing,
  // naming the witness.
  AnalyzeOptions options;
  options.declared = core::StClass("ST(1, O(log N), 1)",
                                   core::ConstScans(1), core::LogSpace(4.0),
                                   1);
  const Analysis analysis =
      Analyze(machine::zoo::BalancedZerosOnes(), options);
  const Diagnostic* d =
      analysis.diagnostics.FindCode(Code::kClassNotDominated);
  ASSERT_NE(d, nullptr) << analysis.diagnostics.ToString();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("witness N = 256"), std::string::npos)
      << d->message;
  // The point check at check_n holds, so RST011 must not also fire —
  // RST018 owns the asymptotic finding.
  EXPECT_EQ(analysis.diagnostics.FindCode(Code::kSpaceBound), nullptr)
      << analysis.diagnostics.ToString();
}

// ---------------------------------------------------------------------
// The symbolic k-way sort certificate.
// ---------------------------------------------------------------------

TEST(SortSymbolicTest, DominatesConcreteCertificateForEveryM) {
  for (const std::size_t fanout : {2u, 3u, 4u, 8u, 16u}) {
    for (const std::size_t run_length : {1u, 8u}) {
      const SymbolicSortCertificate symbolic =
          CertifyKWaySortSymbolic(/*max_field_len=*/8, fanout, run_length);
      for (const std::size_t m :
           {0u, 1u, 2u, 17u, 256u, 4096u, 4097u, 65536u}) {
        // m fields of <= 8 payload cells occupy at most 9m input cells
        // (and at least m); any N >= m is a valid size for the instance.
        for (const std::size_t n : {std::max<std::size_t>(1, m), 9 * m}) {
          if (n == 0) continue;
          const SortCertificate concrete =
              CertifyKWaySort(m, 8, n, fanout, run_length);
          EXPECT_GE(symbolic.scan_bound.Eval(n), concrete.max_scan_bound)
              << "m=" << m << " N=" << n << " k=" << fanout
              << " L=" << run_length;
          EXPECT_GE(symbolic.internal_bits.Eval(n),
                    concrete.max_internal_bits)
              << "m=" << m << " N=" << n << " k=" << fanout
              << " L=" << run_length;
        }
      }
    }
  }
}

TEST(SortSymbolicTest, MergePassChargeCoversEveryRunCount) {
  // 4k * ceil(log_k R) <= KWayMergePassScans(k, d) at N for every run
  // count R <= N^d: the floor(log2 k) division is sound at every fanout,
  // including the non-powers of two, and at R just past a power of k.
  for (std::uint64_t k = 2; k <= 17; ++k) {
    for (const unsigned d : {1u, 2u}) {
      const BoundExpr charge = KWayMergePassScans(k, d);
      for (std::uint64_t n = 1; n <= (std::uint64_t{1} << 20);
           n = n * 3 / 2 + 1) {
        const std::uint64_t runs = d == 1 ? n : n * n;
        std::uint64_t passes = 0;
        for (std::uint64_t r = runs; r > 1; r = (r + k - 1) / k) ++passes;
        EXPECT_GE(charge.Eval(n), 4 * k * passes)
            << "k=" << k << " d=" << d << " N=" << n;
      }
    }
  }
  // The coefficient shrinks by floor(log2 k): 32 / 3 -> 11 at k = 8.
  EXPECT_EQ(KWayMergePassScans(8, 1).Eval(1 << 10), 11u * 10 + 32);
}

TEST(SortSymbolicTest, GrowthIsLogarithmicInBothResources) {
  // Corollary 7's ST(O(log N), O(1), 2): O(log N) scans and O(log N)
  // bits — a constant number of machine words.
  const SymbolicSortCertificate cert = CertifyKWaySortSymbolic(64, 16, 1024);
  EXPECT_EQ(GrowthOf(cert.scan_bound), GrowthClass::kLogarithmic);
  EXPECT_EQ(GrowthOf(cert.internal_bits), GrowthClass::kLogarithmic);
}

TEST(SortSymbolicTest, ViolationFiresRst015AtTheRunsOwnN) {
  const SymbolicSortCertificate cert = CertifyKWaySortSymbolic(8, 4, 8);
  tape::ResourceReport report;
  report.scan_bound = SatAdd(cert.scan_bound.Eval(1024), 1);
  const Status scans =
      CheckSortCostsAgainstSymbolicCertificate(report, cert, 1024);
  ASSERT_FALSE(scans.ok());
  EXPECT_NE(scans.message().find("RST015"), std::string::npos);
  EXPECT_NE(scans.message().find("N = 1024"), std::string::npos);
  // The same bill is admissible at a larger N, where the envelope is
  // wider — the certificate is a function of the run's own size.
  EXPECT_TRUE(CheckSortCostsAgainstSymbolicCertificate(
                  report, cert, std::size_t{1} << 30)
                  .ok());
}

}  // namespace
}  // namespace rstlab::check
