#ifndef RSTLAB_CHECK_QUERY_CERTIFICATE_H_
#define RSTLAB_CHECK_QUERY_CERTIFICATE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/bound_expr.h"
#include "util/status.h"

namespace rstlab::check {

/// The certificate-relevant shape of one streaming query plan, as the
/// query engine's plan compiler reports it (see
/// query/engine/plan.h::AnalyzePlan). Plain data — the check layer
/// stays independent of the query AST. The key quantity is the
/// *degree* d of a stream: a leaf stream of an N-cell input has at
/// most N fields (degree 1), and a product/join output's field count
/// is the product of its operands', so its degree is the sum. A k-way
/// sort over a degree-d stream therefore runs at most
/// d * ceil(log2 N) / floor(log2 k) + 1 merge passes — which is how
/// plans built from sorts and constant-fold merges stay inside the
/// Theorem 11 envelope r(N) = O(log N).
struct QueryPlanShape {
  /// Spool-lane leaf scans (2 reversals each).
  std::size_t leaf_scans = 0;
  /// Sorted-merge set operators (difference/intersection passes).
  std::size_t merge_ops = 0;
  /// Sort-based merge joins.
  std::size_t joins = 0;
  /// Caller's promise that every join key is unique on the build (B)
  /// side; the equal-key group buffer is then O(1) tuples and the
  /// certificate keeps a constant internal term. Without the promise
  /// the group can hold a whole degree-d stream and the internal bound
  /// gains an N^d term — truthfully pricing the worst case.
  bool joins_unique_keys = true;
  /// Largest stream degree feeding any join's buffered side (0 when
  /// the plan has no joins).
  unsigned join_group_degree = 0;
  /// One entry per spill-lane sort: the degree of its input stream.
  std::vector<unsigned> sort_degrees;
  /// One entry per doubling product: the degree of its output stream.
  std::vector<unsigned> product_degrees;
  /// Total operator count (each buffers at most one batch).
  std::size_t operators = 0;
  /// Longest encoded tuple (cells) any stream of the plan can carry.
  std::size_t max_field_len = 1;
  /// Engine batch size (tuples per Next()).
  std::size_t batch_size = 64;
  /// Sort geometry of the plan's k-way sorts: merge fanout (>= 2) and
  /// formation run length.
  std::size_t fanout = 8;
  std::size_t run_length = 1024;

  /// Renders e.g. "leaves=2 sorts=[1,1] merges=1 joins=0".
  std::string ToString() const;
};

/// The N-parametric admission certificate of one plan shape: symbolic
/// upper bounds on the per-query (r, s) bill the engine may charge on
/// ANY input of N cells. Computed before execution; a measured bill
/// exceeding it is an RST015, and a shape whose bound leaves the
/// Theorem 11/12 class O(log N) is rejected up front with an RST018
/// witness.
struct QueryCertificate {
  QueryPlanShape shape;
  /// Admissible QueryCost::scan_bound (1 + reversals the query charges
  /// beyond the shared input pass).
  BoundExpr scan_bound;
  /// Admissible QueryCost::internal_bits.
  BoundExpr internal_bits;

  std::string ToString() const;
};

/// Computes the certificate for `shape`. Dominance over the engine's
/// deterministic bill is pinned empirically by the query-engine conform
/// suite and the N-sweep property tests.
QueryCertificate CertifyQueryPlan(const QueryPlanShape& shape);

/// RST015 (kCertificateViolated) when a measured per-query bill exceeds
/// `cert` evaluated at input size `n`.
Status CheckQueryCostsAgainstCertificate(std::uint64_t scan_bound,
                                         std::size_t internal_bits,
                                         const QueryCertificate& cert,
                                         std::size_t n);

/// True iff the certified scan bound grows no faster than
/// c * ceil(log2 N) — membership of the plan in the Theorem 11/12 scan
/// class ST(O(log N), ., O(1)).
bool WithinLogScanClass(const QueryCertificate& cert);

/// The Theorem 11 envelope a query plan must stay inside: over every
/// N in [n_lo, n_hi], its certified scan bound at most
/// scan_coeff * ceil(log2 N) and its certified internal bits at most
/// bits_coeff * ceil(log2 N).
struct Theorem11Envelope {
  std::uint64_t scan_coeff;
  std::uint64_t bits_coeff;
  std::size_t n_lo;
  std::size_t n_hi;
};

/// The envelope the query engine's admission gate enforces.
inline constexpr Theorem11Envelope kTheorem11Envelope{
    std::uint64_t{1} << 12, std::uint64_t{1} << 22, std::size_t{1} << 8,
    std::size_t{1} << 24};

/// The admission gate run before executing a plan: RST018
/// (kClassNotDominated) with the smallest power-of-two witness N at
/// which the certified scan bound or internal bits escape
/// `kTheorem11Envelope`. Plans that pass are certified to run inside
/// the envelope over its whole window.
Status CheckTheorem11Envelope(const QueryCertificate& cert);

}  // namespace rstlab::check

#endif  // RSTLAB_CHECK_QUERY_CERTIFICATE_H_
