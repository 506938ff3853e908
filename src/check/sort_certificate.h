#ifndef RSTLAB_CHECK_SORT_CERTIFICATE_H_
#define RSTLAB_CHECK_SORT_CERTIFICATE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "check/bound_expr.h"
#include "tape/resource_meter.h"
#include "util/status.h"

namespace rstlab::check {

/// Static cost certificate for one parallel k-way external merge sort
/// (`sorting::ParallelSortFieldsOnTape`) — the Corollary 7 upper bound
/// made checkable: admissible scan bound Theta(fanout * log_fanout m)
/// and internal bits independent of N for constant-length fields. The
/// bounds are exact closed forms of the implementation's deterministic
/// bill (source-tape scans plus the canonical 2k-tape scratch formula),
/// so a compliant run passes at every thread count and on every
/// backend, and any drift in the billing is an RST015.
struct SortCertificate {
  /// m, the number of fields certified for.
  std::size_t num_fields = 0;
  /// Merge fanout k and formation run length the bound is computed at.
  std::size_t fanout = 0;
  std::size_t run_length = 0;
  /// Expected merge passes P = ceil(log_fanout(ceil(m / run_length))).
  std::size_t merge_passes = 0;
  /// Admissible scan bound (1 + total reversals) for the sort alone:
  /// 4 * fanout * P + 2 scratch reversals, at most 6 source-tape
  /// reversals, plus the baseline scan.
  std::uint64_t max_scan_bound = 0;
  /// Admissible internal bits: run buffer, fanout record buffers,
  /// loser-tree registers and counters.
  std::size_t max_internal_bits = 0;

  /// Renders e.g. "m=4096 k=16 P=2 r<=139 s<=...".
  std::string ToString() const;
};

/// Computes the certificate for sorting `num_fields` fields of payload
/// length at most `max_field_len` cells, on an input of `input_size`
/// cells, at the given merge geometry.
SortCertificate CertifyKWaySort(std::size_t num_fields,
                                std::size_t max_field_len,
                                std::size_t input_size, std::size_t fanout,
                                std::size_t run_length);

/// RST015 (kCertificateViolated) when `report` — the measured costs of
/// a context that ran exactly one certified sort — exceeds `cert`.
Status CheckSortCostsAgainstCertificate(const tape::ResourceReport& report,
                                        const SortCertificate& cert);

/// The merge-pass share of a k-way sort's scan bill over a degree-d
/// stream (at most N^d fields, hence at most N^d runs), for every N:
/// P = ceil(log_k runs) <= d * ceil(log2 N) / floor(log2 k) + 1 passes
/// of 4k scratch reversals each, so
///   4kP <= ceil(4kd / floor(log2 k)) * ceil(log2 N) + 4k.
BoundExpr KWayMergePassScans(std::uint64_t fanout, std::uint64_t degree);

/// The N-parametric form of the k-way sort certificate, valid for
/// *every* input of N cells at the given geometry: on N cells there
/// are m <= N '#'-terminated fields, so runs <= N and the scratch bill
/// 4*k*P + 2 is `KWayMergePassScans(k, 1)` + 2 — O(log N) scans with
/// a coefficient that shrinks by floor(log2 k). The counter block
/// (k + 3 counters of BitsFor(N) bits each, plus two position
/// counters per merge way) is O(log N) bits — a constant number of
/// machine words. This is Corollary 7's ST(O(log N), O(1), 2)
/// membership made checkable at any concrete N.
struct SymbolicSortCertificate {
  std::size_t fanout = 0;
  std::size_t run_length = 0;
  std::size_t max_field_len = 0;
  /// Admissible scan bound r(N) and internal bits s(N).
  BoundExpr scan_bound;
  BoundExpr internal_bits;

  /// Renders e.g. "k=16 L=1024 r<=75 + 16*logN s<=...".
  std::string ToString() const;
};

/// Computes the symbolic certificate for sorting fields of payload
/// length at most `max_field_len` cells at the given merge geometry.
/// Dominates `CertifyKWaySort(m, max_field_len, n, fanout,
/// run_length)` for every m <= n.
SymbolicSortCertificate CertifyKWaySortSymbolic(std::size_t max_field_len,
                                                std::size_t fanout,
                                                std::size_t run_length);

/// RST015 when `report` exceeds the symbolic certificate evaluated at
/// the run's actual input size `n`.
Status CheckSortCostsAgainstSymbolicCertificate(
    const tape::ResourceReport& report, const SymbolicSortCertificate& cert,
    std::size_t n);

}  // namespace rstlab::check

#endif  // RSTLAB_CHECK_SORT_CERTIFICATE_H_
