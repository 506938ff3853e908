#include "check/sort_certificate.h"

#include <algorithm>
#include <sstream>

#include "check/diagnostics.h"

namespace rstlab::check {

namespace {

/// Bits needed to store values in [0, n], mirroring the stmodel counter
/// convention (kept local so the check layer stays free of stmodel).
std::size_t BitsFor(std::size_t n) {
  std::size_t bits = 1;
  while ((n >>= 1) != 0) ++bits;
  return bits;
}

}  // namespace

std::string SortCertificate::ToString() const {
  std::ostringstream os;
  os << "m=" << num_fields << " k=" << fanout << " L=" << run_length
     << " P=" << merge_passes << " r<=" << max_scan_bound
     << " s<=" << max_internal_bits;
  return os.str();
}

SortCertificate CertifyKWaySort(std::size_t num_fields,
                                std::size_t max_field_len,
                                std::size_t input_size, std::size_t fanout,
                                std::size_t run_length) {
  SortCertificate cert;
  cert.num_fields = num_fields;
  cert.fanout = std::max<std::size_t>(2, fanout);
  cert.run_length = std::max<std::size_t>(1, run_length);

  // Ceiling divisions written without the +(d-1) trick: num_fields and
  // the geometry are caller-supplied, so the additive form could wrap
  // near SIZE_MAX and undercount the passes.
  const std::size_t runs = num_fields / cert.run_length +
                           (num_fields % cert.run_length != 0 ? 1 : 0);
  for (std::size_t r = runs; r > 1;
       r = r / cert.fanout + (r % cert.fanout != 0 ? 1 : 0)) {
    ++cert.merge_passes;
  }

  if (num_fields <= 1) {
    // Degenerate inputs return before charging anything: only the
    // counting scan touches the source tape.
    cert.max_scan_bound = 3;
    cert.max_internal_bits = 0;
    return cert;
  }

  // Scan bound: the baseline scan, at most 6 source-tape reversals
  // (three rewind-and-stream passes: count, run formation, writeback at
  // 2 reversals each), plus the canonical scratch bill 4*k*P + 2 that
  // the sort charges through StContext::ChargeScratch. Saturating
  // arithmetic throughout: a caller-supplied geometry near SIZE_MAX
  // must degrade to a (useless but sound) UINT64_MAX bound, never wrap
  // to a small admissible-looking one.
  cert.max_scan_bound = SatAdd(
      9, SatAdd(SatMul(SatMul(4, cert.fanout), cert.merge_passes), 2));

  // Internal bits: the persistent counter block (k + 3 counters wide
  // enough for N), plus the larger of the two phase allocations — the
  // formation run buffer (run_length records) and the merge's k record
  // buffers with two position counters per way. One bit per buffered
  // 0/1 character, as the sort bills it. The trailing slack
  // absorbs rounding, never an asymptotic term.
  const std::size_t ctr = BitsFor(std::max<std::size_t>(1, input_size));
  const std::size_t record = std::max<std::size_t>(1, max_field_len);
  const std::uint64_t formation_bits = SatMul(cert.run_length, record);
  const std::uint64_t merge_bits = SatAdd(
      SatMul(cert.fanout, record), SatMul(SatMul(2, cert.fanout), ctr));
  cert.max_internal_bits =
      SatAdd(SatMul(SatAdd(cert.fanout, 3), ctr),
             SatAdd(std::max(formation_bits, merge_bits), 64));
  return cert;
}

Status CheckSortCostsAgainstCertificate(const tape::ResourceReport& report,
                                        const SortCertificate& cert) {
  if (report.scan_bound > cert.max_scan_bound) {
    std::ostringstream os;
    os << CodeName(Code::kCertificateViolated) << ": sort run performed "
       << report.scan_bound << " scans but the certificate ("
       << cert.ToString() << ") allows " << cert.max_scan_bound;
    return Status::ResourceExhausted(os.str());
  }
  if (report.internal_space > cert.max_internal_bits) {
    std::ostringstream os;
    os << CodeName(Code::kCertificateViolated) << ": sort run used "
       << report.internal_space << " internal bits but the certificate ("
       << cert.ToString() << ") allows " << cert.max_internal_bits;
    return Status::ResourceExhausted(os.str());
  }
  return Status::OK();
}

BoundExpr KWayMergePassScans(std::uint64_t fanout, std::uint64_t degree) {
  const std::uint64_t k = std::max<std::uint64_t>(2, fanout);
  std::uint64_t floor_log2_k = 0;
  for (std::uint64_t v = k; v > 1; v >>= 1U) ++floor_log2_k;
  const std::uint64_t per_pass = SatMul(4, k);
  const std::uint64_t numerator = SatMul(per_pass, degree);
  // Ceiling division without the +(d-1) trick, which could wrap.
  const std::uint64_t coeff = numerator / floor_log2_k +
                              (numerator % floor_log2_k != 0 ? 1 : 0);
  return BoundExpr::LogN(coeff) + BoundExpr::Constant(per_pass);
}

std::string SymbolicSortCertificate::ToString() const {
  std::ostringstream os;
  os << "k=" << fanout << " L=" << run_length << " r<=" << scan_bound.ToString()
     << " s<=" << internal_bits.ToString();
  return os.str();
}

SymbolicSortCertificate CertifyKWaySortSymbolic(std::size_t max_field_len,
                                                std::size_t fanout,
                                                std::size_t run_length) {
  SymbolicSortCertificate cert;
  cert.fanout = std::max<std::size_t>(2, fanout);
  cert.run_length = std::max<std::size_t>(1, run_length);
  cert.max_field_len = std::max<std::size_t>(1, max_field_len);
  const std::uint64_t k = cert.fanout;
  const std::uint64_t record = cert.max_field_len;

  // Scans. On an N-cell input there are m <= N fields, so runs <= N.
  // The concrete bill 9 + 4kP + 2 is therefore dominated by
  //   11 + 4k + ceil(4k / floor(log2 k)) * ceil(log2 N)
  // for every N >= 1, which also covers the degenerate m <= 1 bill of 3.
  cert.scan_bound = BoundExpr::Constant(11) + KWayMergePassScans(k, 1);

  // Internal bits. Every counter is BitsFor(N) <= ceil(log2 N) + 1
  // bits wide and there are (k + 3) persistent ones plus 2k merge
  // position counters — (3k + 3) counters total. The record buffers
  // (max(L, k) records) and the 64-bit slack are N-independent.
  const std::uint64_t counters = SatAdd(SatMul(3, k), 3);
  const std::uint64_t buffers = SatMul(
      std::max<std::uint64_t>(cert.run_length, k), record);
  cert.internal_bits =
      BoundExpr::LogN(counters) +
      BoundExpr::Constant(SatAdd(counters, SatAdd(buffers, 64)));
  return cert;
}

Status CheckSortCostsAgainstSymbolicCertificate(
    const tape::ResourceReport& report, const SymbolicSortCertificate& cert,
    std::size_t n) {
  const std::uint64_t scan_cap = cert.scan_bound.Eval(n);
  if (report.scan_bound > scan_cap) {
    std::ostringstream os;
    os << CodeName(Code::kCertificateViolated) << ": sort run performed "
       << report.scan_bound << " scans but the symbolic certificate ("
       << cert.ToString() << ") allows " << scan_cap
       << " at N = " << n;
    return Status::ResourceExhausted(os.str());
  }
  const std::uint64_t bits_cap = cert.internal_bits.Eval(n);
  if (report.internal_space > bits_cap) {
    std::ostringstream os;
    os << CodeName(Code::kCertificateViolated) << ": sort run used "
       << report.internal_space << " internal bits but the symbolic "
       << "certificate (" << cert.ToString() << ") allows " << bits_cap
       << " at N = " << n;
    return Status::ResourceExhausted(os.str());
  }
  return Status::OK();
}

}  // namespace rstlab::check
