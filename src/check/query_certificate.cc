#include "check/query_certificate.h"

#include <algorithm>
#include <sstream>

#include "check/diagnostics.h"
#include "check/sort_certificate.h"

namespace rstlab::check {

std::string QueryPlanShape::ToString() const {
  std::ostringstream os;
  os << "leaves=" << leaf_scans << " sorts=[";
  for (std::size_t i = 0; i < sort_degrees.size(); ++i) {
    if (i > 0) os << ',';
    os << sort_degrees[i];
  }
  os << "] merges=" << merge_ops << " joins=" << joins
     << (joins > 0 && !joins_unique_keys ? "(dup-keys)" : "")
     << " products=[";
  for (std::size_t i = 0; i < product_degrees.size(); ++i) {
    if (i > 0) os << ',';
    os << product_degrees[i];
  }
  os << "] L=" << max_field_len;
  return os.str();
}

std::string QueryCertificate::ToString() const {
  return shape.ToString() + " r<=" + scan_bound.ToString() +
         " s<=" + internal_bits.ToString();
}

QueryCertificate CertifyQueryPlan(const QueryPlanShape& shape) {
  QueryCertificate cert;
  cert.shape = shape;
  cert.shape.max_field_len = std::max<std::size_t>(1, shape.max_field_len);
  cert.shape.batch_size = std::max<std::size_t>(1, shape.batch_size);
  const std::uint64_t record = cert.shape.max_field_len;
  const std::uint64_t k = std::max<std::size_t>(2, shape.fanout);
  const std::uint64_t run = std::max<std::size_t>(1, shape.run_length);

  // --- Scans ---------------------------------------------------------
  // Baseline + 2 reversals per lane pass, merge and join streams are
  // pull-through (no reversals of their own, slack 2 each).
  BoundExpr scans = BoundExpr::Constant(
      SatAdd(8, SatAdd(SatMul(2, shape.leaf_scans),
                       SatMul(2, SatAdd(shape.merge_ops, shape.joins)))));
  // Each spill-lane sort over a degree-d stream: its merge passes at
  // 4k scratch reversals each (KWayMergePassScans), plus the drain, the
  // read-out scan and per-sort constants.
  for (const unsigned d : shape.sort_degrees) {
    scans += KWayMergePassScans(k, d) + BoundExpr::Constant(16);
  }
  // Each doubling product of output degree d: ceil(log2 |A|) <=
  // d*ceil(log2 N) doublings at <= 8 reversals each, plus drains and
  // the pairing pass.
  for (const unsigned d : shape.product_degrees) {
    scans += BoundExpr::LogN(SatMul(8, d)) + BoundExpr::Constant(16);
  }
  cert.scan_bound = scans;

  // --- Internal bits -------------------------------------------------
  // Every operator buffers at most one batch of records (8 bits per
  // cell, '#' and slack included), coexisting across the pipeline.
  const std::uint64_t batch_bits =
      SatMul(SatMul(8, cert.shape.batch_size), SatAdd(record, 2));
  BoundExpr bits = BoundExpr::Constant(
      SatAdd(512, SatMul(std::max<std::size_t>(1, shape.operators),
                         batch_bits)));
  // Per sort: the sorter's own record buffers (formation run / fanout
  // ways, N-independent) plus counter blocks of d*ceil(log2 N) bits.
  for (const unsigned d : shape.sort_degrees) {
    const std::uint64_t buffers =
        SatMul(SatAdd(SatAdd(run, k), 8), SatMul(8, SatAdd(record, 2)));
    const std::uint64_t counters = SatAdd(SatMul(3, k), 35);
    bits += BoundExpr::Constant(SatAdd(buffers, counters)) +
            BoundExpr::LogN(SatMul(counters, d));
  }
  // Per product: the two field buffers plus doubling counters.
  for (const unsigned d : shape.product_degrees) {
    bits += BoundExpr::Constant(SatMul(32, SatAdd(record, 2))) +
            BoundExpr::LogN(SatMul(64, d));
  }
  // Join group buffer: one tuple cluster per key. With unique build
  // keys it is O(1) records; with duplicates it can hold the whole
  // degree-d build stream — priced as N^d records, which (correctly)
  // expels such plans from the constant-space class.
  if (shape.joins > 0) {
    const std::uint64_t group_record = SatMul(8, SatAdd(record, 2));
    if (shape.joins_unique_keys) {
      bits += BoundExpr::Constant(SatMul(4, group_record));
    } else {
      const unsigned d = std::max(1u, shape.join_group_degree);
      bits += BoundExpr::Monomial(group_record, d, 0);
    }
  }
  cert.internal_bits = bits;
  return cert;
}

Status CheckQueryCostsAgainstCertificate(std::uint64_t scan_bound,
                                         std::size_t internal_bits,
                                         const QueryCertificate& cert,
                                         std::size_t n) {
  const std::uint64_t scan_cap = cert.scan_bound.Eval(n);
  if (scan_bound > scan_cap) {
    std::ostringstream os;
    os << CodeName(Code::kCertificateViolated) << ": query performed "
       << scan_bound << " scans but the plan certificate ("
       << cert.ToString() << ") allows " << scan_cap << " at N = " << n;
    return Status::ResourceExhausted(os.str());
  }
  const std::uint64_t bits_cap = cert.internal_bits.Eval(n);
  if (internal_bits > bits_cap) {
    std::ostringstream os;
    os << CodeName(Code::kCertificateViolated) << ": query used "
       << internal_bits << " internal bits but the plan certificate ("
       << cert.ToString() << ") allows " << bits_cap << " at N = " << n;
    return Status::ResourceExhausted(os.str());
  }
  return Status::OK();
}

bool WithinLogScanClass(const QueryCertificate& cert) {
  return cert.scan_bound.Order() <= std::make_pair(0u, 1u);
}

Status CheckTheorem11Envelope(const QueryCertificate& cert) {
  const auto [scan_coeff, bits_coeff, n_lo, n_hi] = kTheorem11Envelope;
  const std::optional<std::size_t> scan_witness = FindWitnessN(
      cert.scan_bound,
      [scan_coeff](std::size_t n) { return SatMul(scan_coeff, CeilLog2(n)); },
      n_lo, n_hi);
  if (scan_witness.has_value()) {
    std::ostringstream os;
    os << CodeName(Code::kClassNotDominated) << ": certified scan bound "
       << cert.scan_bound.ToString() << " escapes the Theorem 11 envelope "
       << scan_coeff << "*ceil(log2 N) at witness N = " << *scan_witness;
    return Status::ResourceExhausted(os.str());
  }
  const std::optional<std::size_t> bits_witness = FindWitnessN(
      cert.internal_bits,
      [bits_coeff](std::size_t n) { return SatMul(bits_coeff, CeilLog2(n)); },
      n_lo, n_hi);
  if (bits_witness.has_value()) {
    std::ostringstream os;
    os << CodeName(Code::kClassNotDominated) << ": certified internal bits "
       << cert.internal_bits.ToString()
       << " escape the Theorem 11 envelope " << bits_coeff
       << "*ceil(log2 N) at witness N = " << *bits_witness;
    return Status::ResourceExhausted(os.str());
  }
  return Status::OK();
}

}  // namespace rstlab::check
