#ifndef RSTLAB_QUERY_ENGINE_OPERATOR_H_
#define RSTLAB_QUERY_ENGINE_OPERATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "extmem/storage.h"
#include "obs/metrics.h"
#include "sorting/sort_config.h"
#include "tape/resource_meter.h"
#include "util/status.h"

namespace rstlab::query::engine {

/// One pull of tuples from a stream operator: a batch of encoded tuple
/// payloads ("v1,v2,..." — the stack-tape field encoding of the
/// Theorem 11 evaluator) plus an end-of-stream marker. A batch may be
/// empty only when `at_end` is set.
struct TupleBatch {
  std::vector<std::string> tuples;
  bool at_end = false;
};

/// Engine knobs. Everything that shapes the computation (batch size,
/// sort geometry) is thread-count- and backend-independent, so query
/// results and (r, s) bills are bit-identical across `threads`, across
/// storage backends and across shared-scan co-tenants — the identity
/// the `query-engine` conform suite enforces.
struct EngineConfig {
  /// Tuples per Next() batch (also the internal-memory granularity the
  /// pipeline buffers are metered at).
  std::size_t batch_size = 64;
  /// Sort geometry for the operators' k-way spill-lane sorts.
  sorting::SortConfig sort = sorting::DefaultSortConfig();
  /// Worker threads for shared-scan evaluation of registered queries.
  std::size_t threads = 1;
  /// Test hook: Sort/Join operators fail (Status) after draining their
  /// child but before sorting — exercises the mid-stream
  /// cleanup-on-error path, like `SortConfig::inject_failure_before_merge`
  /// one layer down. Never set outside tests.
  bool inject_failure_in_sort = false;
  /// When set, per-query cost totals are published as `query.*`
  /// counters/gauges after each ExecuteSharedScan.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The per-query (r, s) bill of one streaming evaluation, in the units
/// of Definition 1. The shared input pass is billed once on the caller's
/// context; everything an individual query additionally incurs — spool
/// passes, spill-lane sorts, join group rescans, pipeline buffers — is
/// metered here, deterministically, so the bill is bit-identical on both
/// storage backends and at every thread count.
struct QueryCost {
  /// 1 + reversals this query charged (spool passes, scratch sorts,
  /// rescans). The paper's r(N) bounds this.
  std::uint64_t scan_bound = 1;
  /// High-water internal bits (pipeline buffers + sort internal state).
  std::size_t internal_bits = 0;
  /// External scratch cells used (spill lanes, operand tapes).
  std::size_t external_cells = 0;
  /// Number of spill-lane sorts executed.
  std::uint64_t sorts = 0;
  /// Tuples the root operator emitted.
  std::uint64_t tuples_out = 0;

  /// Renders e.g. "r=9 s=1664 ext=128 sorts=2 out=5".
  std::string ToString() const;

  /// True iff the (r, s) bills agree (the conform-suite identity;
  /// external cells and sort counts included, tuples_out excluded since
  /// it is implied by the result multiset).
  bool SameBill(const QueryCost& other) const {
    return scan_bound == other.scan_bound &&
           internal_bits == other.internal_bits &&
           external_cells == other.external_cells && sorts == other.sorts;
  }
};

/// Deterministic accumulator for one query's QueryCost. Operators call
/// the Charge* methods with values derived only from the data (never
/// from wall time, thread identity or cache state).
class CostMeter {
 public:
  /// `reversals` extra head-direction changes (e.g. 2 per sequential
  /// pass + rewind of a spool lane or scratch tape).
  void ChargeReversals(std::uint64_t reversals) {
    cost_.scan_bound += reversals;
  }

  /// Folds the measured report of a private scratch context (a sort's
  /// spill lanes, a product's operand tapes) into the bill.
  void FoldScratch(const tape::ResourceReport& report) {
    cost_.scan_bound += report.scan_bound - 1;
    cost_.external_cells += report.external_space;
    RaiseInternal(report.internal_space);
  }

  /// Raises the internal high-water mark to at least `bits`.
  void RaiseInternal(std::size_t bits) {
    cost_.internal_bits = std::max(cost_.internal_bits, bits);
  }

  void CountSort() { ++cost_.sorts; }
  void CountTuplesOut(std::uint64_t n) { cost_.tuples_out += n; }

  const QueryCost& cost() const { return cost_; }

 private:
  QueryCost cost_;
};

/// Everything an operator needs besides its children: the engine
/// config, the storage recipe for scratch lanes (the caller context's
/// own backend, like the parallel sort's spill lanes) and the query's
/// cost meter. Plain pointers — the executor owns the pointees for the
/// lifetime of the pipeline.
struct OperatorEnv {
  const EngineConfig* config = nullptr;
  const extmem::StorageOptions* storage = nullptr;
  CostMeter* cost = nullptr;
};

/// A pull-based stream operator over tuple batches — the volcano
/// iterator of the engine, with explicit resource lifecycle:
///
///   Open()  acquires scratch resources and opens children;
///   Next()  returns the next batch (at_end once exhausted; calling
///           again after at_end stays at_end);
///   Close() releases every scratch resource (spill lanes, scratch
///           contexts, buffered groups). Idempotent, and safe to call
///           after a failed Open/Next — the operator-lifecycle tests
///           drive exactly those paths.
///
/// Operators are single-use: one Open/Next*/Close cycle per instance.
class StreamOperator {
 public:
  virtual ~StreamOperator() = default;

  virtual Status Open() = 0;
  virtual Result<TupleBatch> Next() = 0;
  virtual void Close() = 0;
};

using StreamOperatorPtr = std::unique_ptr<StreamOperator>;

}  // namespace rstlab::query::engine

#endif  // RSTLAB_QUERY_ENGINE_OPERATOR_H_
