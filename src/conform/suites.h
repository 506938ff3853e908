#ifndef RSTLAB_CONFORM_SUITES_H_
#define RSTLAB_CONFORM_SUITES_H_

#include <memory>

#include "conform/oracle.h"

namespace rstlab::conform {

/// Factories for the shipped differential oracles. `AllSuites()` owns
/// one instance of each; the factories exist so tests can construct a
/// suite in isolation.

/// Model vs mem-Tape vs file-Tape: random op sequences replayed on a
/// 20-line reference head/reversal model (Definition 1 semantics) and
/// on `tape::Tape` over both storage backends; every observable —
/// symbol under head, head position, direction, rev(rho), cells used —
/// must agree after every op, and final contents must match.
std::unique_ptr<Suite> MakeTapeBackendSuite();

/// Per-cell field walks vs bulk field walks: random `0`/`1`/`#` tape
/// contents (with stray blanks and unterminated last fields) and random
/// sequences of SkipField, ReadField, CopyField, CompareFields,
/// CountFields, AtEnd, Seek and MoveLeft over two tapes, replayed on
/// per-cell reference loops over the head model and on the stmodel
/// primitives over mem and 16-cell-block file tapes; every returned
/// value, both heads, directions, reversal counts and cells used must
/// agree after every op, and both final contents must match.
std::unique_ptr<Suite> MakeTapeFieldsSuite();

/// 1-thread vs N-thread `TrialRunner`: the merged tally (including a
/// non-associative double sum) must be bit-identical for any thread
/// count at fixed chunking.
std::unique_ptr<Suite> MakeTrialTallySuite();

/// TM vs NLM (Lemma 16): for random machines, inputs and choice
/// sequences, the simulated list machine must agree with the Turing
/// machine on halting, acceptance and per-tape reversal counts.
std::unique_ptr<Suite> MakeTmNlmSuite();

/// Static certificate vs measured run (RST015): `check::Analyze`'s
/// per-tape reversal and internal-cell bounds must dominate the
/// measured `RunCosts` of every random run, over the shipped machine
/// registry and freshly generated random machines.
std::unique_ptr<Suite> MakeCertificateSuite();

/// Symbolic certificate vs measured run at the run's own N
/// (check-symbolic): over seeded instances whose sizes sweep powers of
/// two, the measured (r, s) of registry machines and of the k-way sort
/// must stay inside the `BoundExpr` envelope evaluated at that N, and
/// `BoundExpr::Eval` must be monotone across the static sweep
/// 2^8 .. 2^24.
std::unique_ptr<Suite> MakeSymbolicCheckSuite();

/// Reference deciders vs `sorting/deciders` on SET-EQUALITY,
/// MULTISET-EQUALITY and CHECK-SORT, on both storage backends; the two
/// tape runs must also bill identical (r, s) costs.
std::unique_ptr<Suite> MakeDeciderSuite();

/// 1-thread vs N-thread vs file-backend parallel k-way sort: the sorted
/// tape and the measured (r, s) bill must be bit-identical at every
/// thread count and on both backends, and a sort failed mid-flight must
/// leave no spill files in the tape directory.
std::unique_ptr<Suite> MakeSortSuite();

/// 1-process vs N-shard `rstlab serve` deployment: a mixed request
/// workload routed through `ShardRouter` over loopback must answer
/// byte-identical result frames in both deployments — every response
/// is a pure function of its request payload.
std::unique_ptr<Suite> MakeServeShardSuite();

/// Streaming query engine vs in-memory reference evaluator: every plan
/// of the depth family must return the same relation on mem and file
/// backends at 1 and N threads with bit-identical per-query (r, s)
/// bills, and a finished shared scan must leave no resident cache
/// blocks or live file storages.
std::unique_ptr<Suite> MakeQueryEngineSuite();

/// XML serializer vs parser: serialize-parse-serialize must be the
/// identity on generated documents (the encoding side of the
/// Theorem 12/13 pipelines).
std::unique_ptr<Suite> MakeXmlRoundTripSuite();

/// Scalar vs SIMD fingerprint batches: `BatchFingerprintEngine` sums
/// and verdicts must be bit-identical at every lane width (scalar /
/// lanes4 / lanes8), the batched Claim 1 estimator must be
/// thread-count invariant, and the hardened tape tester must accept
/// exactly the non-empty `Instance::Parse`-able encodings.
std::unique_ptr<Suite> MakeFingerprintBatchSuite();

}  // namespace rstlab::conform

#endif  // RSTLAB_CONFORM_SUITES_H_
