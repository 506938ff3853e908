#ifndef RSTLAB_PARALLEL_TRIAL_RUNNER_H_
#define RSTLAB_PARALLEL_TRIAL_RUNNER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.h"
#include "parallel/seed_sequence.h"
#include "parallel/thread_pool.h"

namespace rstlab::parallel {

/// Maps a trial range [0, trials) over a fixed thread pool in chunks and
/// reduces per-chunk tallies deterministically.
///
/// Reproducibility contract:
///  * chunk boundaries depend only on `trials` (never on the thread
///    count), so the grouping of partial reductions is fixed;
///  * chunk tallies are merged in ascending chunk order on the calling
///    thread after all workers finish;
///  * per-trial randomness, when needed, comes from a `SeedSequence`
///    indexed by the trial number.
/// Together these make every tally bit-identical for any `--threads`
/// value — including non-associative reductions such as floating-point
/// sums.
///
/// A `Tally` type must be default-constructible and provide
/// `void Merge(const Tally&)`.
class TrialRunner {
 public:
  /// A runner over `threads` workers (0 is clamped to 1; a runner of
  /// one runs every trial on the caller and starts no thread).
  /// `chunks_hint` caps the number of chunks a range is split into; it
  /// only trades scheduling granularity for task overhead and never
  /// affects results.
  explicit TrialRunner(std::size_t threads, std::size_t chunks_hint = 128)
      : pool_(threads), chunks_hint_(chunks_hint == 0 ? 1 : chunks_hint) {}

  std::size_t threads() const { return pool_.thread_count(); }

  /// Installs `sink` (nullptr detaches). A traced runner emits one
  /// kTrialBegin/kTrialEnd pair per trial, stamped with the trial
  /// number. Events arrive from worker threads concurrently, so the
  /// sink must be thread-safe (every sink in src/obs is); their
  /// arrival order across trials is scheduling-dependent, but the
  /// per-trial stamps let a consumer re-group them deterministically.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Runs `body(trial, tally)` for every trial in [0, trials) and
  /// returns the merged tally. `body` must be callable concurrently
  /// from multiple threads (each invocation gets its chunk-local tally).
  /// Exceptions thrown by `body` propagate to the caller.
  template <typename Tally, typename Body>
  Tally Run(std::uint64_t trials, Body&& body) {
    const std::vector<ChunkBounds> chunks = PartitionTrials(trials);
    std::vector<Tally> partial(chunks.size());
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      pool_.Submit([&, c] {
        Tally local;
        for (std::uint64_t t = chunks[c].begin; t < chunks[c].end; ++t) {
          if (trace_ != nullptr) {
            trace_->OnEvent(
                obs::MakeTrialEvent(obs::EventKind::kTrialBegin, t));
          }
          body(t, local);
          if (trace_ != nullptr) {
            trace_->OnEvent(
                obs::MakeTrialEvent(obs::EventKind::kTrialEnd, t));
          }
        }
        partial[c] = std::move(local);
      });
    }
    pool_.Wait();
    Tally merged;
    for (const Tally& tally : partial) merged.Merge(tally);
    return merged;
  }

  /// As Run, but additionally hands `body` a per-trial Rng derived from
  /// `seeds`: `body(trial, rng, tally)`.
  template <typename Tally, typename Body>
  Tally RunSeeded(std::uint64_t trials, const SeedSequence& seeds,
                  Body&& body) {
    return Run<Tally>(trials,
                      [&seeds, &body](std::uint64_t trial, Tally& tally) {
                        Rng rng = seeds.RngForTrial(trial);
                        body(trial, rng, tally);
                      });
  }

  /// Maps [0, trials) in fixed-width groups for batched (SIMD-lane)
  /// bodies: group g covers trials [g*lanes, min((g+1)*lanes, trials))
  /// and runs as ONE unit — `body(first_trial, count, rng, tally)` with
  /// an Rng derived from the group's first trial index. The group
  /// layout is a pure function of (trials, lanes), so the
  /// reproducibility contract above carries over verbatim: a batched
  /// tally is bit-identical at any thread count. It intentionally
  /// differs from RunSeeded's (one Rng per trial), because a batch
  /// draws all of its lanes' randomness from one stream; compare
  /// batched runs only with batched runs of the same lane width.
  template <typename Tally, typename Body>
  Tally RunSeededBatches(std::uint64_t trials, std::uint64_t lanes,
                         const SeedSequence& seeds, Body&& body) {
    const std::uint64_t width = lanes == 0 ? 1 : lanes;
    const std::uint64_t groups = (trials + width - 1) / width;
    return Run<Tally>(
        groups, [&seeds, &body, trials, width](std::uint64_t group,
                                               Tally& tally) {
          const std::uint64_t first = group * width;
          const std::uint64_t count = std::min(width, trials - first);
          Rng rng = seeds.RngForTrial(first);
          body(first, count, rng, tally);
        });
  }

 private:
  struct ChunkBounds {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  /// Splits [0, trials) into at most chunks_hint_ near-equal chunks; the
  /// layout is a pure function of `trials` and the hint.
  std::vector<ChunkBounds> PartitionTrials(std::uint64_t trials) const;

  ThreadPool pool_;
  std::size_t chunks_hint_;
  obs::TraceSink* trace_ = nullptr;
};

/// The thread count a bench binary should use, in precedence order:
/// `cli_threads` if > 0 (from --threads=N), else the RSTLAB_THREADS
/// environment variable, else std::thread::hardware_concurrency().
std::size_t ResolveThreadCount(std::size_t cli_threads = 0);

}  // namespace rstlab::parallel

#endif  // RSTLAB_PARALLEL_TRIAL_RUNNER_H_
