#include "sorting/parallel_sort.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "extmem/storage.h"
#include "parallel/thread_pool.h"
#include "sorting/loser_tree.h"
#include "stmodel/internal_arena.h"
#include "stmodel/tape_io.h"
#include "tape/tape.h"

namespace rstlab::sorting {

namespace {

constexpr char kSep = stmodel::kFieldSeparator;

/// One field-start sample per `kIndexGranularity` fields of a run, so
/// splitter probes binary-search the samples and then scan at most this
/// many fields.
constexpr std::size_t kIndexGranularity = 256;

/// Cells moved per bulk storage call: one readahead window of the
/// configured block geometry, clamped so the mem backend still batches
/// and a huge readahead setting cannot balloon the per-reader buffers.
std::size_t ChunkCells(const extmem::StorageOptions& options) {
  const std::size_t cells =
      options.block_size * std::max<std::size_t>(1, options.readahead_blocks);
  return std::clamp<std::size_t>(cells, 4096, std::size_t{1} << 20);
}

/// Reader-level double-buffer counters, shared by every reader of a
/// sort (workers increment concurrently).
struct PrefetchCounters {
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> hits{0};
};

/// One spill lane: a raw append-only `extmem` storage shared by the
/// run writers and readers. Lanes are never wrapped in a `tape::Tape`,
/// so nothing here can touch the metered reversal accounting — the
/// model bill for the scratch device is charged separately as a closed
/// formula (see "Spill billing" in DESIGN.md). The mutex makes the
/// storage safe under concurrent tasks (the file backend's cache
/// mutates even on reads); bulk chunk I/O keeps it uncontended.
class SpillLane {
 public:
  static Result<std::unique_ptr<SpillLane>> Create(
      const extmem::StorageOptions& options) {
    Result<std::unique_ptr<extmem::TapeStorage>> storage =
        extmem::CreateStorage(options);
    if (!storage.ok()) return storage.status();
    return std::unique_ptr<SpillLane>(
        new SpillLane(std::move(storage).value()));
  }

  /// Appends `data`, returning the offset it begins at.
  std::size_t Append(std::string_view data) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t offset = append_pos_;
    storage_->WriteRange(offset, data);
    append_pos_ += data.size();
    return offset;
  }

  /// Reads `count` cells starting at `pos` into `*out`.
  void ReadInto(std::size_t pos, std::size_t count, std::string* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    *out = storage_->ReadRange(pos, count);
  }

  /// Discards the content (between merge passes, once every run on this
  /// lane has been consumed) so the footprint stays at two generations.
  void Truncate() {
    std::lock_guard<std::mutex> lock(mutex_);
    storage_->Assign(std::string());
    append_pos_ = 0;
  }

  extmem::IoStats io_stats() {
    std::lock_guard<std::mutex> lock(mutex_);
    return storage_->io_stats();
  }

 private:
  explicit SpillLane(std::unique_ptr<extmem::TapeStorage> storage)
      : storage_(std::move(storage)) {}

  std::mutex mutex_;
  std::unique_ptr<extmem::TapeStorage> storage_;
  std::size_t append_pos_ = 0;
};

/// A contiguous piece of one run on one lane. Segments always hold
/// whole fields (writers flush at field boundaries), which is what
/// lets slice points be plain (segment, cell) pairs.
struct Segment {
  SpillLane* lane = nullptr;
  std::size_t offset = 0;
  std::size_t cells = 0;
  std::size_t fields = 0;
};

/// A sampled field start: field number `field_rank` begins `cell`
/// cells into segment `segment`.
struct IndexEntry {
  std::size_t field_rank = 0;
  std::size_t segment = 0;
  std::size_t cell = 0;
};

/// One sorted run: an ordered segment list plus the sparse field-start
/// index used by binary-search splitting. Physical placement (which
/// lane, which offset) is timing-dependent; everything derived from a
/// run — its field sequence, its slice boundaries — is not.
struct Run {
  std::vector<Segment> segments;
  std::vector<IndexEntry> index;
  std::size_t fields = 0;
  std::size_t cells = 0;
};

/// A position inside a run, always at a field start; `segment ==
/// segments.size()` (cell 0) is the end.
struct SlicePoint {
  std::size_t segment = 0;
  std::size_t cell = 0;

  bool operator==(const SlicePoint& other) const {
    return segment == other.segment && cell == other.cell;
  }
};

SlicePoint RunEnd(const Run& run) { return SlicePoint{run.segments.size(), 0}; }

/// Accumulates sorted fields into chunk-sized buffers, appending each
/// full buffer to the lane as one segment and sampling every
/// `stride`-th field start into the run's index.
class RunWriter {
 public:
  RunWriter(SpillLane* lane, std::size_t chunk_cells, std::size_t stride)
      : lane_(lane), chunk_cells_(chunk_cells),
        stride_(std::max<std::size_t>(1, stride)) {
    buffer_.reserve(chunk_cells_);
  }

  void Append(std::string_view payload) {
    if (run_.fields % stride_ == 0) {
      run_.index.push_back(
          IndexEntry{run_.fields, run_.segments.size(), buffer_.size()});
    }
    buffer_.append(payload);
    buffer_.push_back(kSep);
    ++run_.fields;
    ++buffer_fields_;
    if (buffer_.size() >= chunk_cells_) Flush();
  }

  Run Finish() {
    Flush();
    return std::move(run_);
  }

 private:
  void Flush() {
    if (buffer_.empty()) return;
    const std::size_t offset = lane_->Append(buffer_);
    run_.segments.push_back(
        Segment{lane_, offset, buffer_.size(), buffer_fields_});
    run_.cells += buffer_.size();
    buffer_.clear();
    buffer_fields_ = 0;
  }

  SpillLane* lane_;
  std::size_t chunk_cells_;
  std::size_t stride_;
  std::string buffer_;
  std::size_t buffer_fields_ = 0;
  Run run_;
};

/// Streams the fields of one run slice [begin, end) through a
/// double-buffered pair of chunk buffers: while the active buffer is
/// being parsed, the standby buffer already holds the next chunk, so
/// the handoff costs a swap instead of a storage round-trip, the lane
/// mutex is taken once per chunk, and the block cache underneath sees
/// deep sequential reads for its direction-hinted readahead to run
/// ahead of. `counters` (optional) observes the standby fills.
class RunReader {
 public:
  RunReader(const Run& run, SlicePoint begin, SlicePoint end,
            std::size_t chunk_cells, PrefetchCounters* counters)
      : run_(run), frontier_(begin), end_(end), chunk_cells_(chunk_cells),
        counters_(counters) {
    FillStandby();
  }

  /// Loads the next field into `field()`; false when the slice is
  /// exhausted.
  bool Advance() {
    field_.clear();
    while (true) {
      if (parse_pos_ < active_.size()) {
        const char* base = active_.data() + parse_pos_;
        const std::size_t span = active_.size() - parse_pos_;
        const char* sep = static_cast<const char*>(
            std::memchr(base, kSep, span));
        if (sep != nullptr) {
          field_.append(base, static_cast<std::size_t>(sep - base));
          parse_pos_ += static_cast<std::size_t>(sep - base) + 1;
          return true;
        }
        field_.append(base, span);
        parse_pos_ = active_.size();
      }
      if (!RefillActive()) {
        assert(field_.empty() && "segment ended mid-field");
        return false;
      }
    }
  }

  /// The field loaded by the last successful Advance(). The reference
  /// is stable across Advance() calls (contents change), which is what
  /// the loser tree's slot pointers rely on.
  const std::string& field() const { return field_; }

 private:
  /// Reads the next chunk of the slice into `*out`; false at the end.
  bool LoadChunk(std::string* out) {
    while (frontier_.segment < run_.segments.size() &&
           !(frontier_ == end_) &&
           frontier_.cell >= run_.segments[frontier_.segment].cells) {
      ++frontier_.segment;
      frontier_.cell = 0;
    }
    if (frontier_ == end_ || frontier_.segment >= run_.segments.size()) {
      return false;
    }
    const Segment& segment = run_.segments[frontier_.segment];
    const std::size_t limit =
        frontier_.segment == end_.segment ? end_.cell : segment.cells;
    const std::size_t take =
        std::min(chunk_cells_, limit - frontier_.cell);
    if (take == 0) return false;
    segment.lane->ReadInto(segment.offset + frontier_.cell, take, out);
    assert(out->size() == take);
    frontier_.cell += take;
    return true;
  }

  void FillStandby() {
    if (LoadChunk(&standby_)) {
      standby_ready_ = true;
      if (counters_ != nullptr) {
        counters_->issued.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  bool RefillActive() {
    const bool was_ready = standby_ready_;
    if (!standby_ready_) FillStandby();
    if (!standby_ready_) return false;
    active_.swap(standby_);
    standby_.clear();
    standby_ready_ = false;
    parse_pos_ = 0;
    if (was_ready && counters_ != nullptr) {
      counters_->hits.fetch_add(1, std::memory_order_relaxed);
    }
    FillStandby();
    return true;
  }

  const Run& run_;
  SlicePoint frontier_;  // next unread cell
  SlicePoint end_;
  std::size_t chunk_cells_;
  PrefetchCounters* counters_;
  std::string active_;
  std::string standby_;
  bool standby_ready_ = false;
  std::size_t parse_pos_ = 0;
  std::string field_;
};

/// The field at `rank` (0-based) of `run`: binary search the sparse
/// index, then scan forward at most kIndexGranularity fields.
std::string FieldAtRank(const Run& run, std::size_t rank,
                        std::size_t chunk_cells) {
  assert(rank < run.fields);
  auto it = std::upper_bound(
      run.index.begin(), run.index.end(), rank,
      [](std::size_t r, const IndexEntry& e) { return r < e.field_rank; });
  assert(it != run.index.begin());
  const IndexEntry& entry = *(it - 1);
  RunReader reader(run, SlicePoint{entry.segment, entry.cell}, RunEnd(run),
                   chunk_cells, nullptr);
  for (std::size_t i = entry.field_rank; i < rank; ++i) {
    const bool ok = reader.Advance();
    assert(ok);
    (void)ok;
  }
  const bool ok = reader.Advance();
  assert(ok);
  (void)ok;
  return reader.field();
}

/// The field beginning at index entry `j` of `run`.
std::string FieldAtEntry(const Run& run, std::size_t j,
                         std::size_t chunk_cells) {
  const IndexEntry& entry = run.index[j];
  RunReader reader(run, SlicePoint{entry.segment, entry.cell}, RunEnd(run),
                   chunk_cells, nullptr);
  const bool ok = reader.Advance();
  assert(ok);
  (void)ok;
  return reader.field();
}

/// Scans fields of `run` from `start` (a field start) for the first
/// field >= value, returning its position (or the run end).
SlicePoint ScanLowerBound(const Run& run, SlicePoint start,
                          const std::string& value,
                          std::size_t chunk_cells) {
  std::size_t seg = start.segment;
  std::size_t first_cell = start.cell;
  std::string partial;
  std::string chunk;
  for (; seg < run.segments.size(); ++seg, first_cell = 0) {
    const Segment& segment = run.segments[seg];
    std::size_t field_start = first_cell;
    std::size_t scan = first_cell;
    while (scan < segment.cells) {
      const std::size_t take =
          std::min(chunk_cells, segment.cells - scan);
      segment.lane->ReadInto(segment.offset + scan, take, &chunk);
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (chunk[i] == kSep) {
          if (partial.compare(value) >= 0) {
            return SlicePoint{seg, field_start};
          }
          partial.clear();
          field_start = scan + i + 1;
        } else {
          partial.push_back(chunk[i]);
        }
      }
      scan += chunk.size();
    }
    assert(partial.empty() && "segment ended mid-field");
  }
  return RunEnd(run);
}

/// First field of `run` that is >= `value`: binary search the index
/// samples, then a bounded linear scan between two samples.
SlicePoint LowerBoundPoint(const Run& run, const std::string& value,
                           std::size_t chunk_cells) {
  if (run.fields == 0) return RunEnd(run);
  // First index entry whose sampled field is >= value.
  std::size_t lo = 0;
  std::size_t hi = run.index.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (FieldAtEntry(run, mid, chunk_cells).compare(value) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // The boundary lies between sample lo-1 and sample lo; scan from the
  // last sample known to be < value (or the run start).
  const SlicePoint start =
      lo == 0 ? SlicePoint{0, 0}
              : SlicePoint{run.index[lo - 1].segment, run.index[lo - 1].cell};
  return ScanLowerBound(run, start, value, chunk_cells);
}

/// Concatenates slice sub-runs into the group's output run, rebasing
/// segment numbers and index ranks.
Run ConcatRuns(std::vector<Run> parts) {
  Run out;
  for (Run& part : parts) {
    const std::size_t segment_base = out.segments.size();
    const std::size_t rank_base = out.fields;
    for (const IndexEntry& e : part.index) {
      out.index.push_back(
          IndexEntry{e.field_rank + rank_base, e.segment + segment_base,
                     e.cell});
    }
    for (const Segment& s : part.segments) out.segments.push_back(s);
    out.fields += part.fields;
    out.cells += part.cells;
  }
  return out;
}

/// An unsorted run's worth of input fields, staged in one contiguous
/// buffer (payload offsets, separators included in `cells`).
struct RunBuffer {
  std::string cells;
  std::vector<std::pair<std::size_t, std::size_t>> fields;  // (offset, len)
};

std::string_view FieldView(const RunBuffer& buffer,
                           const std::pair<std::size_t, std::size_t>& f) {
  return std::string_view(buffer.cells).substr(f.first, f.second);
}

/// Formation task: sort one run buffer in internal memory and spill it.
void SortRunTask(RunBuffer& buffer, SpillLane* lane, std::size_t chunk_cells,
                 Run* out) {
  std::sort(buffer.fields.begin(), buffer.fields.end(),
            [&buffer](const std::pair<std::size_t, std::size_t>& a,
                      const std::pair<std::size_t, std::size_t>& b) {
              return FieldView(buffer, a) < FieldView(buffer, b);
            });
  const std::size_t stride =
      std::max<std::size_t>(1, buffer.fields.size() / kIndexGranularity);
  RunWriter writer(lane, chunk_cells, stride);
  for (const auto& f : buffer.fields) writer.Append(FieldView(buffer, f));
  *out = writer.Finish();
}

/// One merge task: `runs[i]` restricted to [begins[i], ends[i]),
/// tournament-merged onto `lane`.
struct SliceTask {
  std::vector<const Run*> runs;
  std::vector<SlicePoint> begins;
  std::vector<SlicePoint> ends;
  SpillLane* lane = nullptr;
  std::size_t stride = 1;
  Run* out = nullptr;
};

void MergeSliceTask(const SliceTask& task, std::size_t chunk_cells,
                    PrefetchCounters* counters) {
  const std::size_t k = task.runs.size();
  std::vector<std::unique_ptr<RunReader>> readers;
  readers.reserve(k);
  LoserTree tree(k);
  for (std::size_t i = 0; i < k; ++i) {
    readers.push_back(std::make_unique<RunReader>(
        *task.runs[i], task.begins[i], task.ends[i], chunk_cells, counters));
    tree.SetInitial(i, readers[i]->Advance() ? &readers[i]->field() : nullptr);
  }
  tree.Build();
  RunWriter writer(task.lane, chunk_cells, task.stride);
  while (!tree.empty()) {
    const std::size_t slot = tree.top();
    writer.Append(readers[slot]->field());
    tree.Replace(slot,
                 readers[slot]->Advance() ? &readers[slot]->field() : nullptr);
  }
  *task.out = writer.Finish();
}

/// Waits for every task submitted to `pool`, turning a task's exception
/// into a Status.
Status WaitForTasks(parallel::ThreadPool& pool) {
  try {
    pool.Wait();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("parallel sort worker: ") + e.what());
  } catch (...) {
    return Status::Internal("parallel sort worker: unknown error");
  }
  return Status::OK();
}

}  // namespace

Status ParallelSortFieldsOnTape(stmodel::StContext& ctx, std::size_t src,
                                const SortConfig& config,
                                ParallelSortStats* stats) {
  if (src >= ctx.num_tapes()) {
    return Status::InvalidArgument("parallel sort: bad source tape index");
  }
  if (config.fanout < 2) {
    return Status::InvalidArgument("parallel sort needs fanout >= 2");
  }
  const std::size_t fanout = config.fanout;
  const std::size_t run_length = std::max<std::size_t>(1, config.run_length);
  const std::size_t merge_width = std::max<std::size_t>(1, config.merge_width);
  const std::size_t threads = std::max<std::size_t>(1, config.threads);
  const std::size_t chunk = ChunkCells(ctx.storage_options());

  tape::Tape& source = ctx.tape(src);
  const extmem::IoStats source_io_before = source.io_stats();
  if (stats != nullptr) *stats = ParallelSortStats{};

  // Pass 0: count fields, the longest payload, and the content cells
  // (one forward scan in bulk chunks).
  source.Seek(0);
  std::size_t num_fields = 0;
  std::size_t max_len = 0;
  std::size_t content_cells = 0;
  {
    const std::size_t content = source.cells_used();
    std::size_t read_cells = 0;
    std::size_t current_len = 0;
    bool stop = false;
    while (!stop && read_cells < content) {
      const std::string data =
          source.ReadForward(std::min(chunk, content - read_cells));
      read_cells += data.size();
      for (const char c : data) {
        if (c == tape::kBlank) {
          stop = true;
          break;
        }
        ++content_cells;
        if (c == kSep) {
          ++num_fields;
          max_len = std::max(max_len, current_len);
          current_len = 0;
        } else {
          ++current_len;
        }
      }
    }
    if (current_len > 0) {
      // Unterminated trailing field: sorted output rewrites it with a
      // separator, so bill the extra cell now.
      ++num_fields;
      max_len = std::max(max_len, current_len);
      ++content_cells;
    }
  }
  if (stats != nullptr) {
    stats->num_fields = num_fields;
    stats->max_field_len = max_len;
  }
  if (num_fields <= 1) return Status::OK();

  const std::size_t num_runs = (num_fields + run_length - 1) / run_length;
  std::size_t merge_passes = 0;
  for (std::size_t r = num_runs; r > 1; r = (r + fanout - 1) / fanout) {
    ++merge_passes;
  }
  if (stats != nullptr) {
    stats->num_runs = num_runs;
    stats->merge_passes = merge_passes;
  }

  // Spill lanes: two generations (ping/pong across passes), a few
  // lanes each so concurrent writers do not serialize on one mutex.
  // Lane count is physical layout only — nothing measured depends on it.
  const std::size_t lane_count = std::min<std::size_t>(
      8, std::max<std::size_t>(1, threads));
  std::vector<std::unique_ptr<SpillLane>> lanes_ping;
  std::vector<std::unique_ptr<SpillLane>> lanes_pong;
  for (std::size_t i = 0; i < lane_count; ++i) {
    Result<std::unique_ptr<SpillLane>> lane =
        SpillLane::Create(ctx.storage_options());
    if (!lane.ok()) return lane.status();
    lanes_ping.push_back(std::move(lane).value());
    if (merge_passes >= 1) {
      lane = SpillLane::Create(ctx.storage_options());
      if (!lane.ok()) return lane.status();
      lanes_pong.push_back(std::move(lane).value());
    }
  }

  stmodel::InternalArena& arena = ctx.arena();
  const std::size_t ctr_bits =
      stmodel::BitsFor(std::max<std::size_t>(1, ctx.input_size()));
  // Internal-memory bill (1 bit per 0/1 character of a buffered
  // record, counters at BitsFor(N)): the
  // formation run buffer, then the merge's fanout record buffers plus
  // the loser tree's slot registers. All formula-shaped, hence
  // identical at every thread count and on every backend.
  stmodel::MeteredUint64 counters(arena, (fanout + 3) * ctr_bits);
  (void)counters;

  PrefetchCounters prefetch;
  parallel::ThreadPool pool(threads);

  // Phase 1: run formation. The calling thread streams the source tape
  // forward in bulk chunks, staging run_length fields per buffer;
  // workers (the calling thread itself at one thread) sort each buffer
  // in internal memory and spill it as one sorted run. Buffers in
  // flight are bounded for memory, not billed as s (host buffer-pool
  // memory, like the block cache — the model machine's formation
  // buffer is billed above).
  std::vector<Run> runs(num_runs);
  {
    auto formation_bits =
        arena.Allocate(run_length * std::max<std::size_t>(1, max_len));
    source.Seek(0);
    const std::size_t batch = threads > 1 ? 2 * threads : 1;
    std::vector<std::unique_ptr<RunBuffer>> in_flight;
    std::unique_ptr<RunBuffer> buffer = std::make_unique<RunBuffer>();
    std::size_t run_id = 0;
    Status worker_status = Status::OK();

    auto dispatch = [&](std::unique_ptr<RunBuffer> full) -> Status {
      if (in_flight.size() >= batch) {
        RSTLAB_RETURN_IF_ERROR(WaitForTasks(pool));
        in_flight.clear();
      }
      RunBuffer* raw = full.get();
      in_flight.push_back(std::move(full));
      if (run_id >= num_runs) {
        return Status::Internal("parallel sort: run count drifted");
      }
      Run* out = &runs[run_id];
      SpillLane* lane = lanes_ping[run_id % lanes_ping.size()].get();
      ++run_id;
      pool.Submit(
          [raw, lane, chunk, out]() { SortRunTask(*raw, lane, chunk, out); });
      return Status::OK();
    };

    const std::size_t content = source.cells_used();
    std::size_t read_cells = 0;
    std::string carry;
    bool stop = false;
    while (!stop && read_cells < content && worker_status.ok()) {
      std::string data =
          source.ReadForward(std::min(chunk, content - read_cells));
      read_cells += data.size();
      const std::size_t blank =
          data.find(tape::kBlank);
      if (blank != std::string::npos) {
        data.resize(blank);
        stop = true;
      }
      carry += data;
      std::size_t pos = 0;
      std::size_t sep;
      while ((sep = carry.find(kSep, pos)) != std::string::npos) {
        const std::size_t offset = buffer->cells.size();
        const std::size_t len = sep - pos;
        buffer->cells.append(carry, pos, len + 1);  // payload + separator
        buffer->fields.emplace_back(offset, len);
        pos = sep + 1;
        if (buffer->fields.size() == run_length) {
          worker_status = dispatch(std::move(buffer));
          if (!worker_status.ok()) break;
          buffer = std::make_unique<RunBuffer>();
        }
      }
      carry.erase(0, pos);
    }
    if (worker_status.ok() && !carry.empty()) {
      // Unterminated trailing field (defensive; inputs end in '#').
      const std::size_t offset = buffer->cells.size();
      buffer->cells.append(carry);
      buffer->cells.push_back(kSep);
      buffer->fields.emplace_back(offset, carry.size());
    }
    if (worker_status.ok() && !buffer->fields.empty()) {
      worker_status = dispatch(std::move(buffer));
    }
    if (worker_status.ok()) worker_status = WaitForTasks(pool);
    if (!worker_status.ok()) return worker_status;
    if (run_id != num_runs) {
      return Status::Internal("parallel sort: run count drifted");
    }
    formation_bits.Release();
  }

  if (config.inject_failure_before_merge) {
    return Status::Internal("parallel sort: injected failure before merge");
  }

  // Phase 2: k-way merge passes through the loser tree. Groups of
  // `fanout` runs merge independently; once fewer than `merge_width`
  // groups remain, each group is split into value-disjoint slices by
  // binary-search splitting so the task list stays as wide as the
  // worker pool. Group and slice structure depend only on (m, fanout,
  // run_length, merge_width) — never on the thread count.
  std::vector<Run> current = std::move(runs);
  {
    auto merge_bits = arena.Allocate(
        fanout * std::max<std::size_t>(1, max_len) + 2 * fanout * ctr_bits);
    std::size_t epoch = 0;
    while (current.size() > 1) {
      ++epoch;
      std::vector<std::unique_ptr<SpillLane>>& out_lanes =
          epoch % 2 == 1 ? lanes_pong : lanes_ping;
      // The generation written two passes ago has been fully consumed;
      // reclaim its space before writing this pass onto the same lanes.
      for (auto& lane : out_lanes) lane->Truncate();

      const std::size_t live = current.size();
      const std::size_t groups = (live + fanout - 1) / fanout;
      const std::size_t slice_count =
          groups >= merge_width ? 1 : (merge_width + groups - 1) / groups;

      std::vector<Run> slice_out(groups * slice_count);
      std::vector<SliceTask> tasks;
      tasks.reserve(groups * slice_count);
      for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t base = g * fanout;
        const std::size_t count = std::min(fanout, live - base);
        std::size_t group_fields = 0;
        for (std::size_t i = 0; i < count; ++i) {
          group_fields += current[base + i].fields;
        }
        const std::size_t stride =
            std::max<std::size_t>(1, group_fields / kIndexGranularity);

        // Per-run slice boundaries: splitters are fields of the
        // group's largest run at evenly spaced ranks; each run is cut
        // at the first field >= each splitter, so equal slices across
        // runs cover value-disjoint intervals and their merged outputs
        // concatenate, in slice order, to the sorted group.
        std::vector<std::vector<SlicePoint>> bounds(count);
        for (std::size_t i = 0; i < count; ++i) {
          bounds[i].assign(slice_count + 1, SlicePoint{0, 0});
          bounds[i][slice_count] = RunEnd(current[base + i]);
        }
        if (slice_count > 1) {
          std::size_t pivot = 0;
          for (std::size_t i = 1; i < count; ++i) {
            if (current[base + i].fields > current[base + pivot].fields) {
              pivot = i;
            }
          }
          const Run& pivot_run = current[base + pivot];
          for (std::size_t q = 1; q < slice_count; ++q) {
            const std::size_t rank = q * pivot_run.fields / slice_count;
            const std::string splitter = FieldAtRank(pivot_run, rank, chunk);
            for (std::size_t i = 0; i < count; ++i) {
              bounds[i][q] =
                  LowerBoundPoint(current[base + i], splitter, chunk);
            }
          }
        }

        for (std::size_t q = 0; q < slice_count; ++q) {
          SliceTask task;
          task.runs.reserve(count);
          task.begins.reserve(count);
          task.ends.reserve(count);
          for (std::size_t i = 0; i < count; ++i) {
            task.runs.push_back(&current[base + i]);
            task.begins.push_back(bounds[i][q]);
            task.ends.push_back(bounds[i][q + 1]);
          }
          const std::size_t task_id = g * slice_count + q;
          task.lane = out_lanes[task_id % out_lanes.size()].get();
          task.stride = stride;
          task.out = &slice_out[task_id];
          tasks.push_back(std::move(task));
        }
      }

      for (const SliceTask& task : tasks) {
        pool.Submit(
            [&task, chunk, &prefetch]() {
              MergeSliceTask(task, chunk, &prefetch);
            });
      }
      RSTLAB_RETURN_IF_ERROR(WaitForTasks(pool));

      std::vector<Run> next;
      next.reserve(groups);
      for (std::size_t g = 0; g < groups; ++g) {
        std::vector<Run> parts(
            std::make_move_iterator(slice_out.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        g * slice_count)),
            std::make_move_iterator(slice_out.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        (g + 1) * slice_count)));
        next.push_back(ConcatRuns(std::move(parts)));
      }
      current = std::move(next);
    }
    merge_bits.Release();
  }

  // Phase 3: one metered sequential scan concatenates the surviving
  // run back onto the source tape.
  assert(current.size() == 1);
  source.Seek(0);
  {
    std::string data;
    for (const Segment& segment : current[0].segments) {
      std::size_t done = 0;
      while (done < segment.cells) {
        segment.lane->ReadInto(segment.offset + done,
                               std::min(chunk, segment.cells - done), &data);
        if (data.empty()) {
          return Status::Internal("parallel sort: truncated spill lane");
        }
        source.WriteForward(data);
        done += data.size();
      }
    }
  }

  // Spill billing: the canonical serial 2k-tape machine's bill, a
  // closed formula (DESIGN.md "Spill billing"): each of the P merge
  // passes rewinds and scans k in-tapes and k out-tapes (2 reversals
  // each), plus the final rewind-and-read of the result; space is the
  // two generations in flight.
  const std::uint64_t scratch_reversals =
      4 * static_cast<std::uint64_t>(fanout) * merge_passes + 2;
  const std::size_t scratch_cells =
      (merge_passes >= 1 ? 2 : 1) * content_cells;
  ctx.ChargeScratch(scratch_reversals, scratch_cells);

  extmem::IoStats lane_io;
  for (auto& lane : lanes_ping) lane_io += lane->io_stats();
  for (auto& lane : lanes_pong) lane_io += lane->io_stats();
  lane_io.prefetch_issued +=
      prefetch.issued.load(std::memory_order_relaxed);
  lane_io.prefetch_hits += prefetch.hits.load(std::memory_order_relaxed);
  ctx.ChargeScratchIo(lane_io);
  if (ctx.storage_options().metrics != nullptr) {
    // Lane block I/O publishes itself on lane destruction; the
    // reader-level prefetch counters live here.
    ctx.storage_options().metrics->Add("extmem.prefetch_issued",
                                       lane_io.prefetch_issued);
    ctx.storage_options().metrics->Add("extmem.prefetch_hits",
                                       lane_io.prefetch_hits);
  }
  if (stats != nullptr) {
    stats->scratch_reversals = scratch_reversals;
    stats->scratch_cells = scratch_cells;
    stats->io = source.io_stats().DeltaSince(source_io_before);
    stats->io += lane_io;
  }
  return Status::OK();
}

Status SortForDecider(stmodel::StContext& ctx, std::size_t src,
                      std::size_t /*aux1*/, std::size_t /*aux2*/,
                      SortStats* stats, const SortConfig& sort) {
  ParallelSortStats parallel_stats;
  RSTLAB_RETURN_IF_ERROR(
      ParallelSortFieldsOnTape(ctx, src, sort, &parallel_stats));
  if (stats != nullptr) {
    stats->num_fields = parallel_stats.num_fields;
    stats->passes = parallel_stats.num_fields <= 1
                        ? 0
                        : parallel_stats.merge_passes + 1;
    stats->io = parallel_stats.io;
  }
  return Status::OK();
}

}  // namespace rstlab::sorting
