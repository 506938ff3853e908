#ifndef RSTLAB_SORTING_LOSER_TREE_H_
#define RSTLAB_SORTING_LOSER_TREE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace rstlab::sorting {

/// Tournament (loser) tree over k sorted sources — the classic k-way
/// merge selector. Each source exposes its current front field via a
/// stable `const std::string*` owned by the caller (nullptr =
/// exhausted); popping the overall minimum and replaying the new front
/// costs O(log k) comparisons instead of an O(k) linear scan over the
/// fronts (E3e sweeps the fanout).
///
/// Ties break on the lower slot index, so the merge is stable with
/// respect to the deterministic run numbering — one of the invariants
/// behind bit-identical output at every thread count.
class LoserTree {
 public:
  /// A tree over `ways` slots, all initially exhausted.
  explicit LoserTree(std::size_t ways);

  /// Number of slots.
  std::size_t ways() const { return ways_; }

  /// Sets slot `slot`'s front field (nullptr = exhausted). Use before
  /// `Build`; after that, use `Replace`.
  void SetInitial(std::size_t slot, const std::string* value);

  /// Plays the initial tournament. Call once, after every slot's front
  /// is set.
  void Build();

  /// True iff every slot is exhausted.
  bool empty() const { return winner_value_ == nullptr; }

  /// Slot index holding the overall minimum. Requires !empty().
  std::size_t top() const { return winner_; }

  /// The minimum field itself. Requires !empty().
  const std::string& top_value() const { return *winner_value_; }

  /// Installs the new front of slot `slot` (nullptr = exhausted) and
  /// replays its leaf-to-root path: O(log k) comparisons.
  void Replace(std::size_t slot, const std::string* value);

 private:
  /// True iff slot `a`'s front beats (sorts before) slot `b`'s.
  bool Beats(std::size_t a, std::size_t b) const;

  std::size_t ways_;
  std::vector<const std::string*> values_;  // front of each slot
  std::vector<std::size_t> losers_;         // internal nodes: loser slot
  std::size_t winner_ = 0;
  const std::string* winner_value_ = nullptr;
};

}  // namespace rstlab::sorting

#endif  // RSTLAB_SORTING_LOSER_TREE_H_
