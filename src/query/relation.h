#ifndef RSTLAB_QUERY_RELATION_H_
#define RSTLAB_QUERY_RELATION_H_

#include <cstddef>
#include <string>
#include <vector>

namespace rstlab::query {

/// A database tuple: a fixed-arity vector of attribute values. Values are
/// strings over {0,1} (the streams the paper's Theorem 11 considers are
/// tuple streams of bit strings), though any '#'-, ','-free characters
/// work.
using Tuple = std::vector<std::string>;

/// A relation with set semantics: named and of fixed arity. Producers
/// append tuples to `tuples`, which may repeat until `Normalize()` runs;
/// a normalized relation is sorted and duplicate-free.
struct Relation {
  std::string name;
  std::size_t arity = 0;
  std::vector<Tuple> tuples;

  /// Sorts tuples lexicographically and removes duplicates (canonical
  /// form; used before comparisons).
  void Normalize();

  bool operator==(const Relation& other) const;
};

/// Serializes one tuple as a tape field: values joined with ','.
std::string EncodeTuple(const Tuple& tuple);
/// Parses a tape field back into a tuple.
Tuple DecodeTuple(const std::string& field);

}  // namespace rstlab::query

#endif  // RSTLAB_QUERY_RELATION_H_
