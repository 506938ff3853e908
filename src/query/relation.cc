#include "query/relation.h"

#include <algorithm>

namespace rstlab::query {

void Relation::Normalize() {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
}

bool Relation::operator==(const Relation& other) const {
  // Equality is set-of-tuples equality; arity is metadata (a
  // materialized empty result does not know its schema).
  Relation a = *this;
  Relation b = other;
  a.Normalize();
  b.Normalize();
  return a.tuples == b.tuples;
}

std::string EncodeTuple(const Tuple& tuple) {
  std::string out;
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ',';
    out += tuple[i];
  }
  return out;
}

Tuple DecodeTuple(const std::string& field) {
  Tuple tuple;
  std::string current;
  for (char c : field) {
    if (c == ',') {
      tuple.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  tuple.push_back(std::move(current));
  return tuple;
}

}  // namespace rstlab::query
