#ifndef RSTLAB_QUERY_WORKLOAD_H_
#define RSTLAB_QUERY_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "query/relation.h"

namespace rstlab::query {

/// Seeded, size-parametric workload generators for the streaming query
/// engine: the adversarial instance families of Theorems 11 and 12 —
/// relation pairs and Section 4 XML documents that are equal except for
/// a controlled number of perturbations, exactly the inputs the
/// (set-)equality lower bounds are proved on. Every generator is a pure
/// function of its spec (seed included), so workloads are reproducible
/// across machines, backends and thread counts, and the *exact*
/// symmetric-difference size ships with the instance as ground truth.

/// Spec for a pair of relations R1, R2 that agree on all but
/// `perturbations` tuples.
struct RelationPairSpec {
  std::uint64_t seed = 1;
  /// Tuples per relation.
  std::size_t num_tuples = 16;
  /// Attributes per tuple.
  std::size_t arity = 1;
  /// Bits per attribute value (clamped to [1, 63]; raised when
  /// num_tuples needs more index bits).
  std::size_t value_len = 8;
  /// Tuples of R2 replaced with fresh values not in R1. The symmetric
  /// difference is then exactly 2 * min(perturbations, num_tuples).
  std::size_t perturbations = 0;
  /// Inject duplicate tuple occurrences into the encoded stream (the
  /// multiset stream the engine must still evaluate with set
  /// semantics).
  bool skew_duplicates = false;
  std::string r1_name = "R1";
  std::string r2_name = "R2";
};

/// One generated relation-pair instance.
struct RelationPairWorkload {
  /// The two relations, keyed by name (insertion order seeded-shuffled).
  std::map<std::string, Relation> database;
  /// The Theorem 11 input stream: shuffled "name,v1,...#" fields,
  /// duplicates included when the spec asks for them.
  std::string stream;
  /// Exact |R1 Δ R2|.
  std::size_t symmetric_difference = 0;
};

RelationPairWorkload MakeRelationPair(const RelationPairSpec& spec);

/// Spec for a Section 4 XML document <instance><set1>...<set2>...</>.
struct XmlWorkloadSpec {
  std::uint64_t seed = 1;
  /// Values below set1 / set2. A skewed fanout (set1 >> set2) stresses
  /// the one-pass axis walk with asymmetric siblings.
  std::size_t set1_values = 16;
  std::size_t set2_values = 16;
  /// Bits per value (clamped like RelationPairSpec::value_len).
  std::size_t value_len = 8;
  /// Extra nesting: each <item> wraps its <string> in this many levels
  /// of decorative elements — deep documents the event reader must
  /// stream through without materializing.
  std::size_t nesting_depth = 0;
  /// set2 values replaced with values outside set1 (first k slots).
  std::size_t perturbations = 0;
};

/// One generated XML instance.
struct XmlWorkload {
  /// The document text (tape content for
  /// engine::RelationSpool::BuildFromXml, i.e. a shared scan with
  /// `SharedScanOptions::xml`).
  std::string document;
  std::size_t set1_count = 0;
  std::size_t set2_count = 0;
  /// Exact |set1 Δ set2|.
  std::size_t symmetric_difference = 0;
  /// set1 == set2 as sets (the Theorem 12 XQuery verdict).
  bool sets_equal = false;
};

XmlWorkload MakeXmlWorkload(const XmlWorkloadSpec& spec);

}  // namespace rstlab::query

#endif  // RSTLAB_QUERY_WORKLOAD_H_
