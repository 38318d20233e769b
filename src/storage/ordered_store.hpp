// Order-indexed store: the "binary search tree for range queries" of
// Section 5. Model costs follow the paper's extension of the Basic
// algorithm: insertion and deletion are normalized to 1 time unit and a
// query costs q = Q(l) = 1 + floor(log2(l+1)) units.
//
// A named configuration of IndexedStore: one ordered-mode index on the key
// field, whose sorted twin serves Range/IntRange/RealRange/TextPrefix walks
// and rank-ordered TopK reads. It differs from that plain configuration
// only in its update costs.
#pragma once

#include "storage/indexed_store.hpp"

namespace paso::storage {

class OrderedStore final : public IndexedStore {
 public:
  explicit OrderedStore(std::size_t key_field = 0)
      : IndexedStore({key_field}, {.ordered = true}) {}

  /// The paper's tree normalization: I = D = 1 unit. IndexedStore's ordered
  /// mode charges 2 per update (hash bucket plus sorted twin); without these
  /// overrides every insert and read&del on a tree class would double its
  /// `work`.
  Cost insert_cost() const override { return 1; }
  Cost remove_cost() const override { return 1; }
  const char* kind() const override { return "ordered"; }
};

}  // namespace paso::storage
