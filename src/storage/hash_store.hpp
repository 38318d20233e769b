// Hash-indexed store: the "hash table for dictionary queries" of Section 5,
// with I(.) = D(.) = Q(.) = O(1) model cost (the normalization the Basic
// algorithm's analysis assumes).
//
// A named configuration of IndexedStore: one hash index on the key field.
// Exact and OneOf patterns on the key field go to their buckets; anything
// else falls back to the age-ordered scan (the cost of "permitting general
// search criteria" on a dictionary structure). IndexedStore's plain-mode
// costs with one index are already the family's 1/1/1.
#pragma once

#include "storage/indexed_store.hpp"

namespace paso::storage {

class HashStore final : public IndexedStore {
 public:
  explicit HashStore(std::size_t key_field = 0) : IndexedStore({key_field}) {}

  const char* kind() const override { return "hash"; }
};

}  // namespace paso::storage
