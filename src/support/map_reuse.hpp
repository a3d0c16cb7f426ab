// Storage reuse for decoders that refill a caller's std::map in place: the
// decoder swaps the map's nodes into a spare map, then inserts each decoded
// entry through insert_reusing, which rekeys a spare node before it
// allocates a new one. The binary and XML decoders share this one rule.
#pragma once

#include <cstddef>
#include <map>
#include <utility>

namespace healers {

// Inserts (key, value) into `entries`, in a node taken from `spare` when it
// holds one. Entries arrive in key order in every document an encoder
// writes, so the end of `entries` is the hint. Returns false, and leaves
// `entries` as it was, when `entries` already holds `key`.
template <class K, class V>
bool insert_reusing(std::map<K, V>& entries, std::map<K, V>& spare, const K& key,
                    const V& value) {
  const std::size_t before = entries.size();
  if (spare.empty()) {
    entries.emplace_hint(entries.end(), key, value);
  } else {
    auto node = spare.extract(spare.begin());
    node.key() = key;
    node.mapped() = value;
    entries.insert(entries.end(), std::move(node));
  }
  return entries.size() > before;
}

}  // namespace healers
