#include "src/mem/scatteradd.h"

#include <algorithm>

namespace smd::mem {

CombiningStore::CombiningStore(const ScatterAddConfig& cfg)
    : latency_(static_cast<std::uint64_t>(cfg.latency)),
      entries_(cfg.combining_entries > 0
                   ? static_cast<std::size_t>(cfg.combining_entries)
                   : 0) {}

void CombiningStore::purge(std::uint64_t now) {
  // One pass: swap-remove expired entries (lookups are by address, so the
  // order is free) and recompute the earliest expiry of the rest.
  earliest_expiry_ = ~0ULL;
  for (std::size_t i = 0; i < n_;) {
    if (entries_[i].expiry <= now) {
      entries_[i] = entries_[--n_];
    } else {
      earliest_expiry_ = std::min(earliest_expiry_, entries_[i].expiry);
      ++i;
    }
  }
}

}  // namespace smd::mem
