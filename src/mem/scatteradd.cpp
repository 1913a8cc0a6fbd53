#include "src/mem/scatteradd.h"

#include <algorithm>

namespace smd::mem {

CombiningStore::CombiningStore(const ScatterAddConfig& cfg)
    : latency_(static_cast<std::uint64_t>(cfg.latency)),
      entries_(cfg.combining_entries > 0
                   ? static_cast<std::size_t>(cfg.combining_entries)
                   : 0) {}

void CombiningStore::purge(std::uint64_t now) {
  // Entries ascend by expiry: the expired ones are a prefix.
  const auto used = entries_.begin() + static_cast<std::ptrdiff_t>(n_);
  const auto live = std::find_if(entries_.begin(), used, [now](const Entry& e) {
    return e.expiry > now;
  });
  n_ = static_cast<std::size_t>(std::copy(live, used, entries_.begin()) -
                                entries_.begin());
}

}  // namespace smd::mem
