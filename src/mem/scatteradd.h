// Scatter-add combining store.
//
// Merrimac's memory system performs atomic floating-point add-and-store at
// full cache bandwidth: each cache bank has a scatter-add functional unit
// (latency 4) fronted by a small combining store (8 entries) that merges
// in-flight additions to the same word, so bursts of updates to one
// location (e.g. the partial forces of a popular molecule) do not
// serialize on the bank (Section 2.2). The FU performs its read-modify-
// write inline at the bank -- one scatter word per bank per cycle -- and
// an addition arriving while the same word is still in the FU pipeline
// merges for free. This class models the merge window and its occupancy;
// the actual summation is applied functionally by the memory system.
#pragma once

#include <cstdint>
#include <vector>

namespace smd::mem {

struct ScatterAddConfig {
  int units_per_bank = 1;
  int latency = 4;            ///< scatter-add FU latency (merge window)
  int combining_entries = 8;  ///< per bank
};

struct ScatterAddStats {
  std::int64_t requests = 0;
  std::int64_t combined = 0;  ///< merged into an in-flight addition
  std::int64_t issued = 0;    ///< additions that used a bank cycle
  std::int64_t stalled = 0;   ///< retries because all entries were busy
};

/// Combining store for one cache bank: a fixed array of
/// `combining_entries` slots that caches its earliest expiry, so a purge
/// is one compare while nothing expires.
class CombiningStore {
 public:
  explicit CombiningStore(const ScatterAddConfig& cfg);

  /// True if an in-flight addition to `word_addr` exists; merges into it.
  bool try_merge(std::uint64_t word_addr, std::uint64_t now) {
    for (std::size_t i = 0; i < n_; ++i) {
      Entry& e = entries_[i];
      if (e.addr != word_addr) continue;
      // Merging extends the in-flight addition's window by one FU pass.
      e.expiry = now + latency_;
      ++stats_.requests;
      ++stats_.combined;
      return true;
    }
    return false;
  }

  /// Allocate an entry for a new in-flight addition (the FU pass that
  /// performs the read-modify-write). False when all entries are busy.
  /// Precondition: no addition to `word_addr` is in flight (try_merge
  /// just failed).
  bool try_allocate(std::uint64_t word_addr, std::uint64_t now) {
    if (n_ >= entries_.size()) {
      ++stats_.stalled;
      return false;
    }
    const std::uint64_t expiry = now + latency_;
    entries_[n_++] = {word_addr, expiry};
    if (expiry < earliest_expiry_) earliest_expiry_ = expiry;
    ++stats_.requests;
    ++stats_.issued;
    return true;
  }

  /// Drop entries whose merge window has expired.
  void purge_expired(std::uint64_t now) {
    if (now >= earliest_expiry_) purge(now);
  }

  int occupancy() const { return static_cast<int>(n_); }
  bool empty() const { return n_ == 0; }
  const ScatterAddStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t addr;
    std::uint64_t expiry;
  };

  void purge(std::uint64_t now);

  std::uint64_t latency_;
  std::vector<Entry> entries_;  ///< combining_entries slots, first n_ in use
  std::size_t n_ = 0;
  /// Lower bound on every entry's expiry (a merge only pushes one later).
  std::uint64_t earliest_expiry_ = ~0ULL;
  ScatterAddStats stats_;
};

}  // namespace smd::mem
