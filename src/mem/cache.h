// Merrimac stream cache tag model.
//
// The node has a 1 MB (128 KWord), 8-bank, line-interleaved stream cache
// with an aggregate bandwidth of 8 words/cycle (64 GB/s). Banks are
// selected by line address; within a bank the tag store is set-associative
// with LRU replacement. Scatter-add makes lines dirty; dirty evictions
// generate DRAM write traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "src/mem/fixed.h"

namespace smd::mem {

struct CacheConfig {
  int n_banks = 8;
  int line_words = 8;
  std::int64_t total_words = 131072;  ///< 1 MB of 64-bit words
  int associativity = 4;
  int hit_latency = 8;
  int mshrs_per_bank = 8;
  int bank_queue_depth = 16;
};

struct CacheStats {
  std::int64_t accesses = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;          ///< primary misses (line fetches)
  std::int64_t secondary_misses = 0;  ///< folded into an in-flight fetch
  std::int64_t dirty_evictions = 0;

  double hit_rate() const {
    return accesses ? static_cast<double>(hits) / static_cast<double>(accesses) : 0.0;
  }
};

/// Result of a tag probe.
enum class CacheOutcome { kHit, kMiss };

/// Set-associative, LRU, bank-partitioned tag array (tags only; data
/// movement is handled functionally by the owner).
class CacheTags {
 public:
  explicit CacheTags(const CacheConfig& cfg);

  int bank_of(std::uint64_t word_addr) const {
    return bank_of_line(line_of(word_addr));
  }
  int bank_of_line(std::uint64_t line_addr) const {
    return static_cast<int>(banks_.mod(line_addr));
  }
  std::uint64_t line_of(std::uint64_t word_addr) const {
    return line_words_.div(word_addr);
  }

  /// One way of a set: a resident line's tag state.
  struct Way {
    std::uint64_t line = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  /// Probe (and update LRU on hit). Does not allocate.
  CacheOutcome probe(std::uint64_t word_addr) {
    return probe_way(word_addr) != nullptr ? CacheOutcome::kHit
                                           : CacheOutcome::kMiss;
  }

  /// probe() that hands back the hit way (nullptr on a miss), so a caller
  /// can dirty the line without a second tag lookup.
  Way* probe_way(std::uint64_t word_addr) {
    ++tick_;
    ++stats_.accesses;
    Way* way = find(line_of(word_addr));
    if (way == nullptr) {
      ++stats_.misses;
      return nullptr;
    }
    way->lru = tick_;
    ++stats_.hits;
    return way;
  }

  /// Install a line; returns the evicted line address via out params.
  /// `evicted_dirty` reports whether a dirty line was displaced.
  void install(std::uint64_t line_addr, bool* evicted_valid,
               std::uint64_t* evicted_line, bool* evicted_dirty);

  /// Mark the line containing addr dirty (must be resident).
  void mark_dirty(std::uint64_t word_addr) {
    if (Way* way = find(line_of(word_addr))) way->dirty = true;
  }

  /// Probe only if the line containing addr is resident (a write-through
  /// store keeping a cached copy coherent): counts the access and hit and
  /// refreshes the LRU; an absent line is not counted at all.
  void probe_if_resident(std::uint64_t word_addr) {
    Way* way = find(line_of(word_addr));
    if (way == nullptr) return;
    ++tick_;
    ++stats_.accesses;
    way->lru = tick_;
    ++stats_.hits;
  }

  const CacheStats& stats() const { return stats_; }
  CacheStats& stats() { return stats_; }
  const CacheConfig& config() const { return cfg_; }

 private:
  Way* find(std::uint64_t line_addr) {
    Way* set = &ways_[sets_.mod(line_addr) *
                      static_cast<std::size_t>(cfg_.associativity)];
    for (int w = 0; w < cfg_.associativity; ++w) {
      if (set[w].valid && set[w].line == line_addr) return &set[w];
    }
    return nullptr;
  }

  CacheConfig cfg_;
  FixedDivisor line_words_;
  FixedDivisor banks_;
  FixedDivisor sets_;  ///< total sets across all banks
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace smd::mem
