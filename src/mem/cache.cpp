#include "src/mem/cache.h"

#include <stdexcept>

namespace smd::mem {

namespace {

std::int64_t total_sets(const CacheConfig& cfg) {
  if (cfg.n_banks <= 0 || cfg.line_words <= 0 || cfg.associativity <= 0) {
    throw std::runtime_error("cache geometry must be positive");
  }
  const std::int64_t sets =
      cfg.total_words / cfg.line_words / cfg.associativity;
  if (sets <= 0) throw std::runtime_error("cache too small");
  return sets;
}

}  // namespace

CacheTags::CacheTags(const CacheConfig& cfg)
    : cfg_(cfg),
      line_words_(static_cast<std::uint64_t>(cfg.line_words)),
      banks_(static_cast<std::uint64_t>(cfg.n_banks)),
      sets_(static_cast<std::uint64_t>(total_sets(cfg))) {
  ways_.assign(static_cast<std::size_t>(cfg_.total_words / cfg_.line_words),
               Way{});
}

void CacheTags::install(std::uint64_t line_addr, bool* evicted_valid,
                        std::uint64_t* evicted_line, bool* evicted_dirty) {
  ++tick_;
  *evicted_valid = false;
  *evicted_dirty = false;
  *evicted_line = 0;
  if (find(line_addr) != nullptr) return;  // already resident
  Way* set = &ways_[sets_.mod(line_addr) *
                    static_cast<std::size_t>(cfg_.associativity)];
  Way* victim = nullptr;
  for (int w = 0; w < cfg_.associativity; ++w) {
    Way& way = set[w];
    if (!way.valid) {
      victim = &way;
      break;
    }
    if (victim == nullptr || way.lru < victim->lru) victim = &way;
  }
  if (victim->valid) {
    *evicted_valid = true;
    *evicted_line = victim->line;
    *evicted_dirty = victim->dirty;
    if (victim->dirty) ++stats_.dirty_evictions;
  }
  victim->valid = true;
  victim->dirty = false;
  victim->line = line_addr;
  victim->lru = tick_;
}

}  // namespace smd::mem
