#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <initializer_list>
#include <numeric>
#include <string>
#include <unordered_map>

#include "src/mem/addrgen.h"
#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/mem/memsys.h"
#include "src/mem/scatteradd.h"
#include "src/util/rng.h"

namespace smd::mem {
namespace {

MemSystemConfig small_config() {
  MemSystemConfig cfg;
  cfg.cache.total_words = 4096;
  cfg.dram.access_latency = 20;
  return cfg;
}

/// Drive the memory system until every issued op has completed.
std::uint64_t run_to_completion(MemSystem& ms, std::uint64_t limit = 10'000'000) {
  while (!ms.all_done()) {
    ms.tick();
    if (ms.now() > limit) {
      ADD_FAILURE() << "memory system did not drain";
      break;
    }
  }
  return ms.now();
}

TEST(GlobalMemory, AllocReadWrite) {
  GlobalMemory mem;
  const auto a = mem.alloc(10);
  const auto b = mem.alloc(5);
  EXPECT_EQ(b, a + 10);
  mem.write(a + 3, 7.5);
  EXPECT_DOUBLE_EQ(mem.read(a + 3), 7.5);
  mem.add(a + 3, 2.5);
  EXPECT_DOUBLE_EQ(mem.read(a + 3), 10.0);
}

TEST(GlobalMemory, BlockHelpersBoundsChecked) {
  GlobalMemory mem;
  const auto a = mem.alloc(4);
  mem.write_block(a, {1, 2, 3, 4});
  EXPECT_EQ(mem.read_block(a, 4), (std::vector<double>{1, 2, 3, 4}));
  EXPECT_THROW(mem.write_block(a + 2, {1, 2, 3}), std::runtime_error);
  EXPECT_THROW(mem.read_block(a, 5), std::runtime_error);
}

TEST(GlobalMemory, BlockHelpersRejectUnsignedWrap) {
  // Regression: `addr + n` overflow used to wrap past the end-of-memory
  // check and index out of bounds. Addresses near 2^64 must throw, not
  // wrap to small offsets.
  GlobalMemory mem;
  mem.alloc(16);
  const std::uint64_t huge = ~0ULL - 1;
  EXPECT_THROW(mem.write_block(huge, {1.0, 2.0, 3.0}), std::runtime_error);
  EXPECT_THROW(mem.read_block(huge, 4), std::runtime_error);
  EXPECT_THROW((void)mem.read_block(0, -1), std::runtime_error);
  // An exact fit against the upper boundary stays legal (off-by-one guard).
  mem.write_block(14, {7.0, 8.0});
  EXPECT_EQ(mem.read_block(14, 2), (std::vector<double>{7.0, 8.0}));
  EXPECT_THROW(mem.write_block(15, {7.0, 8.0}), std::runtime_error);
}

TEST(AddrGen, StridedDense) {
  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.base = 100;
  d.n_records = 3;
  d.record_words = 2;
  AddressGenerator ag;
  ag.start(&d);
  std::vector<std::uint64_t> addrs;
  while (!ag.done()) {
    addrs.push_back(ag.peek());
    ag.advance();
  }
  EXPECT_EQ(addrs, (std::vector<std::uint64_t>{100, 101, 102, 103, 104, 105}));
}

TEST(AddrGen, StridedWithGap) {
  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.base = 0;
  d.n_records = 2;
  d.record_words = 2;
  d.stride_words = 5;
  AddressGenerator ag;
  ag.start(&d);
  std::vector<std::uint64_t> addrs;
  while (!ag.done()) {
    addrs.push_back(ag.peek());
    ag.advance();
  }
  EXPECT_EQ(addrs, (std::vector<std::uint64_t>{0, 1, 5, 6}));
}

TEST(AddrGen, GatherUsesIndices) {
  MemOpDesc d;
  d.kind = MemOpKind::kLoadGather;
  d.base = 10;
  d.n_records = 3;
  d.record_words = 3;
  d.indices = {2, 0, 5};
  AddressGenerator ag;
  ag.start(&d);
  std::vector<std::uint64_t> addrs;
  while (!ag.done()) {
    addrs.push_back(ag.peek());
    ag.advance();
  }
  EXPECT_EQ(addrs, (std::vector<std::uint64_t>{16, 17, 18, 10, 11, 12, 25, 26, 27}));
}

TEST(AddrGen, ShortIndexStreamThrows) {
  MemOpDesc d;
  d.kind = MemOpKind::kLoadGather;
  d.n_records = 3;
  d.indices = {1};
  AddressGenerator ag;
  EXPECT_THROW(ag.start(&d), std::runtime_error);
}

TEST(CacheTags, HitAfterInstall) {
  CacheConfig cfg;
  cfg.total_words = 1024;
  CacheTags tags(cfg);
  EXPECT_EQ(tags.probe(40), CacheOutcome::kMiss);
  bool ev, dirty;
  std::uint64_t line;
  tags.install(tags.line_of(40), &ev, &line, &dirty);
  EXPECT_FALSE(ev);
  EXPECT_EQ(tags.probe(40), CacheOutcome::kHit);
  EXPECT_EQ(tags.probe(47), CacheOutcome::kHit);  // same 8-word line
  EXPECT_EQ(tags.probe(48), CacheOutcome::kMiss); // next line
}

TEST(CacheTags, LruEvictionOrder) {
  CacheConfig cfg;
  cfg.total_words = 8 * 4 * 8;  // exactly 4 sets... keep small: 4 lines/set
  cfg.n_banks = 1;
  cfg.associativity = 2;
  CacheTags tags(cfg);
  const std::int64_t n_sets = cfg.total_words / cfg.line_words / cfg.associativity;
  bool ev, dirty;
  std::uint64_t evl;
  // Fill one set with two lines, touch the first, install a third:
  // the second (LRU) must be evicted.
  const std::uint64_t l0 = 0, l1 = l0 + static_cast<std::uint64_t>(n_sets),
                      l2 = l0 + 2 * static_cast<std::uint64_t>(n_sets);
  tags.install(l0, &ev, &evl, &dirty);
  tags.install(l1, &ev, &evl, &dirty);
  tags.probe(l0 * 8);  // refresh l0
  tags.install(l2, &ev, &evl, &dirty);
  EXPECT_TRUE(ev);
  EXPECT_EQ(evl, l1);
}

TEST(CacheTags, DirtyEvictionReported) {
  CacheConfig cfg;
  cfg.total_words = 8 * 2;  // 2 lines, 1 set at assoc 2
  cfg.associativity = 2;
  cfg.n_banks = 1;
  CacheTags tags(cfg);
  bool ev, dirty;
  std::uint64_t evl;
  tags.install(0, &ev, &evl, &dirty);
  tags.mark_dirty(0);
  tags.install(1, &ev, &evl, &dirty);
  tags.install(2, &ev, &evl, &dirty);  // evicts line 0 (dirty)
  EXPECT_TRUE(ev);
  EXPECT_TRUE(dirty);
  EXPECT_EQ(tags.stats().dirty_evictions, 1);
}

TEST(Dram, ReadCompletesAfterLatency) {
  DramConfig cfg;
  cfg.access_latency = 10;
  Dram dram(cfg, 8);
  ASSERT_TRUE(dram.try_read_line(3));
  std::vector<std::uint64_t> done;
  for (int t = 0; t < 200 && done.empty(); ++t) {
    dram.tick();
    for (auto line : dram.completed_reads()) done.push_back(line);
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 3u);
  // Latency must be at least access_latency + transfer time.
  EXPECT_GE(dram.now(), 10u);
}

TEST(Dram, PeakBandwidthApproached) {
  // Stream many sequential lines through all channels and verify the
  // sustained rate approaches n_channels * words_per_cycle.
  DramConfig cfg;
  cfg.access_latency = 10;
  Dram dram(cfg, 8);
  const int n_lines = 2000;
  int issued = 0, completed = 0;
  while (completed < n_lines) {
    while (issued < n_lines && dram.try_read_line(static_cast<std::uint64_t>(issued))) ++issued;
    dram.tick();
    completed += static_cast<int>(dram.completed_reads().size());
    ASSERT_LT(dram.now(), 100000u);
  }
  const double words = static_cast<double>(n_lines) * 8;
  const double peak = cfg.channel_words_per_cycle * cfg.n_channels;
  const double achieved = words / static_cast<double>(dram.now());
  EXPECT_GT(achieved, 0.75 * peak);
  EXPECT_LE(achieved, peak * 1.01);
}

TEST(Dram, RandomAccessSlowerThanSequential) {
  auto run = [](bool random) {
    DramConfig cfg;
    Dram dram(cfg, 8);
    util::Rng rng(1);
    const int n_lines = 1500;
    int issued = 0, completed = 0;
    while (completed < n_lines) {
      while (issued < n_lines) {
        const std::uint64_t line =
            random ? rng.uniform_u64(1 << 20) : static_cast<std::uint64_t>(issued);
        if (!dram.try_read_line(line)) break;
        ++issued;
      }
      dram.tick();
      completed += static_cast<int>(dram.completed_reads().size());
    }
    return dram.now();
  };
  EXPECT_GT(run(true), run(false));
}

TEST(Dram, SameCycleCompletionsPopInLineOrder) {
  // Reads finishing in the same cycle on different channels return in
  // ascending line order, whatever the channel order: the fill order
  // decides cache install order and LRU victims.
  DramConfig cfg;
  cfg.channel_words_per_cycle = 8.0;  // a whole line per cycle
  cfg.row_miss_penalty_words = 0;
  cfg.access_latency = 5;
  Dram dram(cfg, 8);
  for (const std::uint64_t line : {8u, 1u, 18u, 3u}) {
    ASSERT_TRUE(dram.try_read_line(line));  // channels 0, 1, 2, 3
  }
  std::vector<std::uint64_t> done;
  for (int t = 0; t < 20 && done.empty(); ++t) {
    dram.tick();
    done.assign(dram.completed_reads().begin(), dram.completed_reads().end());
  }
  EXPECT_EQ(done, (std::vector<std::uint64_t>{1, 3, 8, 18}));
}

TEST(Dram, WritesDrain) {
  DramConfig cfg;
  Dram dram(cfg, 8);
  ASSERT_TRUE(dram.try_write_words(100, 64));
  int t = 0;
  while (!dram.writes_drained() && t < 10000) {
    dram.tick();
    ++t;
  }
  EXPECT_TRUE(dram.writes_drained());
  EXPECT_EQ(dram.stats().write_words, 64);
}

TEST(CombiningStore, MergesSameAddress) {
  ScatterAddConfig cfg;
  CombiningStore cs(cfg);
  EXPECT_FALSE(cs.try_merge(42, 0));  // nothing in flight yet
  EXPECT_TRUE(cs.try_allocate(42, 0));
  EXPECT_TRUE(cs.try_merge(42, 1));
  EXPECT_TRUE(cs.try_merge(42, 2));
  EXPECT_EQ(cs.stats().combined, 2);
  EXPECT_EQ(cs.occupancy(), 1);
}

TEST(CombiningStore, CapacityEnforced) {
  ScatterAddConfig cfg;
  cfg.combining_entries = 2;
  CombiningStore cs(cfg);
  EXPECT_TRUE(cs.try_allocate(1, 0));
  EXPECT_TRUE(cs.try_allocate(2, 0));
  EXPECT_FALSE(cs.try_allocate(3, 0));  // full, different address
  EXPECT_TRUE(cs.try_merge(1, 0));      // merge still allowed
  EXPECT_EQ(cs.stats().stalled, 1);
}

TEST(CombiningStore, MergeWindowExpires) {
  ScatterAddConfig cfg;
  cfg.latency = 4;
  CombiningStore cs(cfg);
  cs.try_allocate(7, 10);
  cs.purge_expired(12);
  EXPECT_FALSE(cs.empty());       // still in the pipeline at t=12
  EXPECT_TRUE(cs.try_merge(7, 12));  // merging extends the window
  cs.purge_expired(15);
  EXPECT_FALSE(cs.empty());       // extended to 16
  cs.purge_expired(17);
  EXPECT_TRUE(cs.empty());
  EXPECT_FALSE(cs.try_merge(7, 18));  // window closed
}

/// The plain model the expiry-ordered store must match: an unordered
/// address -> expiry map, purged by a full scan.
struct ReferenceCombiningStore {
  std::size_t capacity;
  std::uint64_t latency;
  std::unordered_map<std::uint64_t, std::uint64_t> expiry;
  ScatterAddStats stats;

  bool try_merge(std::uint64_t addr, std::uint64_t now) {
    const auto it = expiry.find(addr);
    if (it == expiry.end()) return false;
    it->second = now + latency;
    ++stats.requests;
    ++stats.combined;
    return true;
  }
  bool try_allocate(std::uint64_t addr, std::uint64_t now) {
    if (expiry.size() >= capacity) {
      ++stats.stalled;
      return false;
    }
    expiry[addr] = now + latency;
    ++stats.requests;
    ++stats.issued;
    return true;
  }
  void purge_expired(std::uint64_t now) {
    std::erase_if(expiry, [now](const auto& e) { return e.second <= now; });
  }
};

template <class T>
T pick(util::Rng& rng, std::initializer_list<T> choices) {
  return *(choices.begin() + rng.uniform_u64(choices.size()));
}

TEST(CombiningStore, MatchesFullScanReference) {
  // Random merge / allocate / purge sequences at a non-decreasing cycle:
  // every answer, the occupancy and the statistics must match the
  // reference after every step.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng(seed);
    ScatterAddConfig cfg;
    cfg.latency = pick(rng, {1, 4, 9});
    cfg.combining_entries = pick(rng, {1, 2, 3, 8});
    CombiningStore cs(cfg);
    ReferenceCombiningStore ref{static_cast<std::size_t>(cfg.combining_entries),
                                static_cast<std::uint64_t>(cfg.latency),
                                {},
                                {}};
    const std::uint64_t n_addrs = pick<std::uint64_t>(rng, {2, 5, 16});
    std::uint64_t now = 1;
    for (int step = 0; step < 400; ++step) {
      now += pick<std::uint64_t>(rng, {0, 0, 1, 1, 2, 7});
      const std::uint64_t addr = rng.uniform_u64(n_addrs);
      switch (rng.uniform_u64(4)) {
        case 0: {  // a bank's scatter-add: purge, merge, else allocate
          cs.purge_expired(now - 1);
          ref.purge_expired(now - 1);
          const bool merged = cs.try_merge(addr, now);
          ASSERT_EQ(merged, ref.try_merge(addr, now)) << "seed " << seed;
          if (!merged) {
            ASSERT_EQ(cs.try_allocate(addr, now), ref.try_allocate(addr, now))
                << "seed " << seed;
          }
          break;
        }
        case 1:  // a merge that may find a window closed but not purged
          ASSERT_EQ(cs.try_merge(addr, now), ref.try_merge(addr, now))
              << "seed " << seed;
          break;
        default: {
          const std::uint64_t at = now - rng.uniform_u64(2);
          cs.purge_expired(at);
          ref.purge_expired(at);
          break;
        }
      }
      ASSERT_EQ(cs.occupancy(), static_cast<int>(ref.expiry.size()))
          << "seed " << seed << " step " << step;
      const ScatterAddStats& a = cs.stats();
      const ScatterAddStats& b = ref.stats;
      ASSERT_EQ(a.requests, b.requests) << "seed " << seed;
      ASSERT_EQ(a.combined, b.combined) << "seed " << seed;
      ASSERT_EQ(a.issued, b.issued) << "seed " << seed;
      ASSERT_EQ(a.stalled, b.stalled) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// MemSystem end-to-end
// ---------------------------------------------------------------------------

TEST(MemSystem, StridedLoadFunctionalAndTimed) {
  GlobalMemory mem;
  const auto base = mem.alloc(1000);
  for (int i = 0; i < 1000; ++i) mem.write(base + static_cast<std::uint64_t>(i), i * 0.5);
  MemSystem ms(small_config(), &mem);

  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.base = base;
  d.n_records = 100;
  d.record_words = 4;
  std::vector<double> dst;
  const auto id = ms.issue(d, &dst, nullptr);
  ASSERT_EQ(dst.size(), 400u);
  for (int i = 0; i < 400; ++i) EXPECT_DOUBLE_EQ(dst[static_cast<std::size_t>(i)], i * 0.5);
  EXPECT_FALSE(ms.op_done(id));
  run_to_completion(ms);
  EXPECT_TRUE(ms.op_done(id));
  EXPECT_GT(ms.op_finish_time(id), 0u);
}

TEST(MemSystem, GatherLoadPullsIndexedRecords) {
  GlobalMemory mem;
  const auto base = mem.alloc(90);
  for (int i = 0; i < 90; ++i) mem.write(base + static_cast<std::uint64_t>(i), i);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kLoadGather;
  d.base = base;
  d.n_records = 3;
  d.record_words = 9;
  d.indices = {5, 0, 9};
  std::vector<double> dst;
  ms.issue(d, &dst, nullptr);
  run_to_completion(ms);
  ASSERT_EQ(dst.size(), 27u);
  EXPECT_DOUBLE_EQ(dst[0], 45.0);
  EXPECT_DOUBLE_EQ(dst[9], 0.0);
  EXPECT_DOUBLE_EQ(dst[18], 81.0);
}

TEST(MemSystem, StoreWritesThrough) {
  GlobalMemory mem;
  const auto base = mem.alloc(64);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kStoreStrided;
  d.base = base;
  d.n_records = 8;
  d.record_words = 8;
  std::vector<double> src(64);
  std::iota(src.begin(), src.end(), 0.0);
  ms.issue(d, nullptr, &src);
  run_to_completion(ms);
  for (int i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(mem.read(base + static_cast<std::uint64_t>(i)), i);
  }
  EXPECT_EQ(ms.dram_stats().write_words, 64);
}

TEST(MemSystem, ScatterAddAccumulates) {
  GlobalMemory mem;
  const auto base = mem.alloc(10);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kScatterAdd;
  d.base = base;
  d.n_records = 6;
  d.record_words = 1;
  d.indices = {3, 3, 3, 1, 3, 1};
  const std::vector<double> src = {1, 2, 3, 10, 4, 20};
  ms.issue(d, nullptr, &src);
  run_to_completion(ms);
  EXPECT_DOUBLE_EQ(mem.read(base + 3), 10.0);
  EXPECT_DOUBLE_EQ(mem.read(base + 1), 30.0);
  EXPECT_GT(ms.scatter_add_stats().combined, 0);
}

TEST(MemSystem, ScatterAddMatchesSequentialSumProperty) {
  // Property: for adversarial random index multisets, scatter-add equals a
  // sequential accumulation.
  util::Rng rng(2024);
  GlobalMemory mem;
  const auto base = mem.alloc(32);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kScatterAdd;
  d.base = base;
  d.n_records = 500;
  d.record_words = 1;
  std::vector<double> src;
  std::vector<double> expect(32, 0.0);
  for (int i = 0; i < 500; ++i) {
    const auto idx = rng.uniform_u64(32);
    const double v = rng.uniform(-1, 1);
    d.indices.push_back(idx);
    src.push_back(v);
    expect[idx] += v;
  }
  ms.issue(d, nullptr, &src);
  run_to_completion(ms);
  for (int i = 0; i < 32; ++i) {
    EXPECT_NEAR(mem.read(base + static_cast<std::uint64_t>(i)), expect[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(MemSystem, RepeatedGatherHitsInCache) {
  GlobalMemory mem;
  const auto base = mem.alloc(256);
  MemSystemConfig cfg = small_config();
  MemSystem ms(cfg, &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kLoadGather;
  d.base = base;
  d.n_records = 16;
  d.record_words = 8;
  for (int i = 0; i < 16; ++i) d.indices.push_back(static_cast<std::uint64_t>(i % 4));
  std::vector<double> dst;
  ms.issue(d, &dst, nullptr);
  run_to_completion(ms);
  // In-flight repeats fold into MSHRs: only 4 distinct lines reach DRAM.
  EXPECT_EQ(ms.dram_stats().read_lines, 4);
  EXPECT_GT(ms.cache_stats().secondary_misses, 0);
  // A second pass over the now-resident lines hits outright.
  std::vector<double> dst2;
  ms.issue(d, &dst2, nullptr);
  run_to_completion(ms);
  EXPECT_EQ(ms.dram_stats().read_lines, 4);  // no new fetches
  EXPECT_GT(ms.cache_stats().hit_rate(), 0.45);
  EXPECT_EQ(dst2, dst);
}

TEST(MemSystem, ConcurrentOpsAllComplete) {
  GlobalMemory mem;
  const auto a = mem.alloc(4096);
  const auto b = mem.alloc(4096);
  MemSystem ms(small_config(), &mem);
  std::vector<double> d1, d2;
  MemOpDesc l1;
  l1.kind = MemOpKind::kLoadStrided;
  l1.base = a;
  l1.n_records = 512;
  l1.record_words = 8;
  MemOpDesc l2 = l1;
  l2.base = b;
  const auto id1 = ms.issue(l1, &d1, nullptr);
  const auto id2 = ms.issue(l2, &d2, nullptr);
  run_to_completion(ms);
  EXPECT_TRUE(ms.op_done(id1));
  EXPECT_TRUE(ms.op_done(id2));
  EXPECT_EQ(ms.stats().words_loaded, 8192);
}

TEST(MemSystem, SequentialLoadApproachesDramPeak) {
  GlobalMemory mem;
  const auto base = mem.alloc(65536);
  MemSystemConfig cfg = small_config();
  MemSystem ms(cfg, &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.base = base;
  d.n_records = 8192;
  d.record_words = 8;
  std::vector<double> dst;
  ms.issue(d, &dst, nullptr);
  const auto cycles = run_to_completion(ms);
  const double words_per_cycle = 65536.0 / static_cast<double>(cycles);
  const double dram_peak = cfg.dram.n_channels * cfg.dram.channel_words_per_cycle;
  EXPECT_GT(words_per_cycle, 0.6 * dram_peak);   // streams well
  EXPECT_LT(words_per_cycle, dram_peak * 1.01);  // never exceeds peak
}

TEST(MemSystem, AllDoneWaitsForDramToGoQuiet) {
  // Regression: all_done() used to ignore the DRAM's own state, reporting
  // completion while posted write-through words were still draining at
  // channel bandwidth. After all_done() the DRAM must be idle: further
  // ticks accrue no busy cycles.
  GlobalMemory mem;
  const auto base = mem.alloc(4096);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kStoreStrided;
  d.base = base;
  d.n_records = 512;
  d.record_words = 8;
  std::vector<double> src(4096, 1.5);
  ms.issue(d, nullptr, &src);
  run_to_completion(ms);
  const auto busy = ms.dram_stats().busy_cycles;
  for (int i = 0; i < 500; ++i) ms.tick();
  EXPECT_EQ(ms.dram_stats().busy_cycles, busy);
  EXPECT_TRUE(ms.all_done());
}

TEST(MemSystem, ScatterAddCombiningFullRetriesAndCountsStall) {
  // Regression: the scatter-add miss-fill path ignored the combining
  // store's try_allocate result, so a full combining store neither held
  // the request head-of-line nor surfaced in the `stalled` counter. With
  // one combining entry per bank and two cold lines on the same bank, the
  // second addition must retry (stalled > 0) and the sums stay exact.
  GlobalMemory mem;
  const auto base = mem.alloc(128);
  ASSERT_EQ(base, 0u);  // line/bank mapping below assumes base 0
  MemSystemConfig cfg = small_config();
  cfg.scatter_add.combining_entries = 1;
  MemSystem ms(cfg, &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kScatterAdd;
  d.base = base;
  d.n_records = 8;
  d.record_words = 1;
  // Words 0 and 64: distinct cache lines, same bank (8 banks x 8-word
  // lines), alternating so every other addition finds the single
  // combining entry held by the other address.
  d.indices = {0, 64, 0, 64, 0, 64, 0, 64};
  const std::vector<double> src = {1, 10, 2, 20, 3, 30, 4, 40};
  ms.issue(d, nullptr, &src);
  run_to_completion(ms);
  EXPECT_DOUBLE_EQ(mem.read(base + 0), 10.0);
  EXPECT_DOUBLE_EQ(mem.read(base + 64), 100.0);
  EXPECT_GT(ms.scatter_add_stats().stalled, 0);
  EXPECT_EQ(ms.scatter_add_stats().requests, 8);
}

TEST(MemSystem, ZeroLengthOpCompletesImmediately) {
  GlobalMemory mem;
  mem.alloc(8);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.n_records = 0;
  std::vector<double> dst;
  const auto id = ms.issue(d, &dst, nullptr);
  EXPECT_TRUE(ms.op_done(id));
  EXPECT_TRUE(dst.empty());
}

// ---------------------------------------------------------------------------
// Step-vs-jump equivalence over random op mixes
// ---------------------------------------------------------------------------

/// One randomized workload: a small machine, often with non-power-of-two
/// geometry, and ops issued at fixed cycles. The shapes are chosen so the
/// blocking paths fire across a sweep: one MSHR or a one-deep DRAM read
/// queue (blocked misses retried every cycle), a one-line write buffer on a
/// slow channel (blocked write-through stores and dirty writebacks), one
/// combining entry (stalled scatter-adds) and a cache of a few lines
/// (dirty evictions).
struct Mix {
  struct Issue {
    std::uint64_t at = 0;  ///< cycle at which the op is issued
    MemOpDesc desc;
    std::vector<double> src;  ///< stores and scatter-adds
  };
  MemSystemConfig cfg;
  std::int64_t memory_words = 0;
  std::vector<Issue> ops;
};

Mix random_mix(std::uint64_t seed) {
  util::Rng rng(seed);
  Mix m;
  CacheConfig& c = m.cfg.cache;
  c.n_banks = pick(rng, {1, 2, 3, 4, 8});
  c.line_words = pick(rng, {4, 6, 8});
  c.associativity = pick(rng, {1, 2, 3, 4});
  c.total_words = static_cast<std::int64_t>(c.n_banks) * c.associativity *
                  pick(rng, {1, 2, 3, 4}) * c.line_words;
  c.hit_latency = pick(rng, {1, 8});
  c.mshrs_per_bank = pick(rng, {1, 2, 3, 8});
  c.bank_queue_depth = pick(rng, {1, 2, 5, 16});
  DramConfig& d = m.cfg.dram;
  d.n_channels = pick(rng, {1, 2, 3, 8});
  d.channel_words_per_cycle = pick(rng, {0.3, 0.6, 1.0, 2.5});
  d.access_latency = pick(rng, {0, 1, 7, 20});
  d.row_words = pick(rng, {16, 48, 2048});
  d.row_miss_penalty_words = pick(rng, {0, 8});
  d.read_queue_depth = pick(rng, {1, 2, 4, 16});
  d.write_buffer_words = c.line_words * pick<std::int64_t>(rng, {1, 2, 32});
  ScatterAddConfig& s = m.cfg.scatter_add;
  s.latency = pick(rng, {1, 4, 9});
  s.combining_entries = pick(rng, {1, 2, 8});
  m.cfg.n_address_generators = pick(rng, {1, 2, 3});
  m.cfg.addrs_per_generator = pick(rng, {1, 4, 5});

  m.memory_words = pick<std::int64_t>(rng, {64, 200, 1024});
  const int n_ops = 2 + static_cast<int>(rng.uniform_u64(7));
  std::uint64_t at = 0;
  for (int i = 0; i < n_ops; ++i) {
    Mix::Issue op;
    at += pick<std::uint64_t>(rng, {0, 0, 1, 3, 40, 400});
    op.at = at;
    MemOpDesc& desc = op.desc;
    desc.kind = static_cast<MemOpKind>(rng.uniform_u64(5));
    desc.record_words = 1 + static_cast<int>(rng.uniform_u64(9));
    const std::int64_t fit = m.memory_words / desc.record_words;
    desc.n_records = 1 + static_cast<std::int64_t>(
                             rng.uniform_u64(std::min<std::int64_t>(fit, 48)));
    if (desc.kind == MemOpKind::kLoadStrided ||
        desc.kind == MemOpKind::kStoreStrided) {
      desc.stride_words = pick<std::int64_t>(
          rng, {0, 0, desc.record_words + 1, 3 * desc.record_words});
      const std::int64_t stride =
          desc.stride_words != 0 ? desc.stride_words : desc.record_words;
      desc.n_records = std::min(
          desc.n_records, (m.memory_words - desc.record_words) / stride + 1);
      const std::int64_t span =
          (desc.n_records - 1) * stride + desc.record_words;
      desc.base = rng.uniform_u64(static_cast<std::uint64_t>(
          m.memory_words - span + 1));
    } else {
      // A small hot set gives duplicate indices (combining, secondary
      // misses); the whole footprint gives cold misses and evictions.
      const std::int64_t hot =
          std::min(fit, pick<std::int64_t>(rng, {2, 5, fit}));
      for (std::int64_t r = 0; r < desc.n_records; ++r) {
        desc.indices.push_back(rng.uniform_u64(static_cast<std::uint64_t>(hot)));
      }
    }
    if (is_store(desc.kind)) {
      for (std::int64_t w = 0; w < desc.total_words(); ++w) {
        op.src.push_back(rng.uniform(-1.0, 1.0));
      }
    }
    m.ops.push_back(std::move(op));
  }
  return m;
}

constexpr const char* kStatNames[] = {
    "ops", "words_loaded", "words_stored", "addr_generated", "busy_cycles",
    "cache.accesses", "cache.hits", "cache.misses", "cache.secondary_misses",
    "cache.dirty_evictions", "dram.read_lines", "dram.read_words",
    "dram.write_words", "dram.row_misses", "dram.busy_cycles",
    "scatter_add.requests", "scatter_add.combined", "scatter_add.issued",
    "scatter_add.stalled", "final_cycle", "sum_finish_time"};

struct MixRun {
  std::vector<std::int64_t> stats;  ///< in kStatNames order
  std::vector<std::uint64_t> finish;
  std::vector<std::uint64_t> image;  ///< memory words as bit patterns
  std::vector<std::vector<double>> loaded;
  int early_stops = 0;  ///< kCompletion calls that stopped short of `t`
};

enum class Drive { kStep, kJump, kCompletion };

/// Run a mix to quiescence. kStep calls tick() once per cycle -- the
/// oracle. kJump advances with tick_until() to the next event (bounded by
/// pending op pipeline drains), alternating with single long tick_until()
/// leaps to the next issue cycle. kCompletion advances the way the event
/// engine does: tick_until_completion() towards the next issue cycle or
/// pipeline drain, unbounded otherwise while an op is still in flight,
/// and checks that every call stops exactly on the tick of the first op
/// completion, or at its target.
MixRun run_mix(const Mix& m, Drive drive) {
  GlobalMemory mem;
  mem.alloc(m.memory_words);
  for (std::int64_t i = 0; i < m.memory_words; ++i) {
    mem.write(static_cast<std::uint64_t>(i), 0.25 * static_cast<double>(i));
  }
  MemSystem ms(m.cfg, &mem);
  MixRun out;
  out.loaded.resize(m.ops.size());
  std::vector<MemSystem::OpId> ids;
  const auto next_drain = [&] {
    std::uint64_t t = MemSystem::kNever;
    for (const MemSystem::OpId id : ids) {
      if (ms.op_completed(id) && !ms.op_done(id)) {
        t = std::min(t, std::max(ms.op_finish_time(id), ms.now() + 1));
      }
    }
    return t;
  };
  const auto next_event = [&] {
    return std::min(ms.next_event_time(), next_drain());
  };
  const auto hit_latency =
      static_cast<std::uint64_t>(m.cfg.cache.hit_latency);
  const auto advance_to_completion = [&](std::uint64_t t) {
    std::vector<bool> was_completed;
    for (const MemSystem::OpId id : ids) {
      was_completed.push_back(ms.op_completed(id));
    }
    const bool stopped = ms.tick_until_completion(t);
    bool completed = false;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (was_completed[k] || !ms.op_completed(ids[k])) continue;
      completed = true;
      // finish_time is the completion tick plus the pipeline drain: an op
      // that completed on an earlier tick of this call shows up here.
      if (ms.op_finish_time(ids[k]) != ms.now() + hit_latency) {
        ADD_FAILURE() << "op " << k << " completed at "
                      << ms.op_finish_time(ids[k]) - hit_latency
                      << ", call returned at " << ms.now();
      }
    }
    if (stopped != completed) {
      ADD_FAILURE() << "tick_until_completion returned " << stopped
                    << " with completion " << completed;
    }
    if (!stopped && ms.now() != t) {
      ADD_FAILURE() << "no completion, stopped at " << ms.now()
                    << " short of " << t;
    }
    if (stopped && ms.now() < t) ++out.early_stops;
  };
  constexpr std::uint64_t kDrainLimit = 10'000'000;
  for (std::size_t k = 0; k < m.ops.size(); ++k) {
    const Mix::Issue& op = m.ops[k];
    if (drive == Drive::kStep) {
      while (ms.now() < op.at) ms.tick();
    } else if (drive == Drive::kCompletion) {
      while (ms.now() < op.at) advance_to_completion(op.at);
    } else if (k % 2 == 0) {
      ms.tick_until(op.at);
    } else {
      while (ms.now() < op.at) ms.tick_until(std::min(op.at, next_event()));
    }
    const bool load = is_load(op.desc.kind);
    ids.push_back(ms.issue(op.desc, load ? &out.loaded[k] : nullptr,
                           load ? nullptr : &op.src));
  }
  while (!ms.all_done()) {
    if (drive == Drive::kStep) {
      ms.tick();
    } else if (drive == Drive::kCompletion) {
      const bool in_flight = std::any_of(
          ids.begin(), ids.end(),
          [&](MemSystem::OpId id) { return !ms.op_completed(id); });
      advance_to_completion(in_flight ? std::min(next_drain(), kDrainLimit + 1)
                                      : next_event());
    } else {
      const std::uint64_t t = next_event();
      if (t == MemSystem::kNever) {
        ADD_FAILURE() << "memory system busy with no next event";
        break;
      }
      ms.tick_until(t);
    }
    if (ms.now() > kDrainLimit) {
      ADD_FAILURE() << "memory system did not drain";
      break;
    }
  }
  std::int64_t sum_finish = 0;
  for (const MemSystem::OpId id : ids) {
    out.finish.push_back(ms.op_finish_time(id));
    sum_finish += static_cast<std::int64_t>(ms.op_finish_time(id));
  }
  const MemSystemStats& s = ms.stats();
  const CacheStats& c = ms.cache_stats();
  const DramStats& d = ms.dram_stats();
  const ScatterAddStats sa = ms.scatter_add_stats();
  out.stats = {s.ops, s.words_loaded, s.words_stored, s.addr_generated,
               s.busy_cycles, c.accesses, c.hits, c.misses,
               c.secondary_misses, c.dirty_evictions, d.read_lines,
               d.read_words, d.write_words, d.row_misses, d.busy_cycles,
               sa.requests, sa.combined, sa.issued, sa.stalled,
               static_cast<std::int64_t>(ms.now()), sum_finish};
  for (std::int64_t i = 0; i < m.memory_words; ++i) {
    out.image.push_back(
        std::bit_cast<std::uint64_t>(mem.read(static_cast<std::uint64_t>(i))));
  }
  return out;
}

std::string stats_diff(const std::vector<std::int64_t>& want,
                       const std::vector<std::int64_t>& got) {
  std::string diff;
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (want[i] != got[i]) {
      diff += std::string(" ") + kStatNames[i] + ": " +
              std::to_string(want[i]) + " vs " + std::to_string(got[i]) + ";";
    }
  }
  return diff;
}

TEST(MemSystemProperty, SteppedAndJumpedRunsAreBitIdentical) {
  int dirty_evictions = 0, stalled = 0, retried_misses = 0, fast_forwards = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Mix m = random_mix(seed);
    const MixRun step = run_mix(m, Drive::kStep);
    const MixRun jump = run_mix(m, Drive::kJump);
    ASSERT_EQ(step.stats, jump.stats)
        << "seed " << seed << ":" << stats_diff(step.stats, jump.stats);
    ASSERT_EQ(step.finish, jump.finish) << "seed " << seed;
    ASSERT_EQ(step.image, jump.image) << "seed " << seed;
    ASSERT_EQ(step.loaded, jump.loaded) << "seed " << seed;
    // stats: 9 dirty_evictions, 18 stalled, 7 misses, 8 secondary, 10 reads.
    dirty_evictions += step.stats[9] > 0;
    stalled += step.stats[18] > 0;
    // A probe miss that neither opened a fill nor folded into one was
    // blocked (MSHRs, DRAM read queue or combining store full) and retried.
    retried_misses += step.stats[7] > step.stats[8] + step.stats[10];
    // Memory-busy cycles well short of the final cycle mean idle stretches
    // that the jumped run crossed in one leap.
    fast_forwards += step.stats[4] + 100 < step.stats[19];
  }
  EXPECT_GT(dirty_evictions, 10);
  EXPECT_GT(stalled, 10);
  EXPECT_GT(retried_misses, 10);
  EXPECT_GT(fast_forwards, 10);
}

TEST(MemSystemProperty, CompletionBoundedRunsMatchStepped) {
  // The event engine's advance: each tick_until_completion() call must stop
  // on the tick of the first op completion (checked inside run_mix), and
  // the whole run must match per-cycle tick() exactly.
  int early_stops = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Mix m = random_mix(seed);
    const MixRun step = run_mix(m, Drive::kStep);
    const MixRun comp = run_mix(m, Drive::kCompletion);
    ASSERT_EQ(step.stats, comp.stats)
        << "seed " << seed << ":" << stats_diff(step.stats, comp.stats);
    ASSERT_EQ(step.finish, comp.finish) << "seed " << seed;
    ASSERT_EQ(step.image, comp.image) << "seed " << seed;
    ASSERT_EQ(step.loaded, comp.loaded) << "seed " << seed;
    early_stops += comp.early_stops;
  }
  // Completions regularly land before the next issue cycle or drain.
  EXPECT_GT(early_stops, 200);
}

TEST(MemSystemProperty, PinnedMixStats) {
  // Exact statistics of three fixed mixes (8 banks of 4-word lines with
  // one MSHR each; 3 banks of 6-word lines on one slow channel; 8 banks of
  // 6-word lines on 2 channels of latency 20), captured from the model
  // before its data structures were made fixed-capacity. Any change to the
  // retry-counting semantics (a blocked bank re-probing the cache and
  // re-counting scatter-add stalls every cycle), the fill order of
  // same-cycle DRAM completions or the combining window shows up here.
  struct Pin {
    std::uint64_t seed;
    std::vector<std::int64_t> stats;
  };
  const Pin pins[] = {
      {18, {7, 290, 880, 1170, 1403, 2876, 2657, 219, 37, 1, 93, 372, 204, 3,
            266, 680, 9, 671, 1686, 1732, 8056}},
      {54, {8, 263, 681, 944, 2007, 1861, 496, 1365, 306, 3, 77, 462, 318, 1,
            2600, 381, 18, 363, 306, 2600, 8945}},
      {113, {8, 624, 357, 981, 1607, 2140, 133, 2007, 432, 36, 121, 726, 534,
             102, 1749, 39, 1, 38, 0, 1789, 9315}},
  };
  for (const Pin& pin : pins) {
    const MixRun run = run_mix(random_mix(pin.seed), Drive::kStep);
    EXPECT_EQ(run.stats, pin.stats)
        << "seed " << pin.seed << ":" << stats_diff(pin.stats, run.stats);
  }
}

}  // namespace
}  // namespace smd::mem
