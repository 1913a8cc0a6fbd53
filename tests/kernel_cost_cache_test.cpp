// Tests for the process-wide kernel cost cache (sim/kernelexec):
// cached costs are bit-identical to fresh schedules, the key is exact
// content (any single field difference misses, equal content at another
// address hits), scheduling errors are never cached, eviction at the
// fixed capacity stays correct, and concurrent misses on one key run one
// schedule. scripts/check.sh runs this binary under every preset; under
// tsan it is the data-race gate for the shared cache.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/kernels.h"
#include "src/md/water.h"
#include "src/obs/registry.h"
#include "src/sim/kernelexec.h"

namespace smd::sim {
namespace {

using kernel::KernelDef;
using kernel::Schedule;
using kernel::ScheduleOptions;

std::int64_t schedule_calls() {
  return obs::CounterRegistry::process().counter("sim.kernel_schedule.calls");
}

/// Schedule computations `fn` causes (tests run on threads with no
/// registry redirect, so every computation lands in the process registry).
std::int64_t calls_during(const std::function<void()>& fn) {
  const std::int64_t before = schedule_calls();
  fn();
  return schedule_calls() - before;
}

/// Field-by-field, bit-for-bit comparison of a cached cost with a fresh
/// computation; returns the first difference, or "".
std::string diff_cost(const KernelCost& got, const KernelDef& def,
                      const ScheduleOptions& opts) {
  const Schedule want = kernel::schedule_body(def, opts);
  const Schedule& s = got.body;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (s.ii != want.ii) return "ii";
  if (s.unroll != want.unroll) return "unroll";
  if (s.depth != want.depth) return "depth";
  if (s.fpu_slot_cycles != want.fpu_slot_cycles) return "fpu_slot_cycles";
  if (bits(s.fpu_occupancy) != bits(want.fpu_occupancy)) return "fpu_occupancy";
  if (bits(s.issue_rate) != bits(want.issue_rate)) return "issue_rate";
  if (s.pipelined != want.pipelined) return "pipelined";
  if (s.ops.size() != want.ops.size()) return "ops.size";
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    const kernel::ScheduledOp& a = s.ops[i];
    const kernel::ScheduledOp& b = want.ops[i];
    if (a.instr != b.instr || a.copy != b.copy || a.cycle != b.cycle ||
        a.fpu != b.fpu || a.op != b.op) {
      return "ops[" + std::to_string(i) + "]";
    }
  }
  if (got.prologue_cycles != kernel::straightline_cycles(def.prologue, opts)) {
    return "prologue_cycles";
  }
  if (got.outer_pre_cycles != kernel::straightline_cycles(def.outer_pre, opts)) {
    return "outer_pre_cycles";
  }
  if (got.outer_post_cycles !=
      kernel::straightline_cycles(def.outer_post, opts)) {
    return "outer_post_cycles";
  }
  if (got.block_len != def.block_len) return "block_len";
  if (got.has_outer != (!def.outer_pre.empty() || !def.outer_post.empty())) {
    return "has_outer";
  }
  return "";
}

/// A small blocked kernel touching every key field: a named stream pair,
/// block_len > 1, a constant in the prologue and all four sections.
KernelDef small_kernel(const std::string& name, double imm = 0.0) {
  kernel::KernelBuilder kb(name);
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1);
  kb.block_len(4);
  kb.section(kernel::Section::kPrologue);
  const auto zero = kb.constant(imm);
  kb.section(kernel::Section::kOuterPre);
  const auto acc = kb.mov(zero);
  kb.section(kernel::Section::kBody);
  const auto x = kb.read(in, 1);
  kb.madd_to(acc, x[0], x[0], acc);
  kb.section(kernel::Section::kOuterPost);
  kb.write(out, acc, 1);
  return kb.build();
}

/// A Table-3 kernel under a fresh name, so no earlier test has cached it.
/// Its schedule takes milliseconds, long enough for threads to overlap.
KernelDef slow_kernel(const std::string& name) {
  KernelDef def = core::build_water_kernel(core::Variant::kExpanded, md::spc());
  def.name = name;
  return def;
}

TEST(KernelCostCache, CachedCostsAreBitIdenticalToFreshSchedules) {
  struct Case {
    KernelDef def;
    ScheduleOptions opts;
    std::string diff;
  };
  std::vector<Case> cases;
  for (const KernelDef& def : core::builtin_kernels(8)) {
    for (int unroll = 1; unroll <= 4; ++unroll) {
      for (const bool swp : {false, true}) {
        ScheduleOptions opts;
        opts.unroll = unroll;
        opts.software_pipeline = swp;
        cases.push_back({def, opts, ""});
      }
    }
  }
  // Four threads share the cache while they work through the cases, so
  // under tsan this sweep also races distinct keys against each other.
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < cases.size();
         i = next.fetch_add(1)) {
      Case& c = cases[i];
      KernelCostCache costs(c.opts);
      const KernelCost& miss = costs.get(c.def);
      const KernelCost& hit = costs.get(c.def);
      c.diff = &miss == &hit ? diff_cost(hit, c.def, c.opts) : "not pinned";
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  for (const Case& c : cases) {
    EXPECT_EQ(c.diff, "") << c.def.name << " unroll=" << c.opts.unroll
                          << " swp=" << c.opts.software_pipeline;
  }
}

TEST(KernelCostCache, EqualContentAtAnotherAddressSchedulesOnce) {
  const KernelDef a = small_kernel("same_content");
  const KernelDef b = a;  // equal content, different object
  ASSERT_NE(&a, &b);
  const ScheduleOptions opts;
  std::shared_ptr<const KernelCost> ca, cb;
  EXPECT_EQ(calls_during([&] {
              ca = cached_kernel_cost(a, opts);
              cb = cached_kernel_cost(b, opts);
              KernelCostCache(opts).get(b);
            }),
            1);
  EXPECT_EQ(ca, cb);
}

TEST(KernelCostCache, AnySingleKeyFieldDifferenceMisses) {
  const KernelDef base = small_kernel("key_fields");
  const ScheduleOptions opts;
  ASSERT_EQ(calls_during([&] { cached_kernel_cost(base, opts); }), 1);
  ASSERT_EQ(calls_during([&] { cached_kernel_cost(base, opts); }), 0);

  std::vector<std::pair<std::string, KernelDef>> defs;
  defs.emplace_back("name", small_kernel("key_fields2"));
  defs.emplace_back("imm -0.0", small_kernel("key_fields", -0.0));
  KernelDef stream = base;
  stream.streams[0].name = "x2";
  defs.emplace_back("stream decl", stream);
  KernelDef block = base;
  block.block_len = 5;
  defs.emplace_back("block_len", block);
  for (const auto& [what, def] : defs) {
    EXPECT_EQ(calls_during([&] { cached_kernel_cost(def, opts); }), 1) << what;
  }

  std::vector<std::pair<std::string, ScheduleOptions>> variants;
  const auto vary = [&](const std::string& what,
                        const std::function<void(ScheduleOptions&)>& edit) {
    ScheduleOptions o = opts;
    edit(o);
    variants.emplace_back(what, o);
  };
  vary("n_fpus", [](ScheduleOptions& o) { o.n_fpus = 3; });
  vary("srf_words_per_cycle", [](ScheduleOptions& o) { o.srf_words_per_cycle = 2; });
  vary("cond_units", [](ScheduleOptions& o) { o.cond_units = 2; });
  vary("unroll", [](ScheduleOptions& o) { o.unroll = 3; });
  vary("software_pipeline", [](ScheduleOptions& o) { o.software_pipeline = false; });
  vary("max_ii", [](ScheduleOptions& o) { o.max_ii = 4095; });
  for (const auto& [what, o] : variants) {
    EXPECT_EQ(calls_during([&] { cached_kernel_cost(base, o); }), 1) << what;
    EXPECT_EQ(diff_cost(*cached_kernel_cost(base, o), base, o), "") << what;
  }
  // None of the misses displaced the base entry.
  EXPECT_EQ(calls_during([&] { cached_kernel_cost(base, opts); }), 0);
}

TEST(KernelCostCache, ScheduleErrorsAreRaisedIdenticallyAndNeverCached) {
  const KernelDef def = slow_kernel("error_kernel");
  // One II short of the schedule: the search tries every II from the
  // resource bound up before it fails, so concurrent callers overlap.
  ScheduleOptions tight;
  tight.max_ii = kernel::schedule_body(def, tight).ii - 1;
  const auto attempt = [&] {
    try {
      cached_kernel_cost(def, tight);
    } catch (const kernel::ScheduleError& e) {
      return std::string(e.what()) + "|" + e.kernel() + "|" +
             std::to_string(e.res_mii()) + "|" + std::to_string(e.max_ii()) +
             "|" + e.conflict();
    }
    return std::string("no error");
  };
  std::string first, second;
  EXPECT_EQ(calls_during([&] { first = attempt(); }), 1);
  EXPECT_EQ(calls_during([&] { second = attempt(); }), 1) << "error was cached";
  EXPECT_NE(first, "no error");
  EXPECT_EQ(first, second);

  // Every concurrent caller sees the error too, each its own copy.
  std::vector<std::string> seen(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] { seen[t] = attempt(); });
  }
  for (auto& t : threads) t.join();
  for (const std::string& s : seen) EXPECT_EQ(s, first);

  // The same content under schedulable options is unaffected.
  EXPECT_EQ(diff_cost(*cached_kernel_cost(def, ScheduleOptions{}), def, {}), "");
}

TEST(KernelCostCache, EvictionAtCapacityStaysCorrect) {
  const ScheduleOptions opts;
  const KernelDef first = small_kernel("evict_0");
  KernelCostCache pinning(opts);
  const KernelCost& pinned = pinning.get(first);

  std::vector<KernelDef> later;
  for (std::size_t i = 1; i <= kCostCacheCapacity; ++i) {
    later.push_back(small_kernel("evict_" + std::to_string(i)));
  }
  EXPECT_EQ(calls_during([&] {
              for (const KernelDef& def : later) cached_kernel_cost(def, opts);
            }),
            static_cast<std::int64_t>(kCostCacheCapacity));

  // The oldest entry is gone from the shared cache: a new request
  // reschedules it, to the same result.
  std::shared_ptr<const KernelCost> again;
  EXPECT_EQ(calls_during([&] { again = cached_kernel_cost(first, opts); }), 1);
  EXPECT_NE(again.get(), &pinned);
  EXPECT_EQ(diff_cost(*again, first, opts), "");
  // The instance still holds what it handed out before the eviction.
  EXPECT_EQ(diff_cost(pinned, first, opts), "");
  // The newest entries survived.
  EXPECT_EQ(calls_during([&] { cached_kernel_cost(later.back(), opts); }), 0);
}

TEST(KernelCostCache, ConcurrentMissesOnOneKeyScheduleOnce) {
  const KernelDef def = slow_kernel("single_flight");
  const ScheduleOptions opts;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const KernelCost>> got(kThreads);
  std::atomic<int> ready{0};
  const std::int64_t calls = calls_during([&] {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        got[static_cast<std::size_t>(t)] = cached_kernel_cost(def, opts);
      });
    }
    for (auto& t : threads) t.join();
  });
  EXPECT_EQ(calls, 1);
  for (const auto& c : got) EXPECT_EQ(c, got[0]);
  EXPECT_EQ(diff_cost(*got[0], def, opts), "");
}

}  // namespace
}  // namespace smd::sim
