// Kernel cost model: turns a scheduled kernel into cycle counts.
//
// A kernel invocation costs:
//   startup (microcode load, scalar issue, pipeline priming)
// + per round: outer_pre + software-pipelined body (block_len iterations at
//   II/unroll steady-state cycles, plus fill/drain when the pipeline
//   restarts around outer sections) + outer_post.
//
// All clusters run in SIMD, so chip-level time equals cluster-level time;
// throughput scales with the 16 clusters because each round processes one
// element (or block) per cluster.
//
// Scheduling is the expensive part (milliseconds per kernel), and a cost
// depends only on the kernel's content and the ScheduleOptions. So every
// cost comes from one process-wide cache keyed on exactly that (DESIGN.md
// section 17): a kernel is scheduled once per process, however many runs,
// tuner workers or svc jobs ask for it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/kernel/ir.h"
#include "src/kernel/schedule.h"

namespace smd::sim {

struct KernelCost {
  kernel::Schedule body;
  int prologue_cycles = 0;
  int outer_pre_cycles = 0;
  int outer_post_cycles = 0;
  int block_len = 1;
  bool has_outer = false;

  /// Total execution cycles for `rounds` outer rounds (excluding the
  /// machine-level kernel startup overhead).
  std::uint64_t cycles_for(std::int64_t rounds) const;
};

/// Entries the process-wide cost cache holds; beyond it the oldest entry
/// is evicted. The largest measured working set is the 960-config
/// perfbench design sweep at 176 distinct keys (about 2.5 MB).
inline constexpr std::size_t kCostCacheCapacity = 512;

/// Cost of `def` under `opts` from the process-wide cache. The key is the
/// kernel's full content (name, registers, block length, stream
/// declarations, all four sections, immediates by bit pattern) plus every
/// ScheduleOptions field, compared for exact equality. Thread-safe and
/// single-flight: concurrent misses on one key run one schedule, and its
/// error (ScheduleError, analysis::CheckFailure) reaches every waiter
/// without being cached. Only real schedule computations feed the
/// sim.kernel_schedule timer.
std::shared_ptr<const KernelCost> cached_kernel_cost(
    const kernel::KernelDef& def, const kernel::ScheduleOptions& opts);

/// Per-user front end to cached_kernel_cost with fixed options. It pins
/// every cost it hands out, so the returned references stay valid for the
/// instance's lifetime even if the shared cache evicts the entry.
class KernelCostCache {
 public:
  explicit KernelCostCache(kernel::ScheduleOptions opts) : opts_(opts) {}

  const KernelCost& get(const kernel::KernelDef& def);
  const kernel::ScheduleOptions& options() const { return opts_; }

 private:
  kernel::ScheduleOptions opts_;
  std::vector<std::shared_ptr<const KernelCost>> pinned_;
};

}  // namespace smd::sim
