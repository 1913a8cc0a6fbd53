// Traced runs: per-layer host time, measured by the benchmark's own spans
// around calls into each layer's public functions, plus the counters and
// timers the program already keeps in obs::CounterRegistry. Nothing inside
// the program is instrumented for this; a later change that adds spans
// inside the program should report the same layers.
//
// Per-op figures are means over the traced ops of a run ("s" = seconds per
// op, "count" = per op) unless the metric name says otherwise.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "perfbench/common.h"
#include "src/sim/config.h"

namespace perfbench {

/// md layer: core::Problem::make replayed through md's public calls.
struct SetupLedger {
  double water_box_s = 0.0;         ///< median over trials
  double neighbor_list_s = 0.0;
  double reference_forces_s = 0.0;
  std::int64_t pairs = 0;           ///< half-list molecule pairs
};
SetupLedger trace_setup(const core::ExperimentSetup& setup, int trials);

/// Accumulated over traced ops.
struct LayerLedger {
  int ops = 0;
  // The op span and its children, which partition it (other = the rest).
  double op_s = 0.0;
  double layout_s = 0.0;
  double kernel_build_s = 0.0;
  double program_build_s = 0.0;
  double sim_run_s = 0.0;
  double validate_s = 0.0;
  // Registry timers inside the op (sim.controller_run, sim.kernel_schedule).
  double controller_run_s = 0.0;
  double schedule_s = 0.0;
  std::int64_t schedule_calls = 0;
  /// Distinct kernel contents + schedule options the ops scheduled.
  std::set<std::string> kernels;
  // Standalone layer calls after the op, on the op's own program.
  double preflight_s = 0.0;
  double vm_compile_s = 0.0;
  double vm_exec_s = 0.0;
  double mem_replay_s = 0.0;
  std::int64_t replay_advances = 0;  ///< MemSystem::tick_until calls
  std::int64_t replay_cycles = 0;    ///< memory cycles the replay covered
  // Simulated counts from Machine::run (identical run to run).
  std::int64_t stream_instrs = 0;
  std::int64_t cycles = 0;
  std::int64_t body_iterations = 0;
  std::int64_t mem_words = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_accesses = 0;
  std::int64_t dram_row_misses = 0;
};

struct TracedOp {
  std::uint64_t cycles = 0;
  double max_force_rel_err = 0.0;
  /// Non-empty when the layer replay did not reproduce Machine::run.
  std::string failure;
};

/// One core::run_variant, replayed through core's public calls with a span
/// around each, then its stream program replayed outside the op's span:
/// the static pre-flight alone, the kernel's VM lowering alone, and the
/// loads/stores on a standalone mem::MemSystem with the kernels on a
/// kernel::CompiledKernel. The replayed force image must equal
/// Machine::run's bit for bit, so the replay measures the same work.
TracedOp trace_op(const core::Problem& problem, core::Variant variant,
                  const sim::MachineConfig& cfg, int fixed_list_length,
                  std::int64_t strip_rounds, LayerLedger& ledger);

/// Key of one kernel's schedule: its full content plus the options.
std::string kernel_key(core::Variant variant, const core::Problem& problem,
                       int fixed_list_length,
                       const kernel::ScheduleOptions& sched);

/// Kernel scheduling as the registry's sim.kernel_schedule timer saw it.
struct ScheduleLedger {
  double seconds = 0.0;
  std::int64_t calls = 0;
  std::int64_t ops = 0;
  std::size_t distinct_kernels = 0;
};

/// The svc layer as the server reports it; all zero where no server runs.
struct SvcLedger {
  double queue_wait_ms_p50 = 0.0;
  double execute_ms_p50 = 0.0;
  double serialize_ms_p50 = 0.0;
  std::int64_t simulated = 0;
  std::int64_t deduped = 0;
  std::int64_t memo_hits = 0;
  std::int64_t queue_peak_depth = 0;
};

/// Add every per-layer metric to the report. `overhead_frac` is traced op
/// wall-clock against untraced op wall-clock, minus one.
void emit_layers(Report& report, const SetupLedger& setup,
                 const LayerLedger& layers, const ScheduleLedger& schedule,
                 const SvcLedger& svc, double overhead_frac);

}  // namespace perfbench
