#include "perfbench/trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <variant>

#include "src/analysis/check_stream.h"
#include "src/core/kernels.h"
#include "src/core/layouts.h"
#include "src/core/program.h"
#include "src/kernel/vm.h"
#include "src/md/force_ref.h"
#include "src/md/neighborlist.h"
#include "src/mem/memsys.h"
#include "src/obs/registry.h"
#include "src/sim/kernelexec.h"
#include "src/sim/machine.h"

namespace perfbench {
namespace {

/// Seconds since `t`, and restart `t` -- one child span ends, the next
/// begins.
double lap(Clock::time_point& t) {
  const auto now = Clock::now();
  const double s = std::chrono::duration<double>(now - t).count();
  t = now;
  return s;
}

std::string kernel_key(const kernel::KernelDef& def,
                       const kernel::ScheduleOptions& sched) {
  std::string key = def.name;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "|r%d b%d |s%d,%d,%d,%d,%d,%d", def.n_regs,
                def.block_len, sched.n_fpus, sched.srf_words_per_cycle,
                sched.cond_units, sched.unroll, sched.software_pipeline ? 1 : 0,
                sched.max_ii);
  key += buf;
  for (const auto& s : def.streams) {
    std::snprintf(buf, sizeof(buf), "|%s:%d:%d:%d", s.name.c_str(),
                  static_cast<int>(s.dir), s.record_words, s.conditional ? 1 : 0);
    key += buf;
  }
  for (const auto* section : {&def.prologue, &def.outer_pre, &def.body,
                              &def.outer_post}) {
    key += "|";
    for (const auto& in : *section) {
      std::snprintf(buf, sizeof(buf), "%d,%d,%d,%d,%d,%d,%d,%a;",
                    static_cast<int>(in.op), in.dst, in.a, in.b, in.c,
                    in.stream, in.count, in.imm);
      key += buf;
    }
  }
  return key;
}

/// Advance a standalone memory system until op `id` is done, the way the
/// event engine does: jump to the next event, or to the op's pipeline
/// drain once its last word retired. Returns the tick_until calls made.
std::int64_t advance_until_done(mem::MemSystem& ms, mem::MemSystem::OpId id) {
  std::int64_t calls = 0;
  while (!ms.op_done(id)) {
    std::uint64_t t = ms.next_event_time();
    if (ms.op_completed(id)) {
      t = std::min(t, std::max(ms.op_finish_time(id), ms.now() + 1));
    }
    if (t == mem::MemSystem::kNever) {
      throw std::runtime_error("memory replay: op pending with no event");
    }
    ms.tick_until(t);
    ++calls;
  }
  return calls;
}

bool same_bits(const std::vector<md::Vec3>& a, const std::vector<md::Vec3>& b) {
  if (a.size() != b.size()) return false;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits(a[i].x) != bits(b[i].x) || bits(a[i].y) != bits(b[i].y) ||
        bits(a[i].z) != bits(b[i].z)) {
      return false;
    }
  }
  return true;
}

}  // namespace

SetupLedger trace_setup(const core::ExperimentSetup& setup, int trials) {
  std::vector<double> box, list, ref;
  SetupLedger out;
  for (int t = 0; t < trials; ++t) {
    md::WaterBoxOptions opts;
    opts.n_molecules = setup.n_molecules;
    opts.seed = setup.seed;
    auto t0 = Clock::now();
    const md::WaterSystem sys = md::build_water_box(opts);
    box.push_back(lap(t0));
    const md::NeighborList half = md::build_neighbor_list(sys, setup.cutoff);
    list.push_back(lap(t0));
    const md::ForceEnergy forces = md::compute_forces_reference(sys, half);
    ref.push_back(lap(t0));
    out.pairs = half.n_pairs();
  }
  out.water_box_s = median(box);
  out.neighbor_list_s = median(list);
  out.reference_forces_s = median(ref);
  return out;
}

std::string kernel_key(core::Variant variant, const core::Problem& problem,
                       int fixed_list_length,
                       const kernel::ScheduleOptions& sched) {
  return kernel_key(core::build_water_kernel(variant, problem.system.model(),
                                             fixed_list_length),
                    sched);
}

TracedOp trace_op(const core::Problem& problem, core::Variant variant,
                  const sim::MachineConfig& cfg, int fixed_list_length,
                  std::int64_t strip_rounds, LayerLedger& led) {
  obs::CounterRegistry& reg = obs::CounterRegistry::process();
  const double controller0 = reg.gauge("sim.controller_run.seconds");
  const double schedule0 = reg.gauge("sim.kernel_schedule.seconds");
  const std::int64_t calls0 = reg.counter("sim.kernel_schedule.calls");

  // ---- The op: core::run_variant, one public call per child span. ----
  const auto op0 = Clock::now();
  auto t = op0;
  core::LayoutOptions lopts;
  lopts.n_clusters = cfg.n_clusters;
  lopts.fixed_list_length = fixed_list_length;
  lopts.strip_rounds = strip_rounds;
  lopts.srf_words = cfg.srf_words;
  const core::VariantLayout layout =
      core::build_layout(variant, problem.system, problem.half_list, lopts);
  led.layout_s += lap(t);

  const kernel::KernelDef kdef = core::build_water_kernel(
      variant, problem.system.model(), fixed_list_length);
  led.kernel_build_s += lap(t);

  sim::Machine machine(cfg);
  const core::ProblemImage image =
      core::upload_system(machine.memory(), problem.system);
  const sim::StreamProgram program =
      core::build_program(machine.memory(), image, layout, kdef);
  led.program_build_s += lap(t);

  const sim::RunStats run = machine.run(program);
  led.sim_run_s += lap(t);

  TracedOp out;
  const std::vector<md::Vec3> forces =
      core::read_forces(machine.memory(), image);
  out.max_force_rel_err =
      md::max_force_rel_err(problem.reference.force, forces);
  // run_variant's result assembly schedules the kernel once more for the
  // paper's cycles-per-iteration figure.
  sim::KernelCostCache(cfg.sched).get(kdef);
  led.validate_s += lap(t);
  led.op_s += seconds_since(op0);
  ++led.ops;

  led.controller_run_s += reg.gauge("sim.controller_run.seconds") - controller0;
  led.schedule_s += reg.gauge("sim.kernel_schedule.seconds") - schedule0;
  led.schedule_calls += reg.counter("sim.kernel_schedule.calls") - calls0;
  led.kernels.insert(kernel_key(kdef, cfg.sched));

  out.cycles = run.cycles;
  led.stream_instrs += static_cast<std::int64_t>(program.instrs.size());
  led.cycles += static_cast<std::int64_t>(run.cycles);
  led.body_iterations += run.interp.body_iterations;
  led.mem_words += run.mem_words;
  led.cache_hits += run.cache_stats.hits;
  led.cache_accesses += run.cache_stats.accesses;
  led.dram_row_misses += run.dram_stats.row_misses;

  // ---- Standalone layer calls on the op's own program. ----
  t = Clock::now();
  analysis::StreamCheckOptions check;
  check.n_clusters = cfg.n_clusters;
  check.srf_words = cfg.srf_words;
  check.memory_words = machine.memory().size();
  analysis::require_valid_stream_program(program, check);
  led.preflight_s += lap(t);

  kernel::CompiledKernel vm(kdef, cfg.n_clusters);
  led.vm_compile_s += lap(t);

  // Replay on a fresh image built by the same public calls, so the op's
  // own memory is compared, not reused.
  mem::GlobalMemory replay_mem;
  const core::ProblemImage replay_image =
      core::upload_system(replay_mem, problem.system);
  const sim::StreamProgram replay =
      core::build_program(replay_mem, replay_image, layout, kdef);
  mem::MemSystem ms(cfg.mem, &replay_mem);
  std::vector<std::vector<double>> streams(replay.stream_words.size());
  std::int64_t body_iterations = 0;
  for (const sim::StreamInstr& instr : replay.instrs) {
    t = Clock::now();
    if (const auto* load = std::get_if<sim::LoadOp>(&instr)) {
      const auto id = ms.issue(load->desc,
                               &streams[static_cast<std::size_t>(load->dst)],
                               nullptr);
      led.replay_advances += advance_until_done(ms, id);
      led.mem_replay_s += lap(t);
    } else if (const auto* store = std::get_if<sim::StoreOp>(&instr)) {
      const auto id = ms.issue(store->desc, nullptr,
                               &streams[static_cast<std::size_t>(store->src)]);
      led.replay_advances += advance_until_done(ms, id);
      led.mem_replay_s += lap(t);
    } else {
      const auto& k = std::get<sim::KernelOp>(instr);
      if (k.def != &kdef) {
        out.failure = "replay: program runs a kernel other than the op's";
        return out;
      }
      kernel::StreamBindings bindings;
      bindings.inputs.resize(kdef.streams.size());
      bindings.outputs.resize(kdef.streams.size());
      for (std::size_t s = 0; s < k.bindings.size(); ++s) {
        auto& buf = streams[static_cast<std::size_t>(k.bindings[s])];
        if (kdef.streams[s].dir == kernel::StreamDir::kIn) {
          bindings.inputs[s] = std::span<const double>(buf);
        } else {
          bindings.outputs[s] = &buf;
        }
      }
      body_iterations += vm.run(bindings, k.rounds).body_iterations;
      led.vm_exec_s += lap(t);
    }
  }
  led.replay_cycles += static_cast<std::int64_t>(ms.now());

  if (!same_bits(core::read_forces(replay_mem, replay_image), forces)) {
    out.failure = std::string("replay: ") + core::variant_name(variant) +
                  " forces differ from Machine::run's";
  } else if (body_iterations != run.interp.body_iterations) {
    out.failure = "replay: kernel body iterations differ from Machine::run's";
  } else if (ms.stats().words_loaded + ms.stats().words_stored !=
             run.mem_words) {
    out.failure = "replay: memory words differ from Machine::run's";
  }
  return out;
}

void emit_layers(Report& r, const SetupLedger& setup, const LayerLedger& l,
                 const ScheduleLedger& sched, const SvcLedger& svc,
                 double overhead_frac) {
  const double n = l.ops > 0 ? static_cast<double>(l.ops) : 1.0;
  const auto per_op = [n](double v) { return v / n; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  r.add("md.water_box_s", setup.water_box_s, "s");
  r.add("md.neighbor_list_s", setup.neighbor_list_s, "s");
  r.add("md.reference_forces_s", setup.reference_forces_s, "s");
  r.add("md.pairs", static_cast<double>(setup.pairs), "count");

  r.add("core.layout_s", per_op(l.layout_s), "s");
  r.add("core.kernel_build_s", per_op(l.kernel_build_s), "s");
  r.add("core.program_build_s", per_op(l.program_build_s), "s");
  r.add("core.validate_s", per_op(l.validate_s), "s");
  r.add("core.other_s",
        per_op(l.op_s - l.layout_s - l.kernel_build_s - l.program_build_s -
               l.sim_run_s - l.validate_s),
        "s");
  r.add("core.stream_instrs", per_op(static_cast<double>(l.stream_instrs)),
        "count");

  const double sched_ops = sched.ops > 0 ? static_cast<double>(sched.ops) : 1.0;
  r.add("kernel.schedule_s", sched.seconds / sched_ops, "s");
  r.add("kernel.schedule_calls", static_cast<double>(sched.calls) / sched_ops,
        "count");
  r.add("kernel.schedule_calls_per_kernel",
        ratio(static_cast<double>(sched.calls),
              static_cast<double>(sched.distinct_kernels)),
        "count");
  r.add("kernel.vm_compile_s", per_op(l.vm_compile_s), "s");
  r.add("kernel.vm_exec_s", per_op(l.vm_exec_s), "s");
  r.add("kernel.body_iterations",
        per_op(static_cast<double>(l.body_iterations)), "count");

  r.add("analysis.preflight_s", per_op(l.preflight_s), "s");

  r.add("sim.run_s", per_op(l.sim_run_s), "s");
  r.add("sim.controller_run_s", per_op(l.controller_run_s), "s");
  r.add("sim.cycles", per_op(static_cast<double>(l.cycles)), "count");
  r.add("sim.host_ns_per_cycle",
        ratio(l.sim_run_s * 1e9, static_cast<double>(l.cycles)), "ns");

  r.add("mem.replay_s", per_op(l.mem_replay_s), "s");
  r.add("mem.replay_advances_per_cycle",
        ratio(static_cast<double>(l.replay_advances),
              static_cast<double>(l.replay_cycles)),
        "1/cycle");
  r.add("mem.words", per_op(static_cast<double>(l.mem_words)), "count");
  r.add("mem.cache_hit_rate",
        ratio(static_cast<double>(l.cache_hits),
              static_cast<double>(l.cache_accesses)),
        "fraction");
  r.add("mem.dram_row_misses", per_op(static_cast<double>(l.dram_row_misses)),
        "count");

  const double served = static_cast<double>(svc.simulated + svc.deduped +
                                            svc.memo_hits);
  r.add("svc.queue_wait_ms_p50", svc.queue_wait_ms_p50, "ms");
  r.add("svc.execute_ms_p50", svc.execute_ms_p50, "ms");
  r.add("svc.serialize_ms_p50", svc.serialize_ms_p50, "ms");
  r.add("svc.simulated", static_cast<double>(svc.simulated), "count");
  r.add("svc.deduped", static_cast<double>(svc.deduped), "count");
  r.add("svc.memo_hits", static_cast<double>(svc.memo_hits), "count");
  r.add("svc.served_without_sim_frac",
        ratio(static_cast<double>(svc.deduped + svc.memo_hits), served),
        "fraction");
  r.add("svc.queue_peak_depth", static_cast<double>(svc.queue_peak_depth),
        "count");

  r.add("obs.trace_overhead_frac", overhead_frac, "fraction");
}

}  // namespace perfbench
