// Differential runs: the simulation-level harness behind the bit-identity
// gates (DESIGN.md sections 10 and 17).
//
// A fast path -- the event engine, the compiled kernel VM -- exists only
// while it matches its reference (the cycle-stepped engine, the IR
// interpreter) exactly. sim::MachineConfig::engine and ::kernel_backend
// select the pair; these helpers run the same program on two
// configurations, each on a fresh machine, and report the first
// difference in RunStats (sim::diff_run_stats) or in the final memory
// image, compared word by word on bit patterns. lockstep_test and
// vm_equivalence_test share them; the kernel-level counterpart is
// kernel::diff_backends.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/kernels.h"
#include "src/core/layouts.h"
#include "src/core/program.h"
#include "src/core/run.h"
#include "src/sim/config.h"
#include "src/sim/machine.h"

namespace smd::differential {

/// Everything a run leaves behind that two engines or backends must
/// agree on.
struct RunImage {
  sim::RunStats stats;
  std::vector<double> memory;  ///< final memory image, word by word
};

/// Runs the program `build(machine)` returns -- after it has allocated
/// and filled the machine's memory -- on a fresh machine configured by
/// `cfg`, and snapshots the result.
template <typename Build>
RunImage run_image(const sim::MachineConfig& cfg, Build&& build) {
  sim::Machine machine(cfg);
  const sim::StreamProgram program = build(machine);
  RunImage out;
  out.stats = machine.run(program);
  const mem::GlobalMemory& mem = machine.memory();
  out.memory.resize(static_cast<std::size_t>(mem.size()));
  for (std::int64_t w = 0; w < mem.size(); ++w) {
    out.memory[static_cast<std::size_t>(w)] =
        mem.read(static_cast<std::uint64_t>(w));
  }
  return out;
}

/// "" when `a` and `b` agree on every RunStats field and every memory
/// word's bit pattern, else a description of the first difference.
inline std::string diff_images(const RunImage& a, const RunImage& b) {
  std::string diff = sim::diff_run_stats(a.stats, b.stats);
  if (!diff.empty()) return diff;
  if (a.memory.size() != b.memory.size()) {
    return "memory size " + std::to_string(a.memory.size()) + " vs " +
           std::to_string(b.memory.size());
  }
  for (std::size_t w = 0; w < a.memory.size(); ++w) {
    if (std::bit_cast<std::uint64_t>(a.memory[w]) !=
        std::bit_cast<std::uint64_t>(b.memory[w])) {
      return "memory word " + std::to_string(w) + ": " +
             std::to_string(a.memory[w]) + " vs " +
             std::to_string(b.memory[w]);
    }
  }
  return "";
}

/// Runs `build`'s program under configuration `a` and under `b` and
/// diffs the results. `build` must construct the same program and memory
/// image every time it is called.
template <typename Build>
std::string diff_runs(const sim::MachineConfig& a,
                      const sim::MachineConfig& b, Build&& build) {
  return diff_images(run_image(a, build), run_image(b, build));
}

/// diff_runs over one strip-mined water-box time step of Table-3
/// variant `v` (the program core::run_variant simulates).
inline std::string diff_variant(const core::Problem& problem, core::Variant v,
                                const sim::MachineConfig& a,
                                const sim::MachineConfig& b) {
  const kernel::KernelDef kdef = core::build_water_kernel(
      v, problem.system.model(), problem.setup.fixed_list_length);
  return diff_runs(a, b, [&](sim::Machine& machine) {
    core::LayoutOptions lopts;
    lopts.n_clusters = machine.config().n_clusters;
    lopts.fixed_list_length = problem.setup.fixed_list_length;
    lopts.strip_rounds = problem.setup.strip_rounds;
    lopts.srf_words = machine.config().srf_words;
    const core::VariantLayout layout =
        core::build_layout(v, problem.system, problem.half_list, lopts);
    const core::ProblemImage image =
        core::upload_system(machine.memory(), problem.system);
    return core::build_program(machine.memory(), image, layout, kdef);
  });
}

}  // namespace smd::differential
