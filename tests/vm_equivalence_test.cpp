// Compiled-VM equivalence sweep: the hard gate behind kernel/vm.h.
//
// The VM backend is only allowed to exist because it is bit-identical to
// the reference interpreter in every observable way (DESIGN.md section
// 17, the same discipline section 10 applies to the simulation engines).
// This suite enforces that claim at three levels:
//
//   * functional -- every built-in kernel runs on randomized inputs under
//     both backends (kernel::diff_backends); every output word must match
//     by bit pattern and every InterpStats field must match exactly.
//   * full simulation -- every Table-3 variant runs a complete
//     strip-mined water-box time-step as an explicit interp-vs-vm pair
//     (tests/differential.h), under BOTH SDR policies; the paired runs
//     must agree on the entire RunStats field-by-field and on the final
//     memory image word-for-word.
//   * randomized programs -- 60 generated kernels exercising conditional
//     reads/writes, broadcast reads, multi-word records, all four
//     sections and the full arithmetic op mix, swept through the same
//     functional gate.
//
// A coverage check asserts that the built-in kernels and the generated
// programs together contain every kernel::Opcode, so no op body escapes
// the comparison.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/kernels.h"
#include "src/core/run.h"
#include "src/core/streammd.h"
#include "src/kernel/interp.h"
#include "src/kernel/vm.h"
#include "src/sim/config.h"
#include "src/util/rng.h"
#include "tests/differential.h"

namespace smd {
namespace {

constexpr int kClusters = 4;
constexpr std::int64_t kRounds = 3;

/// Run `def` on deterministic randomized inputs under the interpreter
/// and the VM; outputs must match by bit pattern, stats field-by-field.
void expect_vm_bit_identical(const kernel::KernelDef& def,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  // Generous sizing: every section of every cluster could take every
  // conditional access on every iteration.
  const std::int64_t accesses = kRounds * (def.block_len + 2) * kClusters;
  std::vector<std::vector<double>> store(def.streams.size());
  kernel::StreamBindings bindings;
  for (std::size_t s = 0; s < def.streams.size(); ++s) {
    if (def.streams[s].dir == kernel::StreamDir::kIn) {
      store[s].resize(
          static_cast<std::size_t>(accesses * def.streams[s].record_words));
      for (double& d : store[s]) d = rng.uniform(-2.0, 2.0);
      bindings.inputs.emplace_back(store[s]);
      bindings.outputs.push_back(nullptr);
    } else {
      // Marks an output slot; diff_backends gives each backend its own.
      bindings.inputs.emplace_back();
      bindings.outputs.push_back(&store[s]);
    }
  }
  EXPECT_EQ(kernel::diff_backends(def, kClusters, bindings, kRounds), "")
      << def.name;
}

TEST(VmEquivalence, BuiltinKernelsBitIdentical) {
  std::uint64_t seed = 0x50f7;
  for (const kernel::KernelDef& def : core::builtin_kernels(8)) {
    expect_vm_bit_identical(def, seed++);
  }
}

// The tentpole gate: Table-3 variants, both SDR policies, full simulation.
// The explicit interp-vs-vm pair must produce identical RunStats and
// memory images.
TEST(VmEquivalence, TableThreeVariantsBothPoliciesBitIdentical) {
  core::ExperimentSetup setup;
  setup.n_molecules = 48;
  const core::Problem problem = core::Problem::make(setup);

  for (const core::Variant v :
       {core::Variant::kExpanded, core::Variant::kFixed,
        core::Variant::kVariable, core::Variant::kDuplicated}) {
    for (const sim::SdrPolicy policy :
         {sim::SdrPolicy::kConservative, sim::SdrPolicy::kTransferScoped}) {
      sim::MachineConfig interp = sim::MachineConfig::merrimac();
      interp.sdr_policy = policy;
      interp.kernel_backend = kernel::KernelBackend::kInterp;
      sim::MachineConfig vm = interp;
      vm.kernel_backend = kernel::KernelBackend::kVm;
      EXPECT_EQ(differential::diff_variant(problem, v, interp, vm), "")
          << core::variant_name(v)
          << (policy == sim::SdrPolicy::kConservative ? " [conservative]"
                                                      : " [transfer-scoped]");
    }
  }
}

constexpr int kRandomPrograms = 60;

/// Generated kernel number `trial`, exercising every stream-transfer shape
/// -- unconditional and conditional reads/writes, broadcast reads,
/// multi-word records, all four sections -- and every arithmetic op.
kernel::KernelDef random_program(int trial) {
  util::Rng rng(0xc0157ULL + 977ULL * static_cast<std::uint64_t>(trial));
  kernel::KernelBuilder kb("vmrand_" + std::to_string(trial));
  using Reg = kernel::KernelBuilder::Reg;

  const int n_in = 1 + static_cast<int>(rng.uniform_u64(2));
  std::vector<int> ins;
  std::vector<int> in_words;
  for (int i = 0; i < n_in; ++i) {
    in_words.push_back(1 + static_cast<int>(rng.uniform_u64(2)));
    ins.push_back(kb.stream_in("in" + std::to_string(i), in_words.back()));
  }
  const int bcast_words = 1 + static_cast<int>(rng.uniform_u64(2));
  const int bc = kb.stream_in("bc", bcast_words);
  const int cin = kb.stream_in("ci", 1, /*conditional=*/true);
  const int out = kb.stream_out("out", 1);
  const int cout_s = kb.stream_out("co", 1, /*conditional=*/true);

  kb.section(kernel::Section::kPrologue);
  const Reg zero = kb.constant(0.0);
  std::vector<Reg> vals;
  vals.push_back(kb.constant(rng.uniform(0.5, 2.0)));

  kb.section(kernel::Section::kOuterPre);
  // Per-round state: a record read once per round, shared by the body.
  // (Reads must be record-sized -- IR006.)
  const auto round_v = kb.read(ins[0], in_words[0]);
  vals.push_back(round_v[0]);

  kb.section(kernel::Section::kBody);
  std::vector<Reg> raw;  // values straight off a stream: good predicates
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const auto r = kb.read(ins[i], in_words[i]);
    for (const Reg& x : r) {
      vals.push_back(x);
      raw.push_back(x);
    }
  }
  const std::vector<Reg> b_regs = kb.alloc_n(bcast_words);
  kb.read_bcast_to(bc, b_regs[0], bcast_words);
  for (const Reg& x : b_regs) vals.push_back(x);

  // Inputs are uniform(-2,2), so div/sqrt/rsqrt also see negative and
  // near-zero operands: NaN and infinity bit patterns must match too.
  const int n_ops = 4 + static_cast<int>(rng.uniform_u64(10));
  for (int i = 0; i < n_ops; ++i) {
    const Reg a = vals[rng.uniform_u64(vals.size())];
    const Reg b = vals[rng.uniform_u64(vals.size())];
    switch (rng.uniform_u64(11)) {
      case 0: vals.push_back(kb.add(a, b)); break;
      case 1: vals.push_back(kb.sub(a, b)); break;
      case 2: vals.push_back(kb.mul(a, b)); break;
      case 3:
        vals.push_back(kb.madd(a, b, vals[rng.uniform_u64(vals.size())]));
        break;
      case 4:
        vals.push_back(kb.msub(a, b, vals[rng.uniform_u64(vals.size())]));
        break;
      case 5: vals.push_back(kb.div(a, b)); break;
      case 6: vals.push_back(kb.sqrt(a)); break;
      case 7: vals.push_back(kb.rsqrt(a)); break;
      case 8: vals.push_back(kb.mov(a)); break;
      case 9: vals.push_back(kb.sel(kb.cmp_lt(a, b), a, b)); break;
      default: vals.push_back(kb.cmp_eq(a, b)); break;
    }
  }

  // Conditional read: predicate is data-dependent (~50% taken on
  // uniform(-2,2) inputs); the landing register feeds later values only
  // through a sel so untaken iterations stay deterministic.
  const Reg pred = kb.cmp_lt(raw[rng.uniform_u64(raw.size())], zero);
  const Reg cr = kb.alloc();
  kb.read_cond_to(cin, cr, 1, pred);
  vals.push_back(kb.sel(pred, cr, vals[0]));

  kb.write(out, vals.back(), 1);
  const Reg pred2 = kb.cmp_lt(zero, raw[rng.uniform_u64(raw.size())]);
  kb.write_cond(cout_s, vals[vals.size() - 2], 1, pred2);

  kb.section(kernel::Section::kOuterPost);
  kb.write(out, vals[1], 1);  // per-round value, once per round
  return kb.build();
}

// Randomized property: the generated kernels are bit-identical across
// backends.
TEST(VmEquivalence, RandomProgramsBitIdentical) {
  for (int trial = 0; trial < kRandomPrograms; ++trial) {
    expect_vm_bit_identical(random_program(trial), 0xfaceULL + 7ULL * trial);
  }
}

// Coverage: every opcode appears in some kernel the sweeps above compare,
// so every VM op body is checked against the interpreter.
TEST(VmEquivalence, SweepsCoverEveryOpcode) {
  std::vector<kernel::KernelDef> defs = core::builtin_kernels(8);
  for (int trial = 0; trial < kRandomPrograms; ++trial) {
    defs.push_back(random_program(trial));
  }
  std::set<kernel::Opcode> seen;
  for (const kernel::KernelDef& def : defs) {
    for (const auto* section :
         {&def.prologue, &def.outer_pre, &def.body, &def.outer_post}) {
      for (const kernel::Instr& in : *section) seen.insert(in.op);
    }
  }
  // opcode_name covers every enumerator (-Wswitch) and maps anything past
  // the last one to "?".
  for (auto op = static_cast<kernel::Opcode>(0);
       std::string_view(kernel::opcode_name(op)) != "?";
       op = static_cast<kernel::Opcode>(static_cast<int>(op) + 1)) {
    EXPECT_TRUE(seen.count(op) != 0) << kernel::opcode_name(op);
  }
}

}  // namespace
}  // namespace smd
