// Stream-controller scoreboard semantics: ordering (RAW/WAR/WAW through
// streams), stream lifetime/SRF accounting, multi-consumer streams, and
// failure modes, including kernels run on the kernel lane.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analysis/diag.h"
#include "src/kernel/ir.h"
#include "src/kernel/vm.h"
#include "src/obs/registry.h"
#include "src/sim/kernellane.h"
#include "src/sim/machine.h"

namespace smd::sim {
namespace {

using Reg = kernel::KernelBuilder::Reg;

MachineConfig fast_config() {
  MachineConfig cfg = MachineConfig::merrimac();
  cfg.kernel_startup_cycles = 5;
  cfg.mem.dram.access_latency = 10;
  return cfg;
}

kernel::KernelDef make_scale(double k, const char* name) {
  kernel::KernelBuilder kb(name);
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1);
  kb.section(kernel::Section::kPrologue);
  const Reg c = kb.constant(k);
  kb.section(kernel::Section::kBody);
  const auto x = kb.read(in, 1);
  kb.write(out, kb.mul(x[0], c), 1);
  return kb.build();
}

mem::MemOpDesc strided(std::uint64_t base, std::int64_t n) {
  mem::MemOpDesc d;
  d.kind = mem::MemOpKind::kLoadStrided;
  d.base = base;
  d.n_records = n;
  d.record_words = 1;
  return d;
}

mem::MemOpDesc strided_store(std::uint64_t base, std::int64_t n) {
  mem::MemOpDesc d = strided(base, n);
  d.kind = mem::MemOpKind::kStoreStrided;
  return d;
}

TEST(Controller, KernelChainPropagatesThroughSrf) {
  // load -> x2 -> x3 -> store: the intermediate stream never touches
  // memory, exactly the long-term producer-consumer locality the SRF is
  // for.
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 256;
  const auto in = mem.alloc(n), out = mem.alloc(n);
  for (int i = 0; i < n; ++i) mem.write(in + static_cast<std::uint64_t>(i), i);

  const auto k2 = make_scale(2.0, "x2");
  const auto k3 = make_scale(3.0, "x3");
  StreamProgram prog;
  const StreamId s0 = prog.new_stream(n);
  const StreamId s1 = prog.new_stream(n);
  const StreamId s2 = prog.new_stream(n);
  prog.load(strided(in, n), s0);
  prog.kernel(&k2, {s0, s1}, n / 16);
  prog.kernel(&k3, {s1, s2}, n / 16);
  prog.store(strided_store(out, n), s2);
  const RunStats stats = machine.run(prog);

  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(mem.read(out + static_cast<std::uint64_t>(i)), 6.0 * i);
  }
  // Only the endpoints moved through the memory system.
  EXPECT_EQ(stats.mem_words, 2 * n);
}

TEST(Controller, MultiConsumerStreamReadTwice) {
  // One loaded stream feeding two kernels: both must see the data, and
  // its SRF buffer must stay alive until the second consumer retires.
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 128;
  const auto in = mem.alloc(n), out_a = mem.alloc(n), out_b = mem.alloc(n);
  for (int i = 0; i < n; ++i) mem.write(in + static_cast<std::uint64_t>(i), i + 1);

  const auto k2 = make_scale(2.0, "x2");
  const auto k5 = make_scale(5.0, "x5");
  StreamProgram prog;
  const StreamId s_in = prog.new_stream(n);
  const StreamId s_a = prog.new_stream(n);
  const StreamId s_b = prog.new_stream(n);
  prog.load(strided(in, n), s_in);
  prog.kernel(&k2, {s_in, s_a}, n / 16);
  prog.kernel(&k5, {s_in, s_b}, n / 16);
  prog.store(strided_store(out_a, n), s_a);
  prog.store(strided_store(out_b, n), s_b);
  machine.run(prog);
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(mem.read(out_a + static_cast<std::uint64_t>(i)), 2.0 * (i + 1));
    EXPECT_DOUBLE_EQ(mem.read(out_b + static_cast<std::uint64_t>(i)), 5.0 * (i + 1));
  }
}

TEST(Controller, WawOnReusedStreamRespectsProgramOrder) {
  // The same StreamId written by two loads with an intervening consumer:
  // the second load must wait for the first reader (WAR) and the final
  // store must see the second load's data (WAW ordering).
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 64;
  const auto in1 = mem.alloc(n), in2 = mem.alloc(n);
  const auto out1 = mem.alloc(n), out2 = mem.alloc(n);
  for (int i = 0; i < n; ++i) {
    mem.write(in1 + static_cast<std::uint64_t>(i), 10.0 + i);
    mem.write(in2 + static_cast<std::uint64_t>(i), 90.0 + i);
  }
  StreamProgram prog;
  const StreamId s = prog.new_stream(n);
  prog.load(strided(in1, n), s);
  prog.store(strided_store(out1, n), s);
  prog.load(strided(in2, n), s);  // WAR with the store, WAW with load 1
  prog.store(strided_store(out2, n), s);
  machine.run(prog);
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(mem.read(out1 + static_cast<std::uint64_t>(i)), 10.0 + i);
    EXPECT_DOUBLE_EQ(mem.read(out2 + static_cast<std::uint64_t>(i)), 90.0 + i);
  }
}

TEST(Controller, ScatterAddStoreAccumulatesAcrossStrips) {
  // Two strips scatter-adding into the same rows: the reduction across
  // kernel invocations is exactly how StreamMD combines partial forces.
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 64;
  const auto in = mem.alloc(2 * n);
  const auto out = mem.alloc(n);
  for (int i = 0; i < 2 * n; ++i) mem.write(in + static_cast<std::uint64_t>(i), 1.0);

  const auto k2 = make_scale(2.0, "x2");
  StreamProgram prog;
  for (int strip = 0; strip < 2; ++strip) {
    const StreamId s_in = prog.new_stream(n);
    const StreamId s_out = prog.new_stream(n);
    prog.load(strided(in + static_cast<std::uint64_t>(strip * n), n), s_in);
    prog.kernel(&k2, {s_in, s_out}, n / 16);
    mem::MemOpDesc d;
    d.kind = mem::MemOpKind::kScatterAdd;
    d.base = out;
    d.n_records = n;
    d.record_words = 1;
    for (int i = 0; i < n; ++i) d.indices.push_back(static_cast<std::uint64_t>(i));
    prog.store(d, s_out);
  }
  machine.run(prog);
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(mem.read(out + static_cast<std::uint64_t>(i)), 4.0);
  }
}

TEST(Controller, EmptyProgramCompletesImmediately) {
  Machine machine(fast_config());
  StreamProgram prog;
  const RunStats stats = machine.run(prog);
  EXPECT_EQ(stats.n_kernel_launches, 0);
  EXPECT_EQ(stats.n_memory_ops, 0);
}

TEST(Controller, ZeroRoundKernelRetires) {
  Machine machine(fast_config());
  const auto k2 = make_scale(2.0, "x2");
  StreamProgram prog;
  const StreamId s_in = prog.new_stream(0);
  const StreamId s_out = prog.new_stream(0);
  prog.kernel(&k2, {s_in, s_out}, 0);
  const RunStats stats = machine.run(prog);
  EXPECT_EQ(stats.n_kernel_launches, 1);
}

TEST(Controller, ThroughputScalesWithStripCount) {
  // Doubling the strips of identical work should roughly double the run
  // (sub-linear thanks to overlap, never super-linear).
  auto run_strips = [&](int strips) {
    Machine machine(fast_config());
    auto& mem = machine.memory();
    const int n = 2048;
    const auto in = mem.alloc(static_cast<std::int64_t>(strips) * n);
    const auto out = mem.alloc(static_cast<std::int64_t>(strips) * n);
    static const auto k2 = make_scale(2.0, "x2");
    StreamProgram prog;
    for (int s = 0; s < strips; ++s) {
      const StreamId a = prog.new_stream(n);
      const StreamId b = prog.new_stream(n);
      prog.load(strided(in + static_cast<std::uint64_t>(s * n), n), a);
      prog.kernel(&k2, {a, b}, n / 16);
      prog.store(strided_store(out + static_cast<std::uint64_t>(s * n), n), b);
    }
    return machine.run(prog).cycles;
  };
  const auto c2 = run_strips(2);
  const auto c4 = run_strips(4);
  EXPECT_GT(c4, c2);
  EXPECT_LT(static_cast<double>(c4), 2.2 * static_cast<double>(c2));
  EXPECT_GT(static_cast<double>(c4), 1.5 * static_cast<double>(c2));
}

TEST(Controller, TimelineRecordsEveryStreamOpWithLabels) {
  // The scoreboard's tracing hooks must emit one interval per stream op:
  // each kernel launch on the kernel lane, each memory op on the memory
  // lane, with human-readable labels naming the kernel / op kind.
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 512;
  const auto in = mem.alloc(n), out = mem.alloc(n);
  static const auto k2 = make_scale(2.0, "x2");
  StreamProgram prog;
  const StreamId a = prog.new_stream(n);
  const StreamId b = prog.new_stream(n);
  prog.load(strided(in, n), a);
  prog.kernel(&k2, {a, b}, n / 16);
  prog.store(strided_store(out, n), b);
  const RunStats stats = machine.run(prog);

  int kernel_ivs = 0, memory_ivs = 0;
  bool saw_kernel_label = false, saw_load = false, saw_store = false;
  for (const auto& iv : stats.timeline.intervals()) {
    EXPECT_LT(iv.start, iv.end);
    EXPECT_LE(iv.end, stats.cycles);
    if (iv.lane == Lane::kKernel) {
      ++kernel_ivs;
      if (iv.label.find("x2") != std::string::npos) saw_kernel_label = true;
    } else {
      ++memory_ivs;
      EXPECT_GE(iv.track, 0);
      if (iv.label.find("load") != std::string::npos) saw_load = true;
      if (iv.label.find("store") != std::string::npos) saw_store = true;
    }
  }
  EXPECT_EQ(kernel_ivs, stats.n_kernel_launches);
  EXPECT_EQ(memory_ivs, stats.n_memory_ops);
  EXPECT_TRUE(saw_kernel_label);
  EXPECT_TRUE(saw_load);
  EXPECT_TRUE(saw_store);
}

TEST(Controller, TimelineOccupancyConsistentWithRunStats) {
  // The same consistency contract bench_fig7_overlap enforces: kernel
  // intervals are disjoint (one kernel at a time) so their union equals
  // the kernel busy-cycle counter exactly; the memory-lane union covers at
  // least the memory system's busy cycles; overlap matches the counter.
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 4096;
  const auto in = mem.alloc(4 * n), out = mem.alloc(4 * n);
  static const auto k2 = make_scale(2.0, "x2");
  StreamProgram prog;
  for (int s = 0; s < 4; ++s) {
    const StreamId a = prog.new_stream(n);
    const StreamId b = prog.new_stream(n);
    prog.load(strided(in + static_cast<std::uint64_t>(s * n), n), a);
    prog.kernel(&k2, {a, b}, n / 16);
    prog.store(strided_store(out + static_cast<std::uint64_t>(s * n), n), b);
  }
  const RunStats stats = machine.run(prog);

  EXPECT_EQ(stats.timeline.busy_cycles(Lane::kKernel, stats.cycles),
            stats.kernel_busy_cycles);
  EXPECT_GE(stats.timeline.busy_cycles(Lane::kMemory, stats.cycles),
            stats.mem_busy_cycles);
  EXPECT_LE(stats.timeline.busy_cycles(Lane::kMemory, stats.cycles),
            stats.cycles);
  EXPECT_EQ(stats.timeline.overlap_cycles(stats.cycles),
            stats.overlap_cycles);
}

// ---------------------------------------------------------------------------
// Kernel lane: a kernel launched while memory traffic is in flight runs on
// the lane thread and is joined at its retirement.
// ---------------------------------------------------------------------------

/// Threads in this process (Linux), or -1 where /proc is not available.
int thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int n = 0;
  for (; it != std::filesystem::directory_iterator(); ++it) ++n;
  return n;
}

/// load `n` words into s0 (declared `declared` words) and, beside it, a
/// long load into another stream; then x2 over `declared` words of s0.
/// The kernel launches when the short load retires, while the long one is
/// still in flight.
struct OverlapProgram {
  kernel::KernelDef k2 = make_scale(2.0, "x2");
  StreamProgram prog;
  std::uint64_t out = 0;

  OverlapProgram(Machine& machine, int n, int declared) {
    auto& mem = machine.memory();
    const int far_words = 8192;
    const auto in = mem.alloc(declared);
    const auto far = mem.alloc(far_words);
    out = mem.alloc(declared);
    for (int i = 0; i < declared; ++i) {
      mem.write(in + static_cast<std::uint64_t>(i), i);
    }
    const StreamId s0 = prog.new_stream(declared);
    const StreamId s1 = prog.new_stream(declared);
    const StreamId s2 = prog.new_stream(far_words);
    prog.load(strided(in, n), s0);
    prog.load(strided(far, far_words), s2);
    prog.kernel(&k2, {s0, s1}, declared / 16);
    prog.store(strided_store(out, declared), s1);
    prog.store(strided_store(far, far_words), s2);
  }
};

std::vector<MachineConfig> engine_backend_configs() {
  std::vector<MachineConfig> cfgs;
  for (SimEngine engine : {SimEngine::kStepped, SimEngine::kEvent}) {
    for (kernel::KernelBackend backend :
         {kernel::KernelBackend::kInterp, kernel::KernelBackend::kVm}) {
      MachineConfig cfg = fast_config();
      cfg.engine = engine;
      cfg.kernel_backend = backend;
      cfgs.push_back(cfg);
    }
  }
  return cfgs;
}

TEST(KernelLane, KernelOverlapsInFlightMemoryAndComputesExactly) {
  for (const MachineConfig& cfg : engine_backend_configs()) {
    Machine machine(cfg);
    OverlapProgram p(machine, 256, 256);
    const RunStats stats = machine.run(p.prog);
    // The premise of the failure test below: memory is busy at launch.
    EXPECT_GT(stats.overlap_cycles, 0u);
    for (int i = 0; i < 256; ++i) {
      EXPECT_DOUBLE_EQ(
          machine.memory().read(p.out + static_cast<std::uint64_t>(i)),
          2.0 * i);
    }
  }
}

TEST(KernelLane, InputExhaustedWhileMemoryInFlightKeepsItsError) {
  // The kernel reads 256 words of a stream the load filled with 128, so
  // it fails on the lane mid-run. The run must fail with the message the
  // kernel raises when it runs inline, and leave no thread behind.
  const int threads_before = thread_count();
  for (const MachineConfig& cfg : engine_backend_configs()) {
    Machine machine(cfg);
    OverlapProgram p(machine, 128, 256);
    try {
      machine.run(p.prog);
      FAIL() << "expected the kernel to run out of input";
    } catch (const analysis::CheckFailure& e) {
      FAIL() << "unexpected CheckFailure: " << e.what();
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "x2: input stream 'x' exhausted");
    }
    EXPECT_EQ(thread_count(), threads_before);
  }
}

TEST(KernelLane, RuntimeCountersLandInThePostersRegistry) {
  // A kernel corrupted after verification trips the interpreter's runtime
  // backstop (IR002) on the lane thread; its analysis.runtime counters
  // must reach the registry the poster had redirected to.
  kernel::KernelDef def = make_scale(2.0, "x2");
  kernel::KernelExec exec(def, 4, kernel::KernelBackend::kInterp);
  for (auto& in : def.body) {
    if (in.op == kernel::Opcode::kWrite) in.stream = 7;
  }
  const std::vector<double> x(64, 1.0);
  std::vector<double> y;
  kernel::StreamBindings b;
  b.inputs = {std::span<const double>(x), {}};
  b.outputs = {nullptr, &y};

  auto& process = obs::CounterRegistry::process();
  const std::int64_t process_before =
      process.counter("analysis.runtime.IR002");
  obs::CounterRegistry shard;
  KernelLane lane;
  {
    obs::ScopedRegistryRedirect redirect(shard);
    lane.post(exec, b, 1);
  }
  EXPECT_TRUE(lane.busy());
  EXPECT_THROW(lane.collect(), analysis::CheckFailure);
  EXPECT_FALSE(lane.busy());
  EXPECT_EQ(shard.counter("analysis.runtime.IR002"), 1);
  EXPECT_EQ(shard.counter("analysis.runtime.errors"), 1);
  EXPECT_EQ(process.counter("analysis.runtime.IR002"), process_before);
}

TEST(KernelLane, ReusedAcrossJobsAndJoinsAnUncollectedJob) {
  const kernel::KernelDef def = make_scale(3.0, "x3");
  kernel::KernelExec exec(def, 4, kernel::KernelBackend::kVm);
  const std::vector<double> x(64, 2.0);
  std::vector<double> y;
  kernel::StreamBindings b;
  b.inputs = {std::span<const double>(x), {}};
  b.outputs = {nullptr, &y};
  {
    KernelLane lane;
    for (int job = 0; job < 3; ++job) {
      y.clear();
      lane.post(exec, b, 16);
      const kernel::InterpStats stats = lane.collect();
      EXPECT_EQ(stats.body_iterations, 64);
      ASSERT_EQ(y.size(), 64u);
      EXPECT_DOUBLE_EQ(y[63], 6.0);
    }
    y.clear();
    lane.post(exec, b, 16);  // never collected: the destructor waits
  }
  EXPECT_EQ(y.size(), 64u);
}

}  // namespace
}  // namespace smd::sim
