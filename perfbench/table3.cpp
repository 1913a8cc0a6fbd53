// table3-900: the paper's experiment (section 4.1) -- one force step of a
// 900-molecule water box, all four Table-3 variants, on one thread with
// the event engine and the VM kernel backend.
//
// An op is one variant run. Runs go in whole rounds of
// core::run_all_variants's loop (expanded, fixed, variable, duplicated),
// each variant run timed as its own op, so every run has the same mix.
#include <cstdio>
#include <map>
#include <stdexcept>

#include "perfbench/common.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/obs/json.h"

namespace perfbench {
namespace {

constexpr int kMolecules = 900;
constexpr int kSetupTrials = 11;
/// Traced runs do a fixed amount of work so their counts repeat exactly.
constexpr int kTracedRounds = 2;

core::ExperimentSetup experiment(const Options& opts) {
  core::ExperimentSetup setup;
  setup.n_molecules = kMolecules;
  setup.seed = opts.seed;
  return setup;
}

sim::MachineConfig machine() {
  sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  cfg.engine = sim::SimEngine::kEvent;
  cfg.kernel_backend = kernel::KernelBackend::kVm;
  return cfg;
}

/// Every op's forces must validate, and its simulated cycles must equal
/// the expected value: the regression baseline's where its setup matches
/// this run, else the first run of that variant in this process.
class CycleCheck {
 public:
  CycleCheck(const Options& opts, const core::ExperimentSetup& setup) {
    const obs::Json doc = obs::load_file(opts.baseline_path);
    const obs::Json& s = doc.at("setup");
    if (s.at("n_molecules").as_int() != setup.n_molecules ||
        s.at("seed").as_int() != static_cast<std::int64_t>(setup.seed) ||
        s.at("fixed_list_length").as_int() != setup.fixed_list_length) {
      return;
    }
    for (const obs::Json& v : doc.at("variants").elements()) {
      expected_[v.at("variant").as_string()] = static_cast<std::uint64_t>(
          v.at("metrics").at("cycles").as_int());
    }
    if (expected_.size() != 4) {
      throw std::runtime_error(opts.baseline_path + ": expected 4 variants");
    }
  }

  std::string check(core::Variant v, std::uint64_t cycles, double err) {
    const std::string name = core::variant_name(v);
    if (err >= kForceTolerance) {
      return name + ": forces off by " + std::to_string(err);
    }
    const auto [it, fresh] = expected_.emplace(name, cycles);
    if (!fresh && it->second != cycles) {
      return name + ": " + std::to_string(cycles) + " cycles, expected " +
             std::to_string(it->second);
    }
    return "";
  }

 private:
  std::map<std::string, std::uint64_t> expected_;
};

/// One variant run; returns its failure ("" = ok).
std::string run_op(const core::Problem& problem, core::Variant v,
                   CycleCheck& check) {
  try {
    const core::VariantResult res = core::run_variant(problem, v, machine());
    return check.check(v, res.run.cycles, res.max_force_rel_err);
  } catch (const std::exception& e) {
    return std::string(core::variant_name(v)) + ": " + e.what();
  }
}

}  // namespace

Report run_table3(const Options& opts) {
  const core::ExperimentSetup setup = experiment(opts);
  CycleCheck check(opts, setup);
  const Table3Setup s = setup_table3(setup, kSetupTrials);

  Report r;
  // One warm-up round: checked, not timed.
  for (core::Variant v : kVariants) r.op(run_op(s.problem, v, check));

  std::vector<double> latency_ms;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < opts.seconds) {
    for (core::Variant v : kVariants) {
      const auto a = Clock::now();
      const std::string failure = run_op(s.problem, v, check);
      latency_ms.push_back(seconds_since(a) * 1e3);
      r.op(failure);
    }
    elapsed = seconds_since(t0);
  }
  std::fprintf(stderr, "perfbench: %zu latency samples, %zu beyond p90\n",
               latency_ms.size(), latency_ms.size() / 10);
  r.add("setup_s", s.setup_s, "s");
  r.add("ops_per_s", static_cast<double>(latency_ms.size()) / elapsed, "1/s");
  r.add("latency_p50_ms", quantile(latency_ms, 0.5), "ms");
  r.add("latency_p90_ms", quantile(latency_ms, 0.9), "ms");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

Report trace_table3(const Options& opts) {
  const core::ExperimentSetup setup = experiment(opts);
  CycleCheck check(opts, setup);
  const SetupLedger md = trace_setup(setup, 3);
  const Table3Setup s = setup_table3(setup, 1);

  Report r;
  LayerLedger led;
  double untraced_s = 0.0;
  for (int round = 0; round < kTracedRounds; ++round) {
    for (core::Variant v : kVariants) {
      // Untraced beside traced, per variant, for the tracing overhead.
      const auto t0 = Clock::now();
      r.op(run_op(s.problem, v, check));
      untraced_s += seconds_since(t0);

      const TracedOp op = trace_op(s.problem, v, machine(),
                                   setup.fixed_list_length, setup.strip_rounds,
                                   led);
      r.op(op.failure.empty()
               ? check.check(v, op.cycles, op.max_force_rel_err)
               : op.failure);
    }
  }
  ScheduleLedger sched;
  sched.seconds = led.schedule_s;
  sched.calls = led.schedule_calls;
  sched.ops = led.ops;
  sched.distinct_kernels = led.kernels.size();
  emit_layers(r, md, led, sched, SvcLedger{},
              untraced_s > 0.0 ? led.op_s / untraced_s - 1.0 : 0.0);
  return r;
}

}  // namespace perfbench
