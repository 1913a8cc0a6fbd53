// streammd_cli: command-line driver for one-off experiments.
//
//   streammd_cli [options]
//     --variant NAME     expanded | fixed | variable | duplicated | all
//     --molecules N      water molecules              (default 900)
//     --cutoff RC        cutoff radius in nm          (default 1.0)
//     --seed S           dataset seed                 (default 42)
//     --list-length L    fixed-list length            (default 8)
//     --clusters C       arithmetic clusters          (default 16)
//     --sdr-conservative use the flawed (Figure 7a) SDR allocation
//     --unroll U         kernel unroll factor         (default 2)
//     --timeline         print the execution timeline snippet
//     --json PATH        write a machine-readable run record (config,
//                        counters, GFLOPS, overlap/locality fractions)
//     --trace PATH       write a Chrome trace-event file of the stream
//                        ops (open in chrome://tracing or Perfetto)
//     --help, -h         print the usage line and exit
//
// Prints how each variant shapes the work (the Section 3 trade-off) and
// the Figure 8/9 and Table 4 metrics for the requested run(s). Exits 1 if
// any variant fails force validation or an output file cannot be
// written; malformed flags, values and machine configurations exit 2
// with a one-line message.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/core/report.h"
#include "src/core/run.h"
#include "src/obs/trace_event.h"

using namespace smd;

namespace {

constexpr const char* kTool = "streammd_cli";
constexpr const char* kUsage =
    "streammd_cli [--variant NAME] [--molecules N] [--cutoff RC] [--seed S] "
    "[--list-length L] [--clusters C] [--sdr-conservative] [--unroll U] "
    "[--timeline] [--json PATH] [--trace PATH]";

}  // namespace

int main(int argc, char** argv) {
  if (benchio::has_flag(argc, argv, "--help") ||
      benchio::has_flag(argc, argv, "-h")) {
    std::printf("usage: %s\n", kUsage);
    return 0;
  }
  const std::vector<std::string> positionals = benchio::check_flags(
      argc, argv, kTool, kUsage,
      {"--variant", "--molecules", "--cutoff", "--seed", "--list-length",
       "--clusters", "--unroll", "--json", "--trace"},
      {"--sdr-conservative", "--timeline"});
  if (!positionals.empty()) {
    benchio::usage_error(kTool, "unexpected argument '" + positionals[0] + "'",
                         kUsage);
  }

  std::vector<core::Variant> variants(core::kAllVariants.begin(),
                                      core::kAllVariants.end());
  const std::string variant = benchio::flag_value(argc, argv, "variant");
  if (!variant.empty() && variant != "all") {
    try {
      variants = {core::parse_variant(variant)};
    } catch (const std::invalid_argument& e) {
      benchio::usage_error(kTool, e.what(), kUsage);
    }
  }

  core::ExperimentSetup setup;
  setup.n_molecules = benchio::int_flag_or_exit(argc, argv, kTool, "molecules",
                                                setup.n_molecules, kUsage);
  setup.cutoff = benchio::double_flag_or_exit(argc, argv, kTool, "cutoff",
                                              setup.cutoff, kUsage);
  setup.seed =
      benchio::u64_flag_or_exit(argc, argv, kTool, "seed", setup.seed, kUsage);
  setup.fixed_list_length = benchio::int_flag_or_exit(
      argc, argv, kTool, "list-length", setup.fixed_list_length, kUsage);
  sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  cfg.n_clusters = benchio::int_flag_or_exit(argc, argv, kTool, "clusters",
                                             cfg.n_clusters, kUsage);
  if (benchio::has_flag(argc, argv, "--sdr-conservative")) {
    cfg.sdr_policy = sim::SdrPolicy::kConservative;
  }
  cfg.sched.unroll = benchio::int_flag_or_exit(argc, argv, kTool, "unroll",
                                               cfg.sched.unroll, kUsage);
  const bool timeline = benchio::has_flag(argc, argv, "--timeline");
  const std::string json_path = benchio::flag_value(argc, argv, "json");
  const std::string trace_path = benchio::flag_value(argc, argv, "trace");

  if (setup.n_molecules < 2) {
    benchio::usage_error(kTool, "--molecules must be at least 2", kUsage);
  }
  if (setup.fixed_list_length < 1) {
    benchio::usage_error(kTool, "--list-length must be at least 1", kUsage);
  }
  if (const analysis::Diagnostics diags = cfg.validate(); diags.errors() > 0) {
    std::fprintf(stderr, "%s: %s", kTool, diags.format().c_str());
    return 2;
  }

  try {
    const core::Problem problem = core::Problem::make(setup);
    if (problem.half_list.n_pairs() == 0) {
      std::fprintf(stderr, "%s: no molecule pairs within the %g nm cutoff\n",
                   kTool, setup.cutoff);
      return 2;
    }
    std::printf(
        "dataset: %d molecules, r_c %.2f nm, %lld interactions, seed %llu\n",
        problem.system.n_molecules(), setup.cutoff,
        static_cast<long long>(problem.half_list.n_pairs()),
        static_cast<unsigned long long>(setup.seed));
    std::printf("machine: %d clusters (%.0f GFLOPS peak), %s SDR allocation, "
                "unroll x%d\n\n",
                cfg.n_clusters, cfg.peak_gflops(),
                cfg.sdr_policy == sim::SdrPolicy::kConservative
                    ? "conservative" : "transfer-scoped",
                cfg.sched.unroll);

    std::vector<core::VariantResult> results;
    bool ok = true;
    for (core::Variant v : variants) {
      results.push_back(core::run_variant(problem, v, cfg));
      const auto& r = results.back();
      if (r.max_force_rel_err > 1e-9) {
        std::fprintf(stderr, "VALIDATION FAILED for %s (err %.2e)\n",
                     r.name.c_str(), r.max_force_rel_err);
        ok = false;
      }
      if (timeline) {
        std::printf("-- %s timeline --\n%s\n", r.name.c_str(),
                    r.run.timeline.ascii(r.run.cycles, r.run.cycles / 20 + 1)
                        .c_str());
      }
    }

    std::printf("how each variant shapes the work:\n%s\n",
                core::format_work_shape(results).c_str());
    std::printf("%s\n",
                core::format_performance_table(results, 0.0, 0.0).c_str());
    std::printf("%s\n", core::format_locality_table(results).c_str());
    std::printf("%s", core::format_arithmetic_intensity_table(results).c_str());
    std::printf("\nforces validated against the reference: %s\n",
                ok ? "yes" : "NO");

    if (!json_path.empty()) {
      obs::Json record = core::bench_record(kTool, cfg, results);
      obs::Json dataset = obs::Json::object();
      dataset.set("n_molecules", problem.system.n_molecules())
          .set("cutoff_nm", setup.cutoff)
          .set("seed", setup.seed)
          .set("fixed_list_length", setup.fixed_list_length)
          .set("interactions", problem.half_list.n_pairs());
      record.set("dataset", std::move(dataset));
      record.set("validated", ok);
      try {
        obs::write_file(record, json_path);
        std::printf("json record written to %s\n", json_path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
      }
    }
    if (!trace_path.empty()) {
      // One Chrome trace process per variant, one track per lane/SDR slot,
      // all populated by the controller's per-stream-op hooks.
      obs::TraceSink sink;
      for (std::size_t i = 0; i < results.size(); ++i) {
        const int pid = static_cast<int>(i);
        sink.set_process_name(pid, "streammd " + results[i].name);
        results[i].run.timeline.append_chrome_events(sink, pid, cfg.clock_ghz);
      }
      try {
        sink.write(trace_path);
        std::printf("chrome trace written to %s (%zu events)\n",
                    trace_path.c_str(), sink.size());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
      }
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", kTool, e.what());
    return 2;
  }
}
