// perfbench: the repository's host-time benchmark.
//
//   perfbench --workload table3-900|svc-unique-32|svc-sweep-216
//             --seed N --seconds S --trace 0|1 [--baseline PATH]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones. Exits 2 on a usage error and 1 when a run cannot
// complete; failed ops still produce a result line (correct = false).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table3-900|svc-unique-32|svc-sweep-216 --seed N --seconds S "
               "--trace 0|1 [--baseline PATH]\n",
               why);
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  long long out = 0;
  try {
    out = std::stoll(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size()) usage((flag + ": not an integer").c_str());
  return out;
}

void print_result(const perfbench::Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.failed() == 0 && r.attempted() > 0 ? "true" : "false",
              static_cast<long long>(r.attempted()),
              static_cast<long long>(r.failed()));
  const char* sep = "";
  for (const auto& m : r.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage((flag + ": missing value").c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      const long long s = parse_int(flag, v);
      if (s < 0) usage("--seed: must be >= 0");
      opts.seed = static_cast<std::uint64_t>(s);
      have_seed = true;
    } else if (flag == "--seconds") {
      const long long s = parse_int(flag, v);
      if (s < 1 || s > 3600) usage("--seconds: must be in 1..3600");
      opts.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      const long long t = parse_int(flag, v);
      if (t != 0 && t != 1) usage("--trace: must be 0 or 1");
      opts.trace = t == 1;
      have_trace = true;
    } else if (flag == "--baseline") {
      opts.baseline_path = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }

  using perfbench::SvcWorkload;
  try {
    perfbench::Report r;
    if (opts.workload == "table3-900") {
      r = opts.trace ? perfbench::trace_table3(opts)
                     : perfbench::run_table3(opts);
    } else if (opts.workload == "svc-unique-32") {
      r = opts.trace ? perfbench::trace_svc(opts, SvcWorkload::kUnique32)
                     : perfbench::run_svc(opts, SvcWorkload::kUnique32);
    } else if (opts.workload == "svc-sweep-216") {
      r = opts.trace ? perfbench::trace_svc(opts, SvcWorkload::kSweep216)
                     : perfbench::run_svc(opts, SvcWorkload::kSweep216);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
    print_result(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
