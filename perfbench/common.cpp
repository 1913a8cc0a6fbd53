#include "perfbench/common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

namespace perfbench {

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::op(const std::string& failure) {
  ++attempted_;
  if (failure.empty()) return;
  ++failed_;
  // Only the first few reasons: a systematic failure repeats per op.
  if (failed_ <= 5) std::fprintf(stderr, "perfbench: failed op: %s\n", failure.c_str());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

int svc_workers() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores - 1, 1, 3);
}

Table3Setup setup_table3(const core::ExperimentSetup& setup, int trials) {
  std::optional<core::Problem> problem;
  std::vector<double> times;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = Clock::now();
    problem.emplace(core::Problem::make(setup));
    times.push_back(seconds_since(t0));
  }
  return {std::move(*problem), median(times)};
}

SvcSetup setup_svc(int n_molecules, const svc::ServerOptions& opts,
                   int trials) {
  SvcSetup out;
  std::vector<double> times;
  for (int t = 0; t < trials; ++t) {
    const bool last = t + 1 == trials;
    svc::ProblemPool fresh;
    svc::ProblemPool& pool = last ? svc::ProblemPool::shared() : fresh;
    const auto t0 = Clock::now();
    out.problem = pool.get(n_molecules);
    auto server = std::make_unique<svc::Server>(opts);
    times.push_back(seconds_since(t0));
    if (last) out.server = std::move(server);
  }
  out.setup_s = median(times);
  return out;
}

}  // namespace perfbench
