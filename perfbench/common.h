// Shared pieces of the host-time benchmark: options, the result report,
// timing and order statistics, and the set-up step every workload times.
//
// The benchmark measures host time -- how long the simulator takes on this
// machine. Simulated cycles are the reproduced paper's result, so they are
// never reported as performance here; they are checked to repeat exactly,
// and an op whose cycles do not repeat counts as failed.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/run.h"
#include "src/svc/server.h"

namespace perfbench {

// The harness calls into every layer of the simulator.
using namespace smd;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Expected Table-3 cycles (the repository's regression baseline); its
  /// setup block says at which seed and size the entries apply.
  std::string baseline_path = "BENCH_baseline.json";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run prints on its result line.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// Record one op: `failure` empty means it passed every check.
  void op(const std::string& failure);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (q in [0,1]) of unsorted samples; 0 when
/// empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Process peak resident set (VmHWM) in MB.
double peak_rss_mb();

/// The four Table-3 variants in core::run_all_variants's order.
inline constexpr core::Variant kVariants[] = {
    core::Variant::kExpanded, core::Variant::kFixed, core::Variant::kVariable,
    core::Variant::kDuplicated};

/// The force-validation tolerance of streammd_cli and integration_test.
constexpr double kForceTolerance = 1e-9;

/// Workers the svc workloads give the server: three, plus the client
/// thread, on a 4-core machine; fewer when fewer cores exist.
int svc_workers();

/// Set-up shared by every workload: build the problem `trials` times and
/// keep the last one. The svc form builds each problem through a
/// svc::ProblemPool miss (the last through ProblemPool::shared(), which
/// the server's workers read) and starts a svc::Server after it; all but
/// the last server are shut down untimed. `setup_s` is the median trial.
struct Table3Setup {
  core::Problem problem;
  double setup_s = 0.0;
};
Table3Setup setup_table3(const core::ExperimentSetup& setup, int trials);

struct SvcSetup {
  std::shared_ptr<const core::Problem> problem;
  std::unique_ptr<svc::Server> server;
  double setup_s = 0.0;
};
SvcSetup setup_svc(int n_molecules, const svc::ServerOptions& opts,
                   int trials);

}  // namespace perfbench
