// svc workloads: an svc::Server driven by one closed-loop client.
//
// The client acts like a sweep script that waits for its replies: it keeps
// kOutstanding requests in flight and submits the next one only when one
// completes, so a slower server receives less load. Latency is each
// response's own submit -> deliver time (Response::total_ns).
//
//   svc-unique-32   every request is a distinct config (the four variants
//                   x distinct dram_gbps nudges) at 32 molecules: the
//                   fixed per-job cost (kernel scheduling) dominates, and
//                   no request can be served without simulating.
//   svc-sweep-216   a design-space grid (variant x L x unroll x swp x
//                   clusters) at 216 molecules, each config requested
//                   twice at positions the seed picks, so about half the
//                   requests are served by in-flight dedup or the memo.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "perfbench/common.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/obs/registry.h"
#include "src/tune/runner.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr int kOutstanding = 6;
constexpr int kSetupTrials = 51;
/// Traced runs serve a fixed request count, so their counts repeat, then
/// replay the first simulated configs layer by layer.
constexpr std::size_t kTracedRequests = 96;
constexpr std::size_t kReplayOps = 8;
/// Served configs re-simulated directly after an untraced run, to require
/// the server's payload (cycles included) to repeat byte for byte.
constexpr std::size_t kRecheckOps = 4;

/// Fisher-Yates over [first, last) with the benchmark's seeded generator.
template <typename It>
void shuffle(It first, It last, util::Rng& rng) {
  for (auto n = last - first; n > 1; --n) {
    std::swap(first[n - 1],
              first[static_cast<long>(rng.uniform_u64(static_cast<std::uint64_t>(n)))]);
  }
}

/// What the client submits, in order, derived only from the seed.
struct Plan {
  int n_molecules = 0;
  bool expect_duplicates = false;
  std::vector<tune::Candidate> configs;  ///< request k asks for configs[k]
};

/// Enough distinct configs for any run length the benchmark allows: the
/// server completes well under 1000 of these per second.
constexpr int kUniqueConfigs = 20000;

Plan unique_plan(std::uint64_t seed) {
  util::Rng rng(seed);
  // Offset the nudges by the seed so each seed asks for its own configs.
  const auto base = static_cast<int>(rng.uniform_u64(1000));
  Plan p{32, false, {}};
  p.configs.reserve(kUniqueConfigs);
  for (int k = 0; k < kUniqueConfigs; ++k) {
    tune::Candidate c;
    c.variant = kVariants[k % 4];
    c.dram_gbps = 38.4 + 0.001 * static_cast<double>(base + k / 4);
    p.configs.push_back(c);
  }
  return p;
}

/// The grid: 960 configs, every one of which simulates without error.
constexpr const char* kSweepGrid =
    "variant=expanded,fixed,variable,duplicated;L=4,5,6,7,8,9,10,12,14,16;"
    "unroll=1,2,3,4;swp=0,1;clusters=8,16,32";
/// Each block of configs is requested twice in a seeded order within the
/// block, so a run cut anywhere has requested almost every config it
/// started twice.
constexpr std::size_t kSweepBlock = 8;
/// Passes over the grid; pass p > 0 nudges dram_gbps so its configs are
/// new. One pass outlasts a 30 s run at the time of writing.
constexpr int kSweepPasses = 4;

Plan sweep_plan(std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<tune::Candidate> grid =
      tune::ConfigSpace::parse(kSweepGrid).enumerate();
  Plan p{216, true, {}};
  for (int pass = 0; pass < kSweepPasses; ++pass) {
    std::vector<tune::Candidate> order = grid;
    for (auto& c : order) c.dram_gbps += 0.001 * pass;
    shuffle(order.begin(), order.end(), rng);
    for (std::size_t b = 0; b < order.size(); b += kSweepBlock) {
      const std::size_t e = std::min(order.size(), b + kSweepBlock);
      std::vector<tune::Candidate> block(order.begin() + static_cast<long>(b),
                                         order.begin() + static_cast<long>(e));
      block.insert(block.end(), block.begin(), block.end());
      shuffle(block.begin(), block.end(), rng);
      p.configs.insert(p.configs.end(), block.begin(), block.end());
    }
  }
  return p;
}

Plan make_plan(SvcWorkload w, std::uint64_t seed) {
  return w == SvcWorkload::kUnique32 ? unique_plan(seed) : sweep_plan(seed);
}

struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> done;  ///< request indexes, guarded by mu
};

using ReplyFn = std::function<void(std::size_t, const svc::Response&)>;

/// Closed loop: keep kOutstanding requests in flight until `limit`
/// requests were submitted or `deadline` passed, then wait for the rest.
/// Each reply goes to `on_reply` on this thread as it is collected, and
/// its handle is released, so a long run does not hold every reply.
/// Returns the seconds from the first submit to the last reply.
double closed_loop(svc::Server& server, const Plan& plan, std::size_t limit,
                   Clock::time_point deadline, const ReplyFn& on_reply) {
  limit = std::min(limit, plan.configs.size());
  // Shared with the progress callbacks, which run on worker threads and
  // may still be returning when the last reply has been collected.
  auto completions = std::make_shared<Completions>();
  std::vector<svc::JobHandle> handles;
  std::size_t inflight = 0;
  const auto t0 = Clock::now();
  while (true) {
    while (inflight < kOutstanding && handles.size() < limit &&
           Clock::now() < deadline) {
      const std::size_t k = handles.size();
      svc::Request req;
      req.id = "r" + std::to_string(k);
      req.config = plan.configs[k];
      req.n_molecules = plan.n_molecules;
      handles.push_back(server.submit(
          std::move(req), [completions, k](const svc::Progress& p) {
            if (p.phase != svc::JobPhase::kDone) return;
            const std::lock_guard<std::mutex> lock(completions->mu);
            completions->done.push_back(k);
            completions->cv.notify_all();
          }));
      ++inflight;
    }
    if (inflight == 0) break;
    std::vector<std::size_t> batch;
    {
      std::unique_lock<std::mutex> lock(completions->mu);
      completions->cv.wait(lock, [&] { return !completions->done.empty(); });
      batch.swap(completions->done);
    }
    for (const std::size_t k : batch) {
      on_reply(k, handles[k].wait());
      handles[k] = svc::JobHandle();
    }
    inflight -= batch.size();
  }
  return seconds_since(t0);
}

/// Per-response checks, applied as replies arrive: served without error,
/// forces within tolerance, phase timings summing to the total, and --
/// where the plan repeats configs -- a twin's payload byte-identical to
/// the first reply's.
class ResponseChecker {
 public:
  explicit ResponseChecker(const Plan& plan) : plan_(plan) {}

  std::string check(const svc::Response& r) {
    if (!r.ok()) {
      return std::string(svc::error_code_name(r.error)) + ": " + r.message;
    }
    if (r.metrics.max_force_rel_err >= kForceTolerance) {
      return "forces off by " + std::to_string(r.metrics.max_force_rel_err);
    }
    if (r.admission_ns + r.queue_ns + r.lookup_ns + r.simulate_ns +
            r.serialize_ns + r.complete_ns != r.total_ns) {
      return "phase timings do not sum to the response total";
    }
    const auto [it, fresh] = first_payload_.emplace(
        r.config_hash, plan_.expect_duplicates ? r.payload : std::string());
    if (fresh) return "";
    if (!plan_.expect_duplicates) {
      return "config repeated in a unique-config workload";
    }
    if (r.payload != it->second) {
      return "duplicate request's payload differs from its twin's";
    }
    return "";
  }

 private:
  const Plan& plan_;
  std::unordered_map<std::uint64_t, std::string> first_payload_;
};

/// Re-simulate a served config directly and require the server's payload
/// -- cycles included -- to repeat byte for byte.
std::string recheck_payload(const Plan& plan, const core::Problem& problem,
                            std::size_t k, const svc::Response& r) {
  const tune::Candidate& c = plan.configs[k];
  const std::string direct = svc::payload_text(
      r.config_hash, c, plan.n_molecules, tune::evaluate(problem, c));
  return direct == r.payload
             ? ""
             : "served payload differs from a direct re-simulation";
}

svc::ServerOptions server_options(bool record_spans) {
  svc::ServerOptions o;
  o.workers = svc_workers();
  o.record_spans = record_spans;
  return o;
}

}  // namespace

Report run_svc(const Options& opts, SvcWorkload w) {
  const Plan plan = make_plan(w, opts.seed);
  SvcSetup s = setup_svc(plan.n_molecules, server_options(false), kSetupTrials);

  ResponseChecker checker(plan);
  std::vector<std::string> failures;
  std::vector<double> latency_ms;
  std::vector<std::pair<std::size_t, svc::Response>> recheck;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  const double elapsed = closed_loop(
      *s.server, plan, plan.configs.size(), deadline,
      [&](std::size_t k, const svc::Response& r) {
        if (failures.size() <= k) failures.resize(k + 1);
        failures[k] = checker.check(r);
        latency_ms.push_back(static_cast<double>(r.total_ns) / 1e6);
        if (failures[k].empty() && r.served_by == "sim" &&
            recheck.size() < kRecheckOps) {
          recheck.emplace_back(k, r);
        }
      });
  s.server->shutdown();
  for (const auto& [k, resp] : recheck) {
    failures[k] = recheck_payload(plan, *s.problem, k, resp);
  }

  Report r;
  for (const auto& f : failures) r.op(f);
  if (failures.size() == plan.configs.size()) {
    std::fprintf(stderr, "perfbench: warning: request plan ran out\n");
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

Report trace_svc(const Options& opts, SvcWorkload w) {
  const Plan plan = make_plan(w, opts.seed);
  core::ExperimentSetup setup;  // what svc::ProblemPool builds per size
  setup.n_molecules = plan.n_molecules;
  const SetupLedger md = trace_setup(setup, 3);
  SvcSetup s = setup_svc(plan.n_molecules, server_options(true), 1);

  obs::CounterRegistry& reg = obs::CounterRegistry::process();
  const double schedule0 = reg.gauge("sim.kernel_schedule.seconds");
  const std::int64_t calls0 = reg.counter("sim.kernel_schedule.calls");
  ResponseChecker checker(plan);
  std::vector<svc::Response> responses(std::min(kTracedRequests, plan.configs.size()));
  std::vector<std::string> failures(responses.size());
  closed_loop(*s.server, plan, responses.size(), Clock::time_point::max(),
              [&](std::size_t k, const svc::Response& r) {
                failures[k] = checker.check(r);
                responses[k] = r;
              });
  s.server->drain();

  Report r;
  // Every response's six phase spans must tile its root span exactly.
  std::map<std::uint64_t, std::vector<obs::SpanRecord>> traces;
  for (auto& rec : s.server->spans().snapshot()) {
    traces[rec.ctx.trace_id].push_back(std::move(rec));
  }
  std::size_t partitioned = 0;
  for (std::size_t k = 0; k < responses.size(); ++k) {
    std::string why;
    const auto it = traces.find(responses[k].trace_id);
    if (it == traces.end()) {
      why = "no span tree recorded";
    } else if (!obs::spans_partition_exactly(it->second, &why)) {
      why = "spans do not partition: " + why;
    } else {
      ++partitioned;
    }
    if (failures[k].empty()) failures[k] = why;
  }
  std::fprintf(stderr, "perfbench: span partition holds on %zu/%zu responses\n",
               partitioned, responses.size());

  SvcLedger sv;
  sv.queue_wait_ms_p50 = s.server->queue_wait_hist().quantile(0.5) / 1e6;
  sv.execute_ms_p50 = s.server->execute_hist().quantile(0.5) / 1e6;
  sv.serialize_ms_p50 = s.server->serialize_hist().quantile(0.5) / 1e6;
  sv.queue_peak_depth = static_cast<std::int64_t>(s.server->queue_peak_depth());
  ScheduleLedger sched;
  sched.seconds = reg.gauge("sim.kernel_schedule.seconds") - schedule0;
  sched.calls = reg.counter("sim.kernel_schedule.calls") - calls0;
  std::set<std::string> kernels;
  std::vector<std::size_t> simulated;
  for (std::size_t k = 0; k < responses.size(); ++k) {
    const svc::Response& resp = responses[k];
    if (resp.served_by == "sim") {
      ++sv.simulated;
      simulated.push_back(k);
      const tune::Candidate& c = plan.configs[k];
      kernels.insert(kernel_key(c.variant, *s.problem, c.fixed_list_length,
                                c.machine().sched));
    } else if (resp.served_by == "dedup") {
      ++sv.deduped;
    } else if (resp.served_by == "cache") {
      ++sv.memo_hits;
    }
  }
  sched.ops = sv.simulated;
  sched.distinct_kernels = kernels.size();
  s.server->shutdown();

  // Layer replay of the first simulated configs, each beside an untraced
  // direct evaluation of the same config for the tracing overhead.
  LayerLedger led;
  double untraced_s = 0.0;
  for (std::size_t i = 0; i < simulated.size() && i < kReplayOps; ++i) {
    const std::size_t k = simulated[i];
    const tune::Candidate& c = plan.configs[k];
    const sim::MachineConfig cfg = c.machine();
    const auto t0 = Clock::now();
    tune::evaluate(*s.problem, c);
    untraced_s += seconds_since(t0);
    const TracedOp op = trace_op(*s.problem, c.variant, cfg,
                                 c.fixed_list_length, c.strip_rounds, led);
    if (!failures[k].empty()) continue;
    if (!op.failure.empty()) {
      failures[k] = op.failure;
    } else if (op.cycles != responses[k].metrics.cycles) {
      failures[k] = "replayed cycles differ from the served result";
    } else if (op.max_force_rel_err >= kForceTolerance) {
      failures[k] = "replayed forces off by " + std::to_string(op.max_force_rel_err);
    }
  }
  for (const auto& f : failures) r.op(f);
  emit_layers(r, md, led, sched, sv,
              untraced_s > 0.0 ? led.op_s / untraced_s - 1.0 : 0.0);
  return r;
}

}  // namespace perfbench
