#include "src/sim/kernelexec.h"

#include <bit>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "src/analysis/diag.h"
#include "src/obs/registry.h"
#include "src/util/fifo_map.h"

namespace smd::sim {

std::uint64_t KernelCost::cycles_for(std::int64_t rounds) const {
  if (rounds <= 0) return static_cast<std::uint64_t>(prologue_cycles);
  const int unroll = body.unroll > 0 ? body.unroll : 1;
  const auto steady = [&](std::int64_t iters) -> std::uint64_t {
    if (iters <= 0 || body.ii == 0) return 0;
    const std::int64_t instances = (iters + unroll - 1) / unroll;
    std::uint64_t c = static_cast<std::uint64_t>(instances) *
                      static_cast<std::uint64_t>(body.ii);
    // Pipeline fill/drain beyond the steady state.
    if (body.pipelined && body.depth > body.ii) {
      c += static_cast<std::uint64_t>(body.depth - body.ii);
    }
    return c;
  };

  std::uint64_t total = static_cast<std::uint64_t>(prologue_cycles);
  if (has_outer) {
    // The software pipeline restarts around every outer section.
    const std::uint64_t per_round = static_cast<std::uint64_t>(outer_pre_cycles) +
                                    steady(block_len) +
                                    static_cast<std::uint64_t>(outer_post_cycles);
    total += static_cast<std::uint64_t>(rounds) * per_round;
  } else {
    total += steady(rounds * block_len);
  }
  return total;
}

namespace {

using CostPtr = std::shared_ptr<const KernelCost>;

// The cache key holds every byte of kernel content and options that can
// change a cost; a hit needs all of it to match, never a hash alone. It
// is written field by field (never as raw struct bytes: Instr has
// padding). A new field in either struct must be added to make_key;
// these trip when the layout changes.
static_assert(sizeof(kernel::Instr) == 40, "add the new Instr field to make_key");
static_assert(sizeof(kernel::ScheduleOptions) == 24,
              "add the new ScheduleOptions field to make_key");

/// Appends `v` as a LEB128 varint. The encoding is prefix-free, so a
/// sequence of fields reads back one way only: equal keys mean equal
/// fields. Small values (register indices, counts) take one byte, which
/// keeps a resident key to a few KB.
void put(std::string& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) out.push_back(static_cast<char>(v | 0x80));
  out.push_back(static_cast<char>(v));
}

/// Signed values zigzag-encoded, so -1 (an unused operand) is one byte.
void put_signed(std::string& out, std::int64_t v) {
  put(out, (static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63));
}

void put(std::string& out, const std::string& s) {
  put(out, s.size());
  out.append(s);
}

void put(std::string& out, const std::vector<kernel::Instr>& prog) {
  put(out, prog.size());
  for (const kernel::Instr& in : prog) {
    put(out, static_cast<std::uint64_t>(in.op));
    for (const int field : {in.dst, in.a, in.b, in.c, in.stream, in.count}) {
      put_signed(out, field);
    }
    put(out, std::bit_cast<std::uint64_t>(in.imm));  // -0.0 != 0.0, NaN bits kept
  }
}

std::string make_key(const kernel::KernelDef& def,
                     const kernel::ScheduleOptions& opts) {
  std::string b;
  b.reserve(64 + 12 * (def.prologue.size() + def.outer_pre.size() +
                       def.body.size() + def.outer_post.size()));
  put(b, def.name);
  put_signed(b, def.n_regs);
  put_signed(b, def.block_len);
  put(b, def.streams.size());
  for (const kernel::StreamDecl& s : def.streams) {
    put(b, s.name);
    put(b, static_cast<std::uint64_t>(s.dir));
    put_signed(b, s.record_words);
    put(b, static_cast<std::uint64_t>(s.conditional));
  }
  put(b, def.prologue);
  put(b, def.outer_pre);
  put(b, def.body);
  put(b, def.outer_post);
  put_signed(b, opts.n_fpus);
  put_signed(b, opts.srf_words_per_cycle);
  put_signed(b, opts.cond_units);
  put_signed(b, opts.unroll);
  put(b, static_cast<std::uint64_t>(opts.software_pipeline));
  put_signed(b, opts.max_ii);
  return b;
}

CostPtr compute_cost(const kernel::KernelDef& def,
                     const kernel::ScheduleOptions& opts) {
  obs::ScopedTimer timer(obs::CounterRegistry::global(),
                         "sim.kernel_schedule");
  auto cost = std::make_shared<KernelCost>();
  cost->body = kernel::schedule_body(def, opts);
  cost->body.ops.shrink_to_fit();  // held for the process: no growth slack
  cost->prologue_cycles = kernel::straightline_cycles(def.prologue, opts);
  cost->outer_pre_cycles = kernel::straightline_cycles(def.outer_pre, opts);
  cost->outer_post_cycles = kernel::straightline_cycles(def.outer_post, opts);
  cost->block_len = def.block_len;
  cost->has_outer = !def.outer_pre.empty() || !def.outer_post.empty();
  return cost;
}

/// A thunk that makes a new exception equal to `error`: same type and
/// fields for the errors scheduling raises, same message otherwise. Every
/// waiting thread throws its own copy; an exception object rethrown in
/// several threads at once would be shared between them.
std::function<std::exception_ptr()> error_copier(
    const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const kernel::ScheduleError& e) {
    return [k = e.kernel(), r = e.res_mii(), m = e.max_ii(), c = e.conflict()] {
      return std::make_exception_ptr(kernel::ScheduleError(k, r, m, c));
    };
  } catch (const analysis::CheckFailure& e) {
    return [d = e.diagnostics()] {
      return std::make_exception_ptr(analysis::CheckFailure(d));
    };
  } catch (const std::exception& e) {
    return [w = std::string(e.what())] {
      return std::make_exception_ptr(std::runtime_error(w));
    };
  }
}

/// One schedule computation; threads missing on its key wait for it.
struct Flight {
  bool done = false;  ///< guarded by SharedCostCache::mu
  CostPtr cost;       ///< set on success
  std::function<std::exception_ptr()> error;  ///< set on failure
};

/// Finished costs (bounded, oldest evicted first) and the computations in
/// flight.
struct SharedCostCache {
  std::mutex mu;
  std::condition_variable landed;  ///< a flight finished
  util::FifoMap<std::string, CostPtr> done{kCostCacheCapacity};
  std::unordered_map<std::string, std::shared_ptr<const Flight>> pending;
};

SharedCostCache& shared_cache() {
  static SharedCostCache cache;
  return cache;
}

}  // namespace

CostPtr cached_kernel_cost(const kernel::KernelDef& def,
                           const kernel::ScheduleOptions& opts) {
  std::string key = make_key(def, opts);
  SharedCostCache& cache = shared_cache();
  const auto flight = std::make_shared<Flight>();
  {
    std::unique_lock<std::mutex> lock(cache.mu);
    if (const CostPtr* hit = cache.done.find(key)) {
      obs::CounterRegistry::global().add("sim.kernel_schedule_cache_hits");
      return *hit;
    }
    const auto it = cache.pending.find(key);
    if (it != cache.pending.end()) {
      const std::shared_ptr<const Flight> leader = it->second;
      cache.landed.wait(lock, [&] { return leader->done; });
      lock.unlock();
      obs::CounterRegistry::global().add("sim.kernel_schedule_cache_hits");
      if (leader->cost) return leader->cost;
      std::rethrow_exception(leader->error());
    }
    cache.pending.emplace(key, flight);
  }

  std::exception_ptr error;
  try {
    flight->cost = compute_cost(def, opts);
  } catch (...) {
    error = std::current_exception();
    flight->error = error_copier(error);
  }
  {
    const std::lock_guard<std::mutex> lock(cache.mu);
    flight->done = true;
    cache.pending.erase(key);
    if (flight->cost) cache.done.insert(std::move(key), flight->cost);
  }
  cache.landed.notify_all();
  if (error) std::rethrow_exception(error);
  return flight->cost;
}

const KernelCost& KernelCostCache::get(const kernel::KernelDef& def) {
  CostPtr cost = cached_kernel_cost(def, opts_);
  for (const CostPtr& p : pinned_) {
    if (p == cost) return *p;
  }
  pinned_.push_back(std::move(cost));
  return *pinned_.back();
}

}  // namespace smd::sim
