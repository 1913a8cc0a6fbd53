// The Merrimac node memory system.
//
// Glues the address generators, the banked stream cache, the scatter-add
// combining stores and the DRDRAM channels into a cycle-driven engine that
// services stream memory operations (Section 2.2):
//
//   AGs (8 addr/cycle total) -> bank queues -> cache banks (1 word/cycle
//   each, 8 banks = 64 GB/s) -> MSHRs -> DRAM channels (38.4 GB/s peak).
//
// Functional data movement is exact: loads copy from GlobalMemory into the
// destination buffer, stores copy back, and scatter-add performs real
// floating-point accumulation -- so simulated kernels produce real forces.
// Timing is modeled per word through the pipeline above.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/mem/addrgen.h"
#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/mem/fixed.h"
#include "src/mem/scatteradd.h"

namespace smd::mem {

struct MemSystemConfig {
  CacheConfig cache;
  DramConfig dram;
  ScatterAddConfig scatter_add;
  int n_address_generators = 2;
  int addrs_per_generator = 4;  ///< per cycle; 2 x 4 = 8 addresses/cycle
};

/// Flat 64-bit-word global memory with a bump allocator, shared by the
/// scalar program and the stream unit (Merrimac's single address space).
class GlobalMemory {
 public:
  explicit GlobalMemory(std::int64_t initial_words = 0)
      : words_(static_cast<std::size_t>(initial_words), 0.0) {}

  /// Allocate `n` words; returns the base word address.
  std::uint64_t alloc(std::int64_t n);

  double read(std::uint64_t addr) const { return words_[addr]; }
  void write(std::uint64_t addr, double v) { words_[addr] = v; }
  void add(std::uint64_t addr, double v) { words_[addr] += v; }

  std::int64_t size() const { return static_cast<std::int64_t>(words_.size()); }

  /// Bulk helpers for program setup/readback.
  void write_block(std::uint64_t addr, const std::vector<double>& data);
  std::vector<double> read_block(std::uint64_t addr, std::int64_t n) const;

 private:
  std::vector<double> words_;
};

struct MemSystemStats {
  std::int64_t ops = 0;
  std::int64_t words_loaded = 0;     ///< SRF <- memory words
  std::int64_t words_stored = 0;     ///< SRF -> memory words (incl. scatter-add)
  std::int64_t addr_generated = 0;
  std::int64_t busy_cycles = 0;      ///< cycles with at least one active op
};

/// Cycle-driven stream memory system. Every per-cycle structure has the
/// fixed capacity its MemSystemConfig gives it and is allocated at
/// construction; a tick visits only the banks with queued requests or
/// pending writebacks.
class MemSystem {
 public:
  using OpId = int;

  MemSystem(const MemSystemConfig& cfg, GlobalMemory* mem);

  /// Issue a stream memory operation.
  ///  * loads: the destination buffer is resized and filled functionally;
  ///  * stores/scatter-add: `store_src` must hold total_words() values.
  /// Issue order must respect data dependences (the stream controller's
  /// scoreboard guarantees this).
  OpId issue(MemOpDesc desc, std::vector<double>* load_dst,
             const std::vector<double>* store_src);

  /// Advance one cycle.
  void tick();

  /// Advance to cycle `t` (t >= now()), bit-identical to `t - now()` calls
  /// of tick(). Pure-wait stretches -- no address generation, no bank
  /// work, no DRAM channel activity -- are fast-forwarded in O(1) instead
  /// of being ticked through; anything else falls back to per-cycle
  /// tick(). Callers that need to observe op completions promptly should
  /// bound `t` by next_event_time().
  void tick_until(std::uint64_t t);

  /// Earliest future cycle at which the visible state (op_done answers,
  /// statistics) may change: now()+1 while any per-cycle machinery is
  /// active, the next DRAM read-completion cycle when only fills are
  /// outstanding, or kNever when nothing at all is in flight (pending
  /// op_finish_time pipeline drains are the caller's to track).
  static constexpr std::uint64_t kNever = Dram::kNever;
  std::uint64_t next_event_time() const {
    return has_cycle_work() ? now_ + 1 : dram_.next_completion_time();
  }

  bool op_done(OpId id) const {
    const Op& op = *ops_[static_cast<std::size_t>(id)];
    return op.done && op.finish_time <= now_;
  }
  /// True once the op's last word retired (its finish_time is final);
  /// op_done additionally waits for the pipeline-drain finish_time.
  bool op_completed(OpId id) const {
    return ops_[static_cast<std::size_t>(id)]->done;
  }
  /// Cycle at which the op completed (valid once op_completed).
  std::uint64_t op_finish_time(OpId id) const {
    return ops_[static_cast<std::size_t>(id)]->finish_time;
  }
  bool all_done() const;
  std::uint64_t now() const { return now_; }

  const MemSystemStats& stats() const { return stats_; }
  const CacheStats& cache_stats() const { return tags_.stats(); }
  const DramStats& dram_stats() const { return dram_.stats(); }
  ScatterAddStats scatter_add_stats() const;

 private:
  struct Op {
    MemOpDesc desc;
    AddressGenerator ag;
    std::int64_t outstanding = 0;   // words not yet retired
    bool addresses_done = false;
    bool done = false;
    std::uint64_t finish_time = 0;
  };

  struct BankReq {
    Op* op;
    std::uint64_t addr;
    MemOpKind kind;
  };

  /// Consecutive fill waiters from one op: a link in an MSHR's waiter
  /// chain, stored in the shared waiter pool.
  struct WaiterRun {
    Op* op;
    std::int32_t count;
    std::int32_t next;  ///< pool index of the next run, -1 ends the chain
  };

  struct Mshr {
    std::uint64_t line = 0;
    bool dirty = false;        ///< a scatter-add RMW targets the line
    std::int32_t first = -1;   ///< waiter chain, -1 when empty
    std::int32_t last = -1;
  };

  struct alignas(64) Bank {
    explicit Bank(const MemSystemConfig& cfg);
    Mshr* find_mshr(std::uint64_t line);

    Ring<BankReq> queue;                    // bank_queue_depth
    Ring<std::uint64_t> pending_writebacks;  // line addresses
    std::vector<Mshr> mshrs;  // open fills, capacity mshrs_per_bank
    CombiningStore combining;
  };

  void retire_word(Op& op, std::int64_t n = 1);
  void finish(Op& op);
  void pop_request(Bank& bank) {
    bank.queue.pop_front();
    --queued_;
  }
  void open_mshr(Bank& bank, std::uint64_t line, bool dirty, Op* waiter);
  void add_waiter(Mshr& m, Op* op);
  void process_banks();
  bool bank_process_one(Bank& bank);
  void handle_fills();
  void generate_addresses();
  bool has_cycle_work() const {
    return !ag_queue_.empty() || busy_generators_ > 0 || queued_ > 0 ||
           writebacks_ > 0 || dram_.channels_busy();
  }

  MemSystemConfig cfg_;
  GlobalMemory* mem_;
  CacheTags tags_;
  Dram dram_;
  std::vector<Bank> banks_;
  /// Banks with queued requests or pending writebacks.
  ActiveSet active_banks_;
  std::vector<WaiterRun> waiter_pool_;
  std::int32_t free_waiter_ = -1;  ///< free-list head in waiter_pool_
  /// Every op issued, by id; heap-allocated so that bank requests, fill
  /// waiters and address generators can hold stable pointers.
  std::vector<std::unique_ptr<Op>> ops_;
  std::deque<Op*> ag_queue_;     // ops waiting for an address generator
  std::vector<Op*> ag_current_;  // per AG: active op or nullptr
  std::uint64_t now_ = 0;
  MemSystemStats stats_;
  int active_ops_ = 0;        ///< issued ops whose last word has not retired
  int busy_generators_ = 0;   ///< entries of ag_current_ holding an op
  std::int64_t queued_ = 0;   ///< requests in all bank queues
  std::int64_t writebacks_ = 0;  ///< lines in all pending-writeback queues
  std::int64_t open_mshrs_ = 0;  ///< fills in flight across all banks
  std::uint64_t last_finish_ = 0;  ///< latest finish_time of a completed op
};

}  // namespace smd::mem
