#include "src/mem/memsys.h"

#include <algorithm>
#include <stdexcept>

#include "src/obs/registry.h"

namespace smd::mem {
namespace {

/// Calls `f(addr, pos, n)` for each contiguous run of `desc`'s words in
/// stream order: stream words [pos, pos + n) live at word addresses
/// [addr, addr + n). A dense strided op is a single run; otherwise each
/// record is one. The functional side of a transfer moves whole runs; the
/// timing side walks the same words one at a time with an AddressGenerator.
template <class F>
void for_each_run(const MemOpDesc& desc, F&& f) {
  const std::int64_t rw = desc.record_words;
  if (desc.total_words() <= 0) return;
  if (is_strided(desc.kind)) {
    if (desc.stride_words == 0 || desc.stride_words == rw) {
      f(desc.base, std::int64_t{0}, desc.total_words());
      return;
    }
    for (std::int64_t r = 0; r < desc.n_records; ++r) {
      f(desc.base + static_cast<std::uint64_t>(r) *
                        static_cast<std::uint64_t>(desc.stride_words),
        r * rw, rw);
    }
    return;
  }
  for (std::int64_t r = 0; r < desc.n_records; ++r) {
    f(desc.base + desc.indices[static_cast<std::size_t>(r)] *
                      static_cast<std::uint64_t>(rw),
      r * rw, rw);
  }
}

}  // namespace

std::uint64_t GlobalMemory::alloc(std::int64_t n) {
  const auto base = static_cast<std::uint64_t>(words_.size());
  words_.resize(words_.size() + static_cast<std::size_t>(n), 0.0);
  return base;
}

void GlobalMemory::write_block(std::uint64_t addr, const std::vector<double>& data) {
  // Overflow-safe form of `addr + data.size() > words_.size()`: the naive
  // sum wraps for addresses near 2^64 and sails past the check.
  if (addr > words_.size() || data.size() > words_.size() - addr) {
    throw std::runtime_error("write_block out of range");
  }
  std::copy(data.begin(), data.end(), words_.begin() + static_cast<std::ptrdiff_t>(addr));
}

std::vector<double> GlobalMemory::read_block(std::uint64_t addr, std::int64_t n) const {
  if (n < 0) throw std::runtime_error("read_block negative length");
  if (addr > words_.size() ||
      static_cast<std::uint64_t>(n) > words_.size() - addr) {
    throw std::runtime_error("read_block out of range");
  }
  return {words_.begin() + static_cast<std::ptrdiff_t>(addr),
          words_.begin() + static_cast<std::ptrdiff_t>(addr) + n};
}

MemSystem::Bank::Bank(const MemSystemConfig& cfg)
    : queue(cfg.cache.bank_queue_depth),
      // A bank with a pending writeback opens no fill, and each fill adds at
      // most one writeback: open fills + pending writebacks never exceed
      // mshrs_per_bank.
      pending_writebacks(cfg.cache.mshrs_per_bank),
      combining(cfg.scatter_add) {
  mshrs.reserve(static_cast<std::size_t>(std::max(cfg.cache.mshrs_per_bank, 0)));
}

MemSystem::Mshr* MemSystem::Bank::find_mshr(std::uint64_t line) {
  for (Mshr& m : mshrs) {
    if (m.line == line) return &m;
  }
  return nullptr;
}

MemSystem::MemSystem(const MemSystemConfig& cfg, GlobalMemory* mem)
    : cfg_(cfg), mem_(mem), tags_(cfg.cache), dram_(cfg.dram, cfg.cache.line_words),
      active_banks_(static_cast<std::size_t>(cfg.cache.n_banks)) {
  banks_.reserve(static_cast<std::size_t>(cfg.cache.n_banks));
  for (int b = 0; b < cfg.cache.n_banks; ++b) banks_.emplace_back(cfg);
  ag_current_.assign(static_cast<std::size_t>(cfg.n_address_generators), nullptr);
}

MemSystem::OpId MemSystem::issue(MemOpDesc desc, std::vector<double>* load_dst,
                                 const std::vector<double>* store_src) {
  const std::int64_t total = desc.total_words();
  const OpId id = static_cast<OpId>(ops_.size());
  if (is_load(desc.kind) && load_dst == nullptr) {
    throw std::runtime_error("load without destination");
  }
  if (is_store(desc.kind)) {
    if (store_src == nullptr) throw std::runtime_error("store without source");
    if (static_cast<std::int64_t>(store_src->size()) < total) {
      throw std::runtime_error("store source shorter than op");
    }
  }
  auto owned = std::make_unique<Op>();
  Op& op = *owned;
  op.desc = std::move(desc);
  op.ag.start(&op.desc);  // rejects a short index stream before any transfer

  // Functional transfer, exact and immediate, one contiguous run at a time
  // (addresses are in range: the controller's pre-flight proves it).
  // Timing completes later; the stream controller's scoreboard keeps
  // consumers from running early.
  double* words = mem_->data();
  if (is_load(op.desc.kind)) {
    load_dst->clear();
    load_dst->resize(static_cast<std::size_t>(total));
    double* dst = load_dst->data();
    for_each_run(op.desc, [&](std::uint64_t addr, std::int64_t pos,
                              std::int64_t n) {
      std::copy_n(words + addr, n, dst + pos);
    });
    stats_.words_loaded += total;
  } else {
    const double* src = store_src->data();
    if (op.desc.kind == MemOpKind::kScatterAdd) {
      // Word by word in stream order, so repeated indices sum in the same
      // floating-point order as a per-word walk.
      for_each_run(op.desc, [&](std::uint64_t addr, std::int64_t pos,
                                std::int64_t n) {
        for (std::int64_t w = 0; w < n; ++w) words[addr + w] += src[pos + w];
      });
    } else {
      for_each_run(op.desc, [&](std::uint64_t addr, std::int64_t pos,
                                std::int64_t n) {
        std::copy_n(src + pos, n, words + addr);
      });
    }
    stats_.words_stored += total;
  }

  ops_.push_back(std::move(owned));
  op.outstanding = total;
  if (total == 0) {
    op.done = true;
    op.finish_time = now_;
    last_finish_ = std::max(last_finish_, now_);
  } else {
    ag_queue_.push_back(&op);
    ++active_ops_;
  }
  ++stats_.ops;
  const MemOpKind kind = op.desc.kind;
  auto& reg = obs::CounterRegistry::global();
  reg.add("mem.ops_issued");
  if (is_load(kind)) {
    reg.add("mem.words_loaded", total);
  } else {
    reg.add("mem.words_stored", total);
    if (kind == MemOpKind::kScatterAdd) reg.add("mem.scatter_add_words", total);
  }
  return id;
}

void MemSystem::finish(Op& op) {
  op.done = true;
  // Pipeline drain: last word still crosses the cache and SRF ports.
  op.finish_time = now_ + static_cast<std::uint64_t>(cfg_.cache.hit_latency);
  last_finish_ = std::max(last_finish_, op.finish_time);
  --active_ops_;
  ++completions_;
}

void MemSystem::retire_word(Op& op, std::int64_t n) {
  op.outstanding -= n;
  if (op.outstanding == 0 && op.addresses_done) finish(op);
}

void MemSystem::generate_addresses() {
  // Assign queued ops to idle address generators.
  for (Op*& cur : ag_current_) {
    if (cur == nullptr && !ag_queue_.empty()) {
      cur = ag_queue_.front();
      ag_queue_.pop_front();
      ++busy_generators_;
    }
  }
  for (Op*& cur : ag_current_) {
    if (cur == nullptr) continue;
    Op& op = *cur;
    // Walk a local copy of the generator so its state stays in registers.
    AddressGenerator ag = op.ag;
    const MemOpKind kind = op.desc.kind;
    std::int64_t pushed = 0;
    while (pushed < cfg_.addrs_per_generator && !ag.done()) {
      const std::uint64_t addr = ag.peek();
      const auto b = static_cast<std::size_t>(tags_.bank_of(addr));
      Bank& bank = banks_[b];
      if (bank.queue.full()) break;  // backpressure: retry next cycle
      if (bank.queue.empty()) active_banks_.insert(b);
      bank.queue.push_back({cur, addr, kind});
      ag.advance();
      ++pushed;
    }
    op.ag = ag;
    queued_ += pushed;
    stats_.addr_generated += pushed;
    if (ag.done()) {
      op.addresses_done = true;
      if (op.outstanding == 0 && !op.done) finish(op);
      cur = nullptr;  // free the generator
      --busy_generators_;
    }
  }
}

void MemSystem::add_waiter(Mshr& m, Op* op) {
  if (m.last >= 0 && waiter_pool_[static_cast<std::size_t>(m.last)].op == op) {
    ++waiter_pool_[static_cast<std::size_t>(m.last)].count;
    return;
  }
  std::int32_t idx = free_waiter_;
  if (idx >= 0) {
    free_waiter_ = waiter_pool_[static_cast<std::size_t>(idx)].next;
    waiter_pool_[static_cast<std::size_t>(idx)] = {op, 1, -1};
  } else {
    // The pool only grows to its high-water mark; after that every run
    // comes off the free list.
    idx = static_cast<std::int32_t>(waiter_pool_.size());
    waiter_pool_.push_back({op, 1, -1});
  }
  if (m.last >= 0) {
    waiter_pool_[static_cast<std::size_t>(m.last)].next = idx;
  } else {
    m.first = idx;
  }
  m.last = idx;
}

void MemSystem::open_mshr(Bank& bank, std::uint64_t line, bool dirty,
                          Op* waiter) {
  bank.mshrs.push_back({line, dirty});
  ++open_mshrs_;
  if (waiter != nullptr) add_waiter(bank.mshrs.back(), waiter);
}

bool MemSystem::bank_process_one(Bank& bank) {
  // Highest priority: write back evicted dirty lines.
  if (writebacks_ > 0 && !bank.pending_writebacks.empty()) {
    const std::uint64_t line = bank.pending_writebacks.front();
    if (dram_.try_write_words(line * static_cast<std::uint64_t>(cfg_.cache.line_words),
                              cfg_.cache.line_words)) {
      bank.pending_writebacks.pop_front();
      --writebacks_;
      return true;
    }
    return false;  // DRAM write buffer full; bank blocked this cycle
  }

  if (bank.queue.empty()) return false;
  const BankReq req = bank.queue.front();
  const int mshr_cap = cfg_.cache.mshrs_per_bank;

  // A blocked request stays head-of-line and is retried next cycle. A load
  // or scatter-add retry re-probes the cache (an access and a miss, and
  // the LRU clock advances); a scatter-add retry that finds the combining
  // store full counts another stall.
  switch (req.kind) {
    case MemOpKind::kLoadStrided:
    case MemOpKind::kLoadGather: {
      if (tags_.probe(req.addr) == CacheOutcome::kHit) {
        pop_request(bank);
        retire_word(*req.op);
        return true;
      }
      const std::uint64_t line = tags_.line_of(req.addr);
      if (Mshr* m = bank.find_mshr(line)) {
        tags_.stats().secondary_misses++;
        add_waiter(*m, req.op);
        pop_request(bank);
        return true;
      }
      if (static_cast<int>(bank.mshrs.size()) < mshr_cap &&
          dram_.try_read_line(line)) {
        open_mshr(bank, line, false, req.op);
        pop_request(bank);
        return true;
      }
      return false;  // MSHRs or DRAM queue full: head-of-line block
    }
    case MemOpKind::kStoreStrided:
    case MemOpKind::kStoreScatter: {
      // Write-through, no-allocate; keep a resident copy coherent.
      if (!dram_.try_write_words(req.addr, 1)) return false;
      tags_.probe_if_resident(req.addr);
      pop_request(bank);
      retire_word(*req.op);
      return true;
    }
    case MemOpKind::kScatterAdd: {
      // Drop the merge windows that closed by the end of the last cycle.
      // Purging here, just before the store is used, leaves it exactly as
      // a purge at the end of every cycle would, without a per-cycle sweep
      // over every bank.
      bank.combining.purge_expired(now_ - 1);
      // An addition to a word already in the FU pipeline merges for free.
      if (bank.combining.try_merge(req.addr, now_)) {
        pop_request(bank);
        retire_word(*req.op);
        return true;
      }
      // Otherwise this is a new in-flight addition: the FU performs its
      // read-modify-write inline at the bank (one word/bank/cycle -- the
      // paper's "full cache bandwidth"). A resident line is updated and
      // dirtied; a miss fetches the line, dirtying it on fill.
      const std::uint64_t line = tags_.line_of(req.addr);
      if (CacheTags::Way* way = tags_.probe_way(req.addr)) {
        if (!bank.combining.try_allocate(req.addr, now_)) return false;
        way->dirty = true;
        pop_request(bank);
        retire_word(*req.op);
        return true;
      }
      if (Mshr* m = bank.find_mshr(line)) {
        if (!bank.combining.try_allocate(req.addr, now_)) return false;
        tags_.stats().secondary_misses++;
        m->dirty = true;
        pop_request(bank);
        retire_word(*req.op);
        return true;
      }
      if (static_cast<int>(bank.mshrs.size()) < mshr_cap &&
          dram_.can_accept_read(line)) {
        // The combining-store entry must be secured before the word is
        // retired: a full store counts a `stalled` retry (as on the hit
        // and secondary-miss paths) and the request stays head-of-line
        // for the next cycle instead of being dropped.
        if (!bank.combining.try_allocate(req.addr, now_)) return false;
        if (!dram_.try_read_line(line)) {
          throw std::logic_error("scatter-add miss fill: DRAM rejected a "
                                 "read it advertised capacity for");
        }
        open_mshr(bank, line, true, nullptr);
        pop_request(bank);
        retire_word(*req.op);
        return true;
      }
      return false;
    }
  }
  return false;
}

void MemSystem::process_banks() {
  // Ascending bank order, as in a scan over every bank: banks share the
  // tag array's LRU clock and the DRAM channel queues.
  active_banks_.for_each([this](std::size_t b) {
    Bank& bank = banks_[b];
    bank_process_one(bank);
    if (bank.queue.empty() && bank.pending_writebacks.empty()) {
      active_banks_.erase(b);
    }
  });
}

void MemSystem::handle_fills() {
  for (const std::uint64_t line : dram_.completed_reads()) {
    const int b = tags_.bank_of_line(line);
    Bank& bank = banks_[static_cast<std::size_t>(b)];
    Mshr* m = bank.find_mshr(line);
    if (m == nullptr) continue;
    bool evicted = false, dirty = false;
    std::uint64_t evicted_line = 0;
    tags_.install(line, &evicted, &evicted_line, &dirty);
    if (evicted && dirty) {
      bank.pending_writebacks.push_back(evicted_line);
      ++writebacks_;
      active_banks_.insert(static_cast<std::size_t>(b));
    }
    if (m->dirty) {
      tags_.mark_dirty(line * static_cast<std::uint64_t>(cfg_.cache.line_words));
    }
    if (m->first >= 0) {
      for (std::int32_t i = m->first; i >= 0;) {
        const WaiterRun run = waiter_pool_[static_cast<std::size_t>(i)];
        retire_word(*run.op, run.count);
        i = run.next;
      }
      waiter_pool_[static_cast<std::size_t>(m->last)].next = free_waiter_;
      free_waiter_ = m->first;
    }
    *m = bank.mshrs.back();
    bank.mshrs.pop_back();
    --open_mshrs_;
  }
}

void MemSystem::tick() {
  ++now_;
  if (busy_generators_ > 0 || !ag_queue_.empty()) generate_addresses();
  process_banks();
  dram_.tick();
  if (!dram_.completed_reads().empty()) handle_fills();
  if (active_ops_ > 0) ++stats_.busy_cycles;
}

bool MemSystem::all_done() const {
  // Every op retired and past its pipeline drain, no fill or writeback
  // outstanding -- and the DRAM gone quiet too: in-flight channel reads,
  // undrained read completions, and posted writes are all memory-system
  // business even after every op has retired (write-through stores retire
  // when the write is *posted*, not when it reaches DRAM).
  return active_ops_ == 0 && last_finish_ <= now_ && writebacks_ == 0 &&
         open_mshrs_ == 0 && dram_.idle();
}

bool MemSystem::tick_until_completion(std::uint64_t t) {
  const std::uint64_t completions = completions_;
  while (now_ < t) {
    if (!has_cycle_work()) {
      // Pure wait: the only future activity is the tick that pops the next
      // DRAM read completion (if any). Jump to just before it -- or to the
      // target -- replaying the per-cycle effects exactly: DRAM credit
      // accrual and the busy-cycle counter. Combining windows need no
      // replay: each bank purges its expired entries when it next uses
      // its combining store.
      const std::uint64_t fill = dram_.next_completion_time();
      std::uint64_t jump_to = t;
      if (fill != Dram::kNever && fill - 1 < jump_to) jump_to = fill - 1;
      if (jump_to > now_) {
        const std::uint64_t dt = jump_to - now_;
        dram_.advance_idle(dt);
        if (active_ops_ > 0) stats_.busy_cycles += static_cast<std::int64_t>(dt);
        now_ = jump_to;
        continue;
      }
    }
    tick();
    if (completions_ != completions) return true;
  }
  return false;
}

void MemSystem::tick_until(std::uint64_t t) {
  while (now_ < t) tick_until_completion(t);
}

ScatterAddStats MemSystem::scatter_add_stats() const {
  ScatterAddStats total;
  for (const auto& bank : banks_) {
    const auto& s = bank.combining.stats();
    total.requests += s.requests;
    total.combined += s.combined;
    total.issued += s.issued;
    total.stalled += s.stalled;
  }
  return total;
}

}  // namespace smd::mem
