// DRDRAM-style external memory model.
//
// Merrimac directly attaches 2 GB of Rambus DRDRAM delivering 38.4 GB/s of
// peak sequential bandwidth and roughly half that for random access
// (Section 2.2). We model the memory as line-interleaved channels, each
// with a fixed words-per-cycle transfer rate, a fixed access latency, and a
// row-activation penalty when consecutive accesses on a channel touch
// different rows -- which is what separates streaming from random access
// bandwidth.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/mem/fixed.h"

namespace smd::mem {

struct DramConfig {
  int n_channels = 8;
  /// Per-channel transfer rate in 64-bit words per processor cycle.
  /// 8 channels x 0.6 w/c x 8 B x 1 GHz = 38.4 GB/s peak.
  double channel_words_per_cycle = 0.6;
  int access_latency = 100;     ///< cycles from service start to data return
  int row_words = 2048;         ///< words per DRAM row (16 KB)
  int row_miss_penalty_words = 8;  ///< extra word-times on a row change
  int read_queue_depth = 16;    ///< per channel
  std::int64_t write_buffer_words = 256;  ///< per channel posted-write buffer
};

struct DramStats {
  std::int64_t read_lines = 0;
  std::int64_t read_words = 0;
  std::int64_t write_words = 0;
  std::int64_t row_misses = 0;
  std::int64_t busy_cycles = 0;  ///< cycles where any channel transferred
};

/// Cycle-driven DRAM model. Reads are requested at line granularity and
/// complete asynchronously; writes are posted at word granularity.
class Dram {
 public:
  Dram(const DramConfig& cfg, int line_words);

  /// Enqueue a line read; returns false when the channel queue is full.
  bool try_read_line(std::uint64_t line_addr);

  /// True when try_read_line(line_addr) would succeed (no side effects).
  bool can_accept_read(std::uint64_t line_addr) const;

  /// Post `n` write words at `addr`; returns false when the buffer is full.
  bool try_write_words(std::uint64_t addr, int n);

  /// Advance one cycle. Only channels with work are visited, so a cycle
  /// with none and no returning data costs a few compares.
  void tick() {
    ++now_;
    if (busy_) tick_channels();
    completed_now_.clear();
    if (next_completion_time() <= now_) pop_completions();
  }

  /// Line reads whose data returned in the last tick(), in ascending
  /// line order; valid until the next tick(). The buffer is reused, so
  /// reading it allocates nothing.
  std::span<const std::uint64_t> completed_reads() const {
    return completed_now_;
  }

  bool writes_drained() const;
  bool idle() const;

  /// True when any channel has per-cycle work: a read being serviced or
  /// queued, or posted writes draining. Pending read *completions* (data
  /// in flight back to the cache) do not count -- they need no channel
  /// cycles, only the passage of time.
  bool channels_busy() const { return busy_; }

  /// Cycle at which the earliest pending read completion becomes visible
  /// (the tick that pops it), or kNever when none is in flight.
  static constexpr std::uint64_t kNever = ~0ULL;
  std::uint64_t next_completion_time() const {
    return completions_.empty() ? kNever : completions_.front().first;
  }

  /// Fast-forward `dt` cycles of pure waiting in O(1). Precondition:
  /// !channels_busy() and now() + dt < next_completion_time(). Idle
  /// channels accrue their credit lazily (see Channel::synced), so the
  /// result is bit-identical to dt calls of tick().
  void advance_idle(std::uint64_t dt) { now_ += dt; }

  const DramStats& stats() const { return stats_; }
  std::uint64_t now() const { return now_; }

 private:
  struct Channel {
    explicit Channel(int read_queue_depth) : read_queue(read_queue_depth) {}
    Ring<std::uint64_t> read_queue;   // line addresses
    double pending_write_words = 0.0;  // fractional: drains at < 1 word/cycle
    std::uint64_t last_row = ~0ULL;
    double credit = 0.0;
    double read_cost_left = 0.0;  // word-times left on the line in service
    bool in_service = false;
    std::uint64_t serving_line = 0;
    /// While the channel has no work it is not ticked; its credit holds
    /// the value after cycle `synced`, and the idle cycles since are
    /// replayed when work next arrives.
    std::uint64_t synced = 0;

    bool has_work() const {
      return in_service || !read_queue.empty() || pending_write_words > 0.0;
    }
  };

  std::size_t channel_of_line(std::uint64_t line_addr) const {
    return static_cast<std::size_t>(channel_div_.mod(line_addr));
  }

  DramConfig cfg_;
  int line_words_;
  FixedDivisor line_div_;
  FixedDivisor channel_div_;
  double credit_cap_;  ///< idle channels bank at most this much credit

  void wake(std::size_t c);
  void tick_channels();
  void pop_completions();
  std::uint64_t now_ = 0;
  std::vector<Channel> channels_;
  /// Channels with work: the only ones a tick visits.
  ActiveSet awake_;
  /// (completion_cycle, line_addr), in pop order. Every read finishes
  /// access_latency cycles after its service ends, so completion cycles
  /// arrive in order; the reads ending in one tick are sorted by line
  /// before they are appended. The ring holds access_latency + 1 ticks of
  /// completions from every channel.
  Ring<std::pair<std::uint64_t, std::uint64_t>> completions_;
  std::vector<std::uint64_t> finished_now_;   // reads whose service ended this tick
  std::vector<std::uint64_t> completed_now_;  // reads whose data returned this tick
  bool busy_ = false;  ///< some channel has per-cycle work (channels_busy())
  DramStats stats_;
};

}  // namespace smd::mem
