#include "src/mem/dram.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace smd::mem {

namespace {

std::uint64_t positive(int v, const char* what) {
  if (v <= 0) throw std::invalid_argument(std::string("dram: ") + what +
                                          " must be positive");
  return static_cast<std::uint64_t>(v);
}

}  // namespace

Dram::Dram(const DramConfig& cfg, int line_words)
    : cfg_(cfg), line_words_(line_words),
      line_div_(positive(line_words, "line_words")),
      channel_div_(positive(cfg.n_channels, "n_channels")),
      credit_cap_(4.0 * static_cast<double>(line_words)),
      awake_(static_cast<std::size_t>(cfg.n_channels)),
      completions_(cfg.n_channels * (std::max(cfg.access_latency, 0) + 1)) {
  channels_.reserve(static_cast<std::size_t>(cfg.n_channels));
  for (int c = 0; c < cfg.n_channels; ++c) {
    channels_.emplace_back(cfg.read_queue_depth);
  }
  finished_now_.reserve(channels_.size());
  completed_now_.reserve(channels_.size());
}

void Dram::wake(std::size_t c) {
  Channel& ch = channels_[c];
  if (ch.has_work()) return;  // already ticking
  // Replay the idle cycles since the channel went quiet: each adds a
  // cycle's credit and clamps at the cap, where it then stays.
  for (std::uint64_t t = ch.synced; t < now_; ++t) {
    ch.credit += cfg_.channel_words_per_cycle;
    if (ch.credit > credit_cap_) {
      ch.credit = credit_cap_;
      break;
    }
  }
  awake_.insert(c);
  busy_ = true;
}

bool Dram::try_read_line(std::uint64_t line_addr) {
  const std::size_t c = channel_of_line(line_addr);
  Channel& ch = channels_[c];
  if (ch.read_queue.full()) return false;
  wake(c);
  ch.read_queue.push_back(line_addr);
  return true;
}

bool Dram::can_accept_read(std::uint64_t line_addr) const {
  return !channels_[channel_of_line(line_addr)].read_queue.full();
}

bool Dram::try_write_words(std::uint64_t addr, int n) {
  const std::size_t c = channel_of_line(line_div_.div(addr));
  Channel& ch = channels_[c];
  if (ch.pending_write_words + n > cfg_.write_buffer_words) return false;
  if (n > 0) wake(c);
  ch.pending_write_words += n;
  stats_.write_words += n;
  return true;
}

void Dram::tick_channels() {
  bool any_busy = false;
  bool still_busy = false;
  finished_now_.clear();
  awake_.for_each([&](std::size_t c) {
    Channel& ch = channels_[c];
    ch.credit += cfg_.channel_words_per_cycle;

    // Start servicing the next read when idle.
    if (!ch.in_service && !ch.read_queue.empty()) {
      ch.serving_line = ch.read_queue.front();
      ch.read_queue.pop_front();
      ch.in_service = true;
      double cost = static_cast<double>(line_words_);
      const std::uint64_t row =
          ch.serving_line * static_cast<std::uint64_t>(line_words_) /
          static_cast<std::uint64_t>(cfg_.row_words);
      if (row != ch.last_row) {
        cost += cfg_.row_miss_penalty_words;
        ++stats_.row_misses;
        ch.last_row = row;
      }
      ch.read_cost_left = cost;
    }

    if (ch.in_service) {
      any_busy = true;
      const double spend = ch.credit < ch.read_cost_left ? ch.credit : ch.read_cost_left;
      ch.credit -= spend;
      ch.read_cost_left -= spend;
      if (ch.read_cost_left <= 1e-12) {
        ch.in_service = false;
        finished_now_.push_back(ch.serving_line);
        ++stats_.read_lines;
        stats_.read_words += line_words_;
      }
    } else if (ch.pending_write_words > 0.0) {
      // Drain posted writes with spare bandwidth.
      any_busy = true;
      const double spend = ch.credit < ch.pending_write_words
                               ? ch.credit
                               : ch.pending_write_words;
      ch.credit -= spend;
      ch.pending_write_words -= spend;
      if (ch.pending_write_words < 1e-9) ch.pending_write_words = 0.0;
    }

    // Don't bank unbounded credit while idle.
    if (ch.credit > credit_cap_) ch.credit = credit_cap_;
    if (ch.has_work()) {
      still_busy = true;
    } else {
      awake_.erase(c);
      ch.synced = now_;
    }
  });
  if (any_busy) ++stats_.busy_cycles;
  busy_ = still_busy;

  // Same-cycle completions pop in ascending line order.
  std::sort(finished_now_.begin(), finished_now_.end());
  const std::uint64_t done_at =
      now_ + static_cast<std::uint64_t>(cfg_.access_latency);
  for (const std::uint64_t line : finished_now_) {
    completions_.push_back({done_at, line});
  }
}

void Dram::pop_completions() {
  while (!completions_.empty() && completions_.front().first <= now_) {
    completed_now_.push_back(completions_.front().second);
    completions_.pop_front();
  }
}

bool Dram::writes_drained() const {
  for (const auto& ch : channels_) {
    if (ch.pending_write_words > 0) return false;
  }
  return true;
}

bool Dram::idle() const { return completions_.empty() && !busy_; }

}  // namespace smd::mem
