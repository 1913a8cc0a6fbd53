#include "src/analysis/check_stream.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <variant>

namespace smd::analysis {
namespace {

using sim::KernelOp;
using sim::LoadOp;
using sim::StoreOp;
using sim::StreamId;
using sim::StreamProgram;

std::string slot_str(StreamId s) { return "s" + std::to_string(s); }

const char* mem_op_verb(mem::MemOpKind kind) {
  switch (kind) {
    case mem::MemOpKind::kLoadStrided: return "load";
    case mem::MemOpKind::kLoadGather: return "gather";
    case mem::MemOpKind::kStoreStrided: return "store";
    case mem::MemOpKind::kStoreScatter: return "scatter";
    case mem::MemOpKind::kScatterAdd: return "scatter-add";
  }
  return "mem";
}

bool is_indexed(mem::MemOpKind kind) {
  return kind == mem::MemOpKind::kLoadGather ||
         kind == mem::MemOpKind::kStoreScatter ||
         kind == mem::MemOpKind::kScatterAdd;
}

/// First overlapping word address of two footprints, if any.
std::optional<std::uint64_t> first_overlap(const Footprint& a,
                                           const Footprint& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::uint64_t lo = std::max(a[i].first, b[j].first);
    const std::uint64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) return lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return std::nullopt;
}

/// Guaranteed (unconditional) SRF words a kernel moves per bound slot.
/// Conditional accesses contribute zero: they may never fire, so only the
/// unconditional traffic gives a capacity lower bound.
struct SlotTraffic {
  std::int64_t read_words = 0;
  std::int64_t write_words = 0;
  /// Whether any access (conditional included) can execute at all --
  /// prologue accesses always run, the other sections only when rounds > 0.
  bool may_access = false;
};

std::vector<SlotTraffic> kernel_guaranteed_traffic(const kernel::KernelDef& def,
                                                   std::int64_t rounds,
                                                   int n_clusters) {
  std::vector<SlotTraffic> traffic(def.streams.size());
  auto accumulate = [&](const std::vector<kernel::Instr>& instrs,
                        std::int64_t repeat) {
    for (const auto& in : instrs) {
      if (in.stream < 0 || in.stream >= static_cast<int>(def.streams.size())) {
        continue;  // the IR verifier reports this
      }
      auto& t = traffic[static_cast<std::size_t>(in.stream)];
      if (repeat > 0) t.may_access = true;
      const std::int64_t words = static_cast<std::int64_t>(in.count) * repeat;
      switch (in.op) {
        case kernel::Opcode::kRead:
          t.read_words += words * n_clusters;
          break;
        case kernel::Opcode::kReadBcast:
          // One fetch fanned out through the inter-cluster switch.
          t.read_words += words;
          break;
        case kernel::Opcode::kWrite:
          t.write_words += words * n_clusters;
          break;
        case kernel::Opcode::kReadCond:
        case kernel::Opcode::kWriteCond:
        default:
          break;
      }
    }
  };
  accumulate(def.prologue, 1);
  if (rounds > 0) {
    accumulate(def.outer_pre, rounds);
    accumulate(def.body, rounds * def.block_len);
    accumulate(def.outer_post, rounds);
  }
  return traffic;
}

class StreamChecker {
 public:
  StreamChecker(const StreamProgram& program, const StreamCheckOptions& opts)
      : program_(program), opts_(opts) {}

  Diagnostics run() {
    declarations();
    const int n = static_cast<int>(program_.instrs.size());
    slots_.resize(program_.stream_words.size());
    st_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) check_instr(i);
    races();
    return std::move(out_);
  }

 private:
  Location at(int index) const { return {opts_.program_name, "program", index}; }

  bool slot_ok(StreamId s) const {
    return s >= 0 && s < static_cast<int>(program_.stream_words.size());
  }

  std::int64_t capacity(StreamId s) const {
    return program_.stream_words[static_cast<std::size_t>(s)];
  }

  void declarations() {
    for (std::size_t s = 0; s < program_.stream_words.size(); ++s) {
      const std::int64_t words = program_.stream_words[s];
      if (words < 0) {
        out_.error("SP001", {opts_.program_name, "program", -1},
                   "stream " + slot_str(static_cast<StreamId>(s)) +
                       " declared with negative capacity " +
                       std::to_string(words));
      } else if (opts_.srf_words > 0 && words > opts_.srf_words) {
        out_.error("SP015", {opts_.program_name, "program", -1},
                   "stream " + slot_str(static_cast<StreamId>(s)) +
                       " declares " + std::to_string(words) +
                       " words, more than the whole SRF (" +
                       std::to_string(opts_.srf_words) +
                       " words); it can never be allocated");
      }
    }
  }

  // ---- Per-slot lifetime (program order). --------------------------------
  struct SlotState {
    bool produced = false;
    bool read_since_produce = false;
    // Dependence tracking, as the controller builds its edges.
    int producer = -1;
    std::vector<int> consumers;
  };

  /// `touches`: whether the consumer is guaranteed to access the slot at
  /// all (a zero-round kernel or empty store never reads, so an absent
  /// producer is harmless for it).
  void consume(StreamId s, int i, bool touches) {
    auto& ss = slots_[static_cast<std::size_t>(s)];
    if (!ss.produced && touches) {
      out_.error("SP002", at(i),
                 "read of stream " + slot_str(s) +
                     " with no prior producing load or kernel");
    }
    ss.read_since_produce = true;
  }

  void produce(StreamId s, int i) {
    auto& ss = slots_[static_cast<std::size_t>(s)];
    if (ss.produced && !ss.read_since_produce) {
      out_.warn("SP003", at(i),
                "stream " + slot_str(s) +
                    " is overwritten before its previous value was read");
    }
    if (ss.produced) {
      out_.note("SP004", at(i),
                "stream " + slot_str(s) +
                    " is produced again; the controller serializes the reuse "
                    "on WAW/WAR dependences (a second buffer would overlap)");
    }
    ss.produced = true;
    ss.read_since_produce = false;
  }

  // ---- Per-instruction structure + dependence bookkeeping. ---------------
  struct InstrState {
    std::vector<int> deps;
    std::vector<StreamId> produces;
    std::vector<StreamId> consumes;
    std::vector<char> consume_touches;  ///< aligned with `consumes`
    bool is_mem = false;
    bool is_store = false;
    mem::MemOpKind kind = mem::MemOpKind::kLoadStrided;
    Footprint footprint;
    std::string label;
  };

  void check_desc(const mem::MemOpDesc& desc, int i, InstrState& is) {
    is.is_mem = true;
    is.is_store = mem::is_store(desc.kind);
    is.kind = desc.kind;
    is.label = mem_op_verb(desc.kind);
    if (is_indexed(desc.kind) &&
        static_cast<std::int64_t>(desc.indices.size()) != desc.n_records) {
      out_.error("SP009", at(i),
                 is.label + " declares " + std::to_string(desc.n_records) +
                     " records but carries " +
                     std::to_string(desc.indices.size()) + " indices");
      return;  // the footprint would be wrong
    }
    is.footprint = memory_footprint(desc);
    if (opts_.memory_words > 0 && !is.footprint.empty()) {
      const std::uint64_t hi = is.footprint.back().second;
      if (hi > static_cast<std::uint64_t>(opts_.memory_words)) {
        out_.error("SP008", at(i),
                   is.label + " touches word address " + std::to_string(hi - 1) +
                       ", beyond the memory extent of " +
                       std::to_string(opts_.memory_words) + " words");
      }
    }
    if (desc.kind == mem::MemOpKind::kStoreScatter) {
      // Duplicate target records inside one plain scatter are a lost
      // update: unlike scatter-add, nothing combines the colliding writes.
      std::vector<std::uint64_t> sorted = desc.indices;
      std::sort(sorted.begin(), sorted.end());
      const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
      if (dup != sorted.end()) {
        out_.error(
            "SP010", at(i),
            "plain scatter targets record " + std::to_string(*dup) +
                " (word address " +
                std::to_string(desc.base +
                               *dup * static_cast<std::uint64_t>(
                                          desc.record_words)) +
                ") more than once; colliding stores are only combined by "
                "the scatter-add unit");
      }
    }
  }

  void check_instr(int i) {
    auto& is = st_[static_cast<std::size_t>(i)];
    const auto& instr = program_.instrs[static_cast<std::size_t>(i)];
    if (const auto* load = std::get_if<LoadOp>(&instr)) {
      check_desc(load->desc, i, is);
      if (!slot_ok(load->dst)) {
        out_.error("SP001", at(i),
                   "load destination stream " + slot_str(load->dst) +
                       " out of range (" +
                       std::to_string(program_.stream_words.size()) +
                       " streams declared)");
        return;
      }
      if (load->desc.total_words() > capacity(load->dst)) {
        out_.error("SP007", at(i),
                   is.label + " of " + std::to_string(load->desc.total_words()) +
                       " words into stream " + slot_str(load->dst) +
                       " declaring only " +
                       std::to_string(capacity(load->dst)) + " words");
      }
      is.produces.push_back(load->dst);
    } else if (const auto* store = std::get_if<StoreOp>(&instr)) {
      check_desc(store->desc, i, is);
      if (!slot_ok(store->src)) {
        out_.error("SP001", at(i),
                   "store source stream " + slot_str(store->src) +
                       " out of range (" +
                       std::to_string(program_.stream_words.size()) +
                       " streams declared)");
        return;
      }
      if (store->desc.total_words() > capacity(store->src)) {
        out_.error("SP007", at(i),
                   is.label + " of " + std::to_string(store->desc.total_words()) +
                       " words from stream " + slot_str(store->src) +
                       " declaring only " +
                       std::to_string(capacity(store->src)) + " words");
      }
      is.consumes.push_back(store->src);
      is.consume_touches.push_back(store->desc.total_words() > 0 ? 1 : 0);
    } else {
      check_kernel(std::get<KernelOp>(instr), i, is);
    }
    // Dependence edges exactly as the controller builds them.
    for (std::size_t c = 0; c < is.consumes.size(); ++c) {
      const StreamId s = is.consumes[c];
      consume(s, i, is.consume_touches[c] != 0);
      auto& sl = slots_[static_cast<std::size_t>(s)];
      if (sl.producer >= 0) is.deps.push_back(sl.producer);
      sl.consumers.push_back(i);
    }
    for (StreamId s : is.produces) {
      produce(s, i);
      auto& sl = slots_[static_cast<std::size_t>(s)];
      if (sl.producer >= 0) {
        is.deps.push_back(sl.producer);
        for (int c : sl.consumers) is.deps.push_back(c);
      }
      sl.producer = i;
      sl.consumers.clear();
    }
  }

  void check_kernel(const KernelOp& k, int i, InstrState& is) {
    if (k.def == nullptr) {
      out_.error("SP005", at(i), "kernel op with null kernel definition");
      return;
    }
    is.label = "kernel " + k.def->name;
    if (k.bindings.size() != k.def->streams.size()) {
      out_.error("SP005", at(i),
                 "kernel '" + k.def->name + "' declares " +
                     std::to_string(k.def->streams.size()) +
                     " streams but is bound to " +
                     std::to_string(k.bindings.size()));
      return;
    }
    if (k.rounds < 0) {
      out_.error("SP006", at(i),
                 "kernel '" + k.def->name + "' invoked with negative rounds " +
                     std::to_string(k.rounds));
    } else if (k.rounds == 0) {
      out_.warn("SP006", at(i),
                "kernel '" + k.def->name +
                    "' invoked with zero rounds (prologue only, no body "
                    "iterations)");
    }
    const auto traffic = kernel_guaranteed_traffic(
        *k.def, std::max<std::int64_t>(k.rounds, 0), opts_.n_clusters);
    for (std::size_t s = 0; s < k.bindings.size(); ++s) {
      const StreamId b = k.bindings[s];
      const auto& decl = k.def->streams[s];
      if (!slot_ok(b)) {
        out_.error("SP001", at(i),
                   "kernel '" + k.def->name + "' stream '" + decl.name +
                       "' bound to stream " + slot_str(b) + " out of range (" +
                       std::to_string(program_.stream_words.size()) +
                       " streams declared)");
        continue;
      }
      const auto& t = traffic[s];
      if (decl.dir == kernel::StreamDir::kIn) {
        is.consumes.push_back(b);
        is.consume_touches.push_back(t.may_access ? 1 : 0);
        if (t.read_words > capacity(b)) {
          out_.error("SP007", at(i),
                     "kernel '" + k.def->name + "' is guaranteed to read " +
                         std::to_string(t.read_words) + " words from '" +
                         decl.name + "' (stream " + slot_str(b) +
                         ") declaring only " + std::to_string(capacity(b)) +
                         " words; the stream would be exhausted");
        }
      } else {
        is.produces.push_back(b);
        if (t.write_words > capacity(b)) {
          out_.error("SP007", at(i),
                     "kernel '" + k.def->name + "' is guaranteed to write " +
                         std::to_string(t.write_words) + " words to '" +
                         decl.name + "' (stream " + slot_str(b) +
                         ") declaring only " + std::to_string(capacity(b)) +
                         " words; the SRF allocation would overflow");
        }
      }
    }
  }

  // ---- Concurrency races over unordered memory-op pairs. -----------------
  void races() {
    const auto n = st_.size();
    if (n == 0) return;
    // ancestors[i] = every instruction ordered before i. Dependence edges
    // always point backwards in program order, so one forward pass closes
    // the relation transitively.
    const std::size_t words = (n + 63) / 64;
    std::vector<std::vector<std::uint64_t>> anc(
        n, std::vector<std::uint64_t>(words, 0));
    auto set_bit = [](std::vector<std::uint64_t>& bits, std::size_t b) {
      bits[b / 64] |= std::uint64_t{1} << (b % 64);
    };
    auto test_bit = [](const std::vector<std::uint64_t>& bits, std::size_t b) {
      return (bits[b / 64] >> (b % 64)) & 1;
    };
    for (std::size_t i = 0; i < n; ++i) {
      for (int d : st_[i].deps) {
        const auto di = static_cast<std::size_t>(d);
        set_bit(anc[i], di);
        for (std::size_t w = 0; w < words; ++w) anc[i][w] |= anc[di][w];
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      if (!st_[i].is_mem) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!st_[j].is_mem) continue;
        if (!st_[i].is_store && !st_[j].is_store) continue;
        if (test_bit(anc[j], i)) continue;  // ordered: i happens-before j
        const bool both_stores = st_[i].is_store && st_[j].is_store;
        if (both_stores && st_[i].kind == mem::MemOpKind::kScatterAdd &&
            st_[j].kind == mem::MemOpKind::kScatterAdd) {
          continue;  // the scatter-add unit combines colliding updates
        }
        const auto hit = first_overlap(st_[i].footprint, st_[j].footprint);
        if (!hit) continue;
        const std::string pair = st_[i].label + " (op " + std::to_string(i) +
                                 ") and " + st_[j].label + " (op " +
                                 std::to_string(j) + ")";
        if (both_stores) {
          out_.error("SP011", at(static_cast<int>(j)),
                     "potentially concurrent " + pair +
                         " both write word address " + std::to_string(*hit) +
                         " outside the scatter-add combining guarantee");
        } else {
          out_.error("SP012", at(static_cast<int>(j)),
                     "potentially concurrent " + pair +
                         " read and write word address " +
                         std::to_string(*hit) + " with no dependence between "
                         "them");
        }
      }
    }
  }

  const StreamProgram& program_;
  const StreamCheckOptions& opts_;
  std::vector<SlotState> slots_;
  std::vector<InstrState> st_;
  Diagnostics out_;
};

}  // namespace

Footprint memory_footprint(const mem::MemOpDesc& desc) {
  Footprint fp;
  if (desc.n_records <= 0 || desc.record_words <= 0) return fp;
  const auto rw = static_cast<std::uint64_t>(desc.record_words);
  const auto n = static_cast<std::uint64_t>(desc.n_records);
  const auto stride = static_cast<std::uint64_t>(
      desc.stride_words == 0 ? desc.record_words : desc.stride_words);
  if (!is_indexed(desc.kind)) {
    // When no record end passes 2^64 the record starts ascend and come
    // out in order: no intervals to materialise and sort.
    const std::uint64_t room = ~std::uint64_t{0} - desc.base;
    if (rw <= room && n - 1 <= (room - rw) / stride) {
      if (stride <= rw) {
        // Each record starts at or before the previous one's end.
        fp.emplace_back(desc.base, desc.base + (n - 1) * stride + rw);
        return fp;
      }
      fp.reserve(n);
      for (std::uint64_t r = 0; r < n; ++r) {
        const std::uint64_t lo = desc.base + r * stride;
        fp.emplace_back(lo, lo + rw);
      }
      return fp;
    }
  }
  // Indexed ops, and strided ops whose addresses wrap (a negative stride
  // is a huge unsigned one): sort the record starts and merge as they come.
  std::vector<std::uint64_t> starts;
  starts.reserve(n);
  if (is_indexed(desc.kind)) {
    for (const std::uint64_t idx : desc.indices) {
      starts.push_back(desc.base + idx * rw);
    }
  } else {
    for (std::uint64_t r = 0; r < n; ++r) {
      starts.push_back(desc.base + r * stride);
    }
  }
  std::sort(starts.begin(), starts.end());
  for (const std::uint64_t lo : starts) {
    if (!fp.empty() && lo <= fp.back().second) {
      fp.back().second = std::max(fp.back().second, lo + rw);
    } else {
      fp.emplace_back(lo, lo + rw);
    }
  }
  return fp;
}

Diagnostics check_stream_program(const StreamProgram& program,
                                 const StreamCheckOptions& opts) {
  return StreamChecker(program, opts).run();
}

void require_valid_stream_program(const StreamProgram& program,
                                  const StreamCheckOptions& opts) {
  Diagnostics d = check_stream_program(program, opts);
  d.count_into_registry("analysis.stream");
  if (d.errors() > 0) throw CheckFailure(std::move(d));
}

Diagnostics check_scatter_assignment(const ScatterAssignment& a) {
  Diagnostics out;
  for (std::size_t b = 0; b < a.block_rows.size(); ++b) {
    const auto& lanes = a.block_rows[b];
    std::map<std::int64_t, int> first_lane;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const std::int64_t row = lanes[l];
      const Location loc{a.name, "block", static_cast<int>(b)};
      if (row < 0 || row >= a.n_rows) {
        out.error("SP016", loc,
                  "lane " + std::to_string(l) + " targets row " +
                      std::to_string(row) + ", outside the force array of " +
                      std::to_string(a.n_rows) + " rows");
        continue;
      }
      if (row == a.trash_row) continue;  // designated padding sink
      auto [it, inserted] = first_lane.try_emplace(row, static_cast<int>(l));
      if (inserted) continue;
      const std::string pair =
          "block " + std::to_string(b) + ": lanes " +
          std::to_string(it->second) + " and " + std::to_string(l) +
          " both update central-force row " + std::to_string(row) +
          " (word address " +
          std::to_string(a.base + static_cast<std::uint64_t>(row) *
                                      static_cast<std::uint64_t>(
                                          a.record_words)) +
          ")";
      if (a.combining) {
        out.note("SP014", loc,
                 pair + "; legal only because the writeback combines through "
                        "the scatter-add unit");
      } else {
        out.error("SP013", loc,
                  pair + " without the scatter-add combining guarantee; "
                         "in-flight updates can lose one contribution");
      }
    }
  }
  return out;
}

}  // namespace smd::analysis
