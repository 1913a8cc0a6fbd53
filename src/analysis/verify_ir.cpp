#include "src/analysis/verify_ir.h"

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/kernel/cost.h"

namespace smd::analysis {
namespace {

using kernel::Instr;
using kernel::KernelDef;
using kernel::Opcode;
using kernel::StreamDecl;
using kernel::StreamDir;

bool is_stream_access(Opcode op) {
  return op == Opcode::kRead || op == Opcode::kReadCond ||
         op == Opcode::kReadBcast || op == Opcode::kWrite ||
         op == Opcode::kWriteCond;
}

bool is_read_access(Opcode op) {
  return op == Opcode::kRead || op == Opcode::kReadCond ||
         op == Opcode::kReadBcast;
}

bool is_conditional_access(Opcode op) {
  return op == Opcode::kReadCond || op == Opcode::kWriteCond;
}

/// Registers an instruction reads. Conditional-read destinations are
/// returned separately: the untaken path preserves the old value, so they
/// are merge-style uses, exempt from the maybe-uninitialized lint.
struct InstrUses {
  std::vector<int> srcs;        ///< plain source registers
  std::vector<int> merge_srcs;  ///< destination-also-source merges
  int pred = -1;                ///< predicate of a conditional access
};

InstrUses instr_uses(const Instr& in) {
  InstrUses u;
  switch (in.op) {
    case Opcode::kConst:
    case Opcode::kRead:
    case Opcode::kReadBcast:
      break;
    case Opcode::kMov:
    case Opcode::kSqrt:
    case Opcode::kRsqrt:
      u.srcs = {in.a};
      break;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kCmpEq:
    case Opcode::kCmpLt:
      u.srcs = {in.a, in.b};
      break;
    case Opcode::kMadd:
    case Opcode::kMsub:
    case Opcode::kSel:
      u.srcs = {in.a, in.b, in.c};
      break;
    case Opcode::kReadCond:
      u.pred = in.c;
      for (int w = 0; w < in.count; ++w) u.merge_srcs.push_back(in.dst + w);
      break;
    case Opcode::kWrite:
      for (int w = 0; w < in.count; ++w) u.srcs.push_back(in.a + w);
      break;
    case Opcode::kWriteCond:
      u.pred = in.c;
      for (int w = 0; w < in.count; ++w) u.srcs.push_back(in.a + w);
      break;
  }
  // A source that is also the destination is a deliberate loop-carried
  // merge (sel-accumulate, conditional-read merge): exempt from IR004.
  if (in.op != Opcode::kWrite && in.op != Opcode::kWriteCond) {
    auto it = std::remove_if(u.srcs.begin(), u.srcs.end(), [&](int r) {
      if (r != in.dst) return false;
      u.merge_srcs.push_back(r);
      return true;
    });
    u.srcs.erase(it, u.srcs.end());
  }
  return u;
}

std::vector<int> instr_defs(const Instr& in) {
  std::vector<int> d;
  switch (in.op) {
    case Opcode::kRead:
    case Opcode::kReadCond:
    case Opcode::kReadBcast:
      for (int w = 0; w < in.count; ++w) d.push_back(in.dst + w);
      break;
    case Opcode::kWrite:
    case Opcode::kWriteCond:
      break;
    default:
      if (in.dst >= 0) d.push_back(in.dst);
  }
  return d;
}

struct SectionRef {
  kernel::Section id;
  const std::vector<Instr>* instrs;
};

std::array<SectionRef, 4> sections_of(const KernelDef& def) {
  return {{{kernel::Section::kPrologue, &def.prologue},
           {kernel::Section::kOuterPre, &def.outer_pre},
           {kernel::Section::kBody, &def.body},
           {kernel::Section::kOuterPost, &def.outer_post}}};
}

class Verifier {
 public:
  Verifier(const KernelDef& def, const VerifyOptions& opts)
      : def_(def), opts_(opts) {}

  Diagnostics run() {
    structural();
    if (def_.block_len < 1) {
      out_.error("IR014", {def_.name, "", -1},
                 "block_len " + std::to_string(def_.block_len) + " < 1");
    }
    dataflow();
    stream_usage();
    semantic();
    pressure_note();
    return std::move(out_);
  }

 private:
  Location at(kernel::Section s, int idx) const {
    return {def_.name, section_name(s), idx};
  }

  bool reg_ok(int r) const { return r >= 0 && r < def_.n_regs; }

  void check_reg(int r, const char* what, kernel::Section s, int idx,
                 bool& ok) {
    if (reg_ok(r)) return;
    out_.error("IR001", at(s, idx),
               std::string("register ") + std::to_string(r) + " (" + what +
                   ") out of range [0, " + std::to_string(def_.n_regs) + ")");
    ok = false;
  }

  /// Bounds and per-opcode shape checks; records which instructions are
  /// well-formed enough for the dataflow passes.
  void structural() {
    for (const auto& [sec, instrs] : sections_of(def_)) {
      auto& valid = valid_[sec];
      valid.assign(instrs->size(), 1);
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        const Instr& in = (*instrs)[i];
        const int idx = static_cast<int>(i);
        bool ok = true;
        if (is_stream_access(in.op)) {
          if (in.stream < 0 ||
              in.stream >= static_cast<int>(def_.streams.size())) {
            out_.error("IR002", at(sec, idx),
                       std::string(opcode_name(in.op)) + " of stream slot " +
                           std::to_string(in.stream) + " (kernel declares " +
                           std::to_string(def_.streams.size()) + ")");
            ok = false;
          }
          if (in.count <= 0) {
            out_.error("IR011", at(sec, idx),
                       std::string(opcode_name(in.op)) + " with count " +
                           std::to_string(in.count));
            ok = false;
          }
          if (ok) {
            const int base = is_read_access(in.op) ? in.dst : in.a;
            check_reg(base, "stream access base", sec, idx, ok);
            check_reg(base + in.count - 1, "stream access end", sec, idx, ok);
            if (is_conditional_access(in.op)) {
              check_reg(in.c, "predicate", sec, idx, ok);
            }
          }
          valid[i] = ok ? 1 : 0;
          continue;
        }
        const InstrUses u = instr_uses(in);
        for (int r : u.srcs) check_reg(r, "source", sec, idx, ok);
        check_reg(in.dst, "destination", sec, idx, ok);
        valid[i] = ok ? 1 : 0;
      }
    }
  }

  /// Def-before-use (IR003/IR004/IR009) and dead writes (IR012), walking
  /// prologue -> outer_pre -> body -> outer_post: the first-iteration
  /// execution order, which is the conservative one.
  void dataflow() {
    if (def_.n_regs <= 0) return;
    const auto n = static_cast<std::size_t>(def_.n_regs);
    std::vector<bool> defined_anywhere(n, false);
    std::vector<bool> used_anywhere(n, false);
    std::vector<char> const_def(n, 0);  ///< reg only ever defined by kConst
    for (const auto& [sec, instrs] : sections_of(def_)) {
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        if (!valid_[sec][i]) continue;
        const Instr& in = (*instrs)[i];
        const InstrUses u = instr_uses(in);
        for (int r : u.srcs) used_anywhere[static_cast<std::size_t>(r)] = true;
        for (int r : u.merge_srcs) used_anywhere[static_cast<std::size_t>(r)] = true;
        if (u.pred >= 0) used_anywhere[static_cast<std::size_t>(u.pred)] = true;
        for (int r : instr_defs(in)) {
          const auto ri = static_cast<std::size_t>(r);
          const_def[ri] = defined_anywhere[ri]
                              ? static_cast<char>(0)
                              : static_cast<char>(in.op == Opcode::kConst);
          defined_anywhere[ri] = true;
        }
      }
    }

    std::vector<bool> defined(n, false);
    std::vector<bool> reported(n, false);  // one finding per register
    for (const auto& [sec, instrs] : sections_of(def_)) {
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        if (!valid_[sec][i]) continue;
        const Instr& in = (*instrs)[i];
        const InstrUses u = instr_uses(in);
        const int idx = static_cast<int>(i);
        auto check_use = [&](int r, bool merge) {
          const auto ri = static_cast<std::size_t>(r);
          if (defined[ri] || reported[ri]) return;
          if (!defined_anywhere[ri]) {
            out_.error("IR003", at(sec, idx),
                       "register " + std::to_string(r) +
                           " is read but never defined");
            reported[ri] = true;
          } else if (!merge) {
            out_.warn("IR004", at(sec, idx),
                      "register " + std::to_string(r) +
                          " may be read before its first definition on the "
                          "first iteration");
            reported[ri] = true;
          }
        };
        if (u.pred >= 0) {
          const auto pi = static_cast<std::size_t>(u.pred);
          if (!defined[pi] && !reported[pi]) {
            out_.error("IR009", at(sec, idx),
                       std::string(opcode_name(in.op)) +
                           " predicate register " + std::to_string(u.pred) +
                           " is not defined before the conditional access; "
                           "every cluster must evaluate the predicate");
            reported[pi] = true;
          }
        }
        for (int r : u.srcs) check_use(r, /*merge=*/false);
        for (int r : u.merge_srcs) check_use(r, /*merge=*/true);
        for (int r : instr_defs(in)) defined[static_cast<std::size_t>(r)] = true;
      }
    }

    // Dead writes: a defined register whose value no instruction reads.
    std::vector<bool> flagged(n, false);
    for (const auto& [sec, instrs] : sections_of(def_)) {
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        if (!valid_[sec][i]) continue;
        const Instr& in = (*instrs)[i];
        for (int r : instr_defs(in)) {
          const auto ri = static_cast<std::size_t>(r);
          if (used_anywhere[ri] || flagged[ri]) continue;
          flagged[ri] = true;
          const std::string msg = "register " + std::to_string(r) +
                                  " is written but its value is never read";
          if (const_def[ri]) {
            out_.note("IR012", at(sec, static_cast<int>(i)),
                      msg + " (preloaded constant)");
          } else {
            out_.warn("IR012", at(sec, static_cast<int>(i)), msg);
          }
        }
      }
    }
  }

  /// Stream-declaration conformance: direction, record width, conditional
  /// flag, broadcast multiplicity, unused declarations.
  void stream_usage() {
    std::vector<int> accesses(def_.streams.size(), 0);
    std::vector<int> body_bcasts(def_.streams.size(), 0);
    for (const auto& [sec, instrs] : sections_of(def_)) {
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        const Instr& in = (*instrs)[i];
        if (!is_stream_access(in.op)) continue;
        if (in.stream < 0 ||
            in.stream >= static_cast<int>(def_.streams.size())) {
          continue;  // IR002 already reported
        }
        const int idx = static_cast<int>(i);
        const auto& decl = def_.streams[static_cast<std::size_t>(in.stream)];
        ++accesses[static_cast<std::size_t>(in.stream)];
        const bool is_read = is_read_access(in.op);
        if (is_read && decl.dir != StreamDir::kIn) {
          out_.error("IR005", at(sec, idx),
                     std::string(opcode_name(in.op)) + " of output stream '" +
                         decl.name + "'");
        }
        if (!is_read && decl.dir != StreamDir::kOut) {
          out_.error("IR005", at(sec, idx),
                     std::string(opcode_name(in.op)) + " of input stream '" +
                         decl.name + "'");
        }
        if (in.count > 0 && in.count != decl.record_words) {
          out_.error("IR006", at(sec, idx),
                     std::string(opcode_name(in.op)) + " of " +
                         std::to_string(in.count) + " words from stream '" +
                         decl.name + "' declaring record_words=" +
                         std::to_string(decl.record_words));
        }
        if (is_conditional_access(in.op) && !decl.conditional) {
          out_.error("IR007", at(sec, idx),
                     std::string(opcode_name(in.op)) + " of stream '" +
                         decl.name +
                         "' which is not declared conditional; the "
                         "inter-cluster switch cannot compact it");
        }
        if (!is_conditional_access(in.op) && decl.conditional) {
          out_.error("IR008", at(sec, idx),
                     std::string(opcode_name(in.op)) + " of stream '" +
                         decl.name +
                         "' which is declared conditional; only "
                         "conditional accesses keep the clusters in step");
        }
        if (in.op == Opcode::kReadBcast && sec == kernel::Section::kBody) {
          if (++body_bcasts[static_cast<std::size_t>(in.stream)] == 2) {
            out_.error("IR010", at(sec, idx),
                       "multiple broadcast reads of stream '" + decl.name +
                           "' in the body (the shared cursor advances once "
                           "per iteration)");
          }
        }
      }
    }
    for (std::size_t s = 0; s < def_.streams.size(); ++s) {
      if (accesses[s] == 0) {
        out_.warn("IR013", {def_.name, "", -1},
                  "stream '" + def_.streams[s].name + "' (slot " +
                      std::to_string(s) + ") is declared but never accessed");
      }
    }
  }

  /// IR016: the per-kernel LRF pressure report. The exact peak is known
  /// only when the dataflow pass ran (semantic()).
  void pressure_note() {
    if (!opts_.report_pressure) return;
    std::string msg = "LRF pressure: ";
    if (exact_pressure_ >= 0) {
      msg += "peak " + std::to_string(exact_pressure_) +
             " simultaneously-live registers (exact liveness), ";
    }
    out_.note("IR016", {def_.name, "", -1},
              msg + std::to_string(def_.n_regs) + " allocated, capacity " +
                  std::to_string(opts_.lrf_words) + " words");
  }

  /// Dataflow-backed precision checks IR017-IR024 (see dataflow.h). Only
  /// runs when every earlier pass is error-free: the engine indexes
  /// registers and sections directly, so it needs a structurally valid
  /// kernel, and semantic refinements are pointless on broken IR anyway.
  void semantic() {
    if (!opts_.dataflow) return;
    if (out_.errors() > 0 || def_.n_regs <= 0 || def_.block_len < 1) return;
    const KernelDataflow dfa(def_);
    const auto n = static_cast<std::size_t>(def_.n_regs);

    // Registers read by at least one instruction: IR017 restricts itself
    // to these, because a register never read anywhere is already IR012.
    std::vector<bool> used_anywhere(n, false);
    for (const auto& [sec, instrs] : sections_of(def_)) {
      for (const Instr& in : *instrs) {
        const InstrUses u = instr_uses(in);
        for (int r : u.srcs) used_anywhere[static_cast<std::size_t>(r)] = true;
        for (int r : u.merge_srcs) {
          used_anywhere[static_cast<std::size_t>(r)] = true;
        }
        if (u.pred >= 0) used_anywhere[static_cast<std::size_t>(u.pred)] = true;
      }
    }

    for (const auto& [sec, instrs] : sections_of(def_)) {
      ConstEnv env = dfa.const_env_at_entry(sec);
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        const Instr& in = (*instrs)[i];
        const int idx = static_cast<int>(i);
        const InstrEffects fx = instr_effects(in);
        const Bitset& live = dfa.live_after(sec, idx);

        if (!fx.stream && in.dst >= 0 && !live.test(in.dst) &&
            used_anywhere[static_cast<std::size_t>(in.dst)]) {
          const std::string msg =
              std::string(opcode_name(in.op)) + " into register " +
              std::to_string(in.dst) +
              " is dead: the value is overwritten before any use";
          if (in.op == Opcode::kConst) {
            out_.note("IR017", at(sec, idx), msg + " (preloaded constant)");
          } else {
            out_.warn("IR017", at(sec, idx), msg);
          }
        }

        if (in.op == Opcode::kRead || in.op == Opcode::kReadCond ||
            in.op == Opcode::kReadBcast) {
          bool any_live = false;
          for (int w = 0; w < in.count; ++w) {
            any_live = any_live || live.test(in.dst + w);
          }
          if (!any_live) {
            out_.warn("IR021", at(sec, idx),
                      std::string(opcode_name(in.op)) + " of " +
                          std::to_string(in.count) + " words from stream '" +
                          def_.streams[static_cast<std::size_t>(in.stream)]
                              .name +
                          "' whose destination words are never used "
                          "(removable only together with the whole stream: "
                          "dropping a single read desyncs the SRF cursor)");
          }
        }

        if (!fx.stream && kernel::op_cost(in.op).fpu_slots > 0) {
          bool all_const = true;
          for (int r : fx.uses) {
            all_const = all_const && env[static_cast<std::size_t>(r)].has_value();
          }
          if (all_const) {
            const std::string msg =
                std::string(opcode_name(in.op)) + " into register " +
                std::to_string(in.dst) +
                " has provably constant operands: foldable to a preloaded "
                "constant";
            if (sec == kernel::Section::kPrologue) {
              out_.note("IR019", at(sec, idx),
                        msg + " (prologue: cost paid once per launch)");
            } else {
              out_.warn("IR019", at(sec, idx), msg);
            }
          }
        }

        if (in.op == Opcode::kMov) {
          DefSite site;
          if (dfa.unique_reaching_def(sec, idx, in.a, &site) &&
              site.instr >= 0 &&
              section_instrs(def_, site.sec)[static_cast<std::size_t>(
                  site.instr)].op == Opcode::kMov) {
            out_.note("IR020", at(sec, idx),
                      "copy chain: register " + std::to_string(in.a) +
                          "'s unique reaching definition (" +
                          section_name(site.sec) + "[" +
                          std::to_string(site.instr) +
                          "]) is itself a mov; the copy source could be "
                          "forwarded");
          }
        }

        if (in.op == Opcode::kReadCond && in.c >= in.dst &&
            in.c < in.dst + in.count) {
          out_.warn("IR023", at(sec, idx),
                    "self-overwriting conditional read: predicate register " +
                        std::to_string(in.c) +
                        " lies inside the destination range [" +
                        std::to_string(in.dst) + ", " +
                        std::to_string(in.dst + in.count) +
                        "); a taken access clobbers its own predicate");
        }

        if ((in.op == Opcode::kReadCond || in.op == Opcode::kWriteCond) &&
            env[static_cast<std::size_t>(in.c)].has_value()) {
          const double p = *env[static_cast<std::size_t>(in.c)];
          out_.warn("IR024", at(sec, idx),
                    std::string(opcode_name(in.op)) +
                        " predicate register " + std::to_string(in.c) +
                        " is provably the constant " + std::to_string(p) +
                        ": the access is " +
                        (p != 0.0 ? "always" : "never") +
                        " taken and need not be conditional");
        }

        apply_const_transfer(in, env);
      }
    }

    for (const Redundancy& r : dfa.redundancies()) {
      const Instr& in =
          section_instrs(def_, r.sec)[static_cast<std::size_t>(r.instr)];
      const std::string msg =
          std::string(opcode_name(in.op)) + " into register " +
          std::to_string(in.dst) + " recomputes the value of " +
          section_name(r.sec) + "[" + std::to_string(r.prior) +
          "], still available in register " + std::to_string(r.holder);
      if (r.free_op) {
        out_.note("IR018", at(r.sec, r.instr), msg + " (free op)");
      } else {
        out_.warn("IR018", at(r.sec, r.instr), msg);
      }
    }

    exact_pressure_ = dfa.max_live_pressure();
    if (exact_pressure_ > opts_.lrf_words) {
      out_.warn("IR022", {def_.name, "", -1},
                "exact peak LRF live-pressure " +
                    std::to_string(exact_pressure_) +
                    " registers exceeds the per-cluster capacity of " +
                    std::to_string(opts_.lrf_words) + " words");
    }
  }

  const KernelDef& def_;
  const VerifyOptions& opts_;
  std::map<kernel::Section, std::vector<char>> valid_;
  int exact_pressure_ = -1;  ///< set by semantic(); -1 when it did not run
  Diagnostics out_;
};

}  // namespace

Diagnostics verify_kernel(const kernel::KernelDef& def,
                          const VerifyOptions& opts) {
  return Verifier(def, opts).run();
}

void require_valid_kernel(const kernel::KernelDef& def,
                          const VerifyOptions& opts) {
  VerifyOptions o = opts;
  o.report_pressure = false;
  // The semantic checks (IR017-IR024) are warnings-only and cost a full
  // dataflow fixpoint; this entry point runs on every Interpreter
  // construction and schedule_body call, so skip them here.
  o.dataflow = false;
  Diagnostics d = verify_kernel(def, o);
  d.count_into_registry("analysis.ir");
  if (d.errors() > 0) throw CheckFailure(std::move(d));
}

}  // namespace smd::analysis
