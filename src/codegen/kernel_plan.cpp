#include "codegen/kernel_plan.hpp"

#include <algorithm>
#include <sstream>

namespace dace::cg {

namespace {

using rt::Instr;
using rt::Op;

// Register read/write sets, bank-aware ('i' = integer, 'f' = float).
using Reg = std::pair<char, int>;

void defs_of(const Instr& in, std::vector<Reg>& out) {
  out.clear();
  switch (in.op) {
    case Op::IConst:
    case Op::ISym:
    case Op::IMov:
    case Op::IAdd:
    case Op::ISub:
    case Op::IMul:
    case Op::IFloorDiv:
    case Op::IMod:
    case Op::IMin:
    case Op::IMax:
      out.push_back({'i', in.a});
      break;
    case Op::Jmp:
    case Op::JGe:
    case Op::Store:
    case Op::StoreWcr:
    case Op::Guard:
    case Op::Halt:
      break;
    default:
      // Every remaining opcode writes float register a.
      out.push_back({'f', in.a});
      break;
  }
}

void reads_of(const Instr& in, std::vector<Reg>& out) {
  out.clear();
  switch (in.op) {
    case Op::IConst:
    case Op::ISym:
    case Op::FConst:
    case Op::FSym:
    case Op::Jmp:
    case Op::Halt:
      break;
    case Op::IMov:
    case Op::FFromI:
      out.push_back({'i', in.b});
      break;
    case Op::IAdd:
    case Op::ISub:
    case Op::IMul:
    case Op::IFloorDiv:
    case Op::IMod:
    case Op::IMin:
    case Op::IMax:
      out.push_back({'i', in.b});
      out.push_back({'i', in.c});
      break;
    case Op::JGe:
    case Op::Guard:
      out.push_back({'i', in.a});
      out.push_back({'i', in.b});
      break;
    case Op::Load:
      out.push_back({'i', in.b});
      break;
    case Op::Store:
    case Op::StoreWcr:
      out.push_back({'f', in.a});
      out.push_back({'i', in.b});
      break;
    case Op::FSelect:
      out.push_back({'f', in.b});
      out.push_back({'f', in.c});
      out.push_back({'f', (int)in.imm});
      break;
    case Op::FNeg:
    case Op::FAbs:
    case Op::FExp:
    case Op::FLog:
    case Op::FSqrt:
    case Op::FSin:
    case Op::FCos:
    case Op::FTanh:
    case Op::FFloor:
    case Op::FNot:
      out.push_back({'f', in.b});
      break;
    default:
      // Float binaries.
      out.push_back({'f', in.b});
      out.push_back({'f', in.c});
      break;
  }
}

bool is_induction_inc(const Instr& in) {
  return in.op == Op::IAdd && in.a == in.b;
}

class Planner {
 public:
  explicit Planner(const rt::Program& prog) : prog_(prog) {}

  KernelPlan run() {
    if (!reconstruct()) return {};
    plan_.valid = true;
    decide_sinks_and_unroll();
    decide_jam();
    return std::move(plan_);
  }

 private:
  const rt::Program& prog_;
  KernelPlan plan_;
  std::vector<Reg> scratch_;

  /// True when (bank, reg) has a def at some pc in [lo, hi).
  bool defined_in(char bank, int reg, size_t lo, size_t hi) {
    for (size_t pc = lo; pc < hi; ++pc) {
      defs_of(prog_.code[pc], scratch_);
      for (const Reg& d : scratch_)
        if (d.first == bank && d.second == reg) return true;
    }
    return false;
  }

  bool read_in(char bank, int reg, size_t lo, size_t hi) {
    for (size_t pc = lo; pc < hi; ++pc) {
      reads_of(prog_.code[pc], scratch_);
      for (const Reg& r : scratch_)
        if (r.first == bank && r.second == reg) return true;
    }
    return false;
  }

  /// Rebuild the loop forest.  Every Jmp must be a backward latch to a
  /// JGe header whose exit lands at latch+1, every JGe must be such a
  /// header, and loops must nest properly -- otherwise no plan.
  bool reconstruct() {
    const auto& code = prog_.code;
    std::vector<bool> jge_claimed(code.size(), false);
    for (size_t pc = 0; pc < code.size(); ++pc) {
      const Instr& in = code[pc];
      if (in.op != Op::Jmp) continue;
      if (in.imm < 0 || (size_t)in.imm >= pc) return false;  // forward jump
      size_t h = (size_t)in.imm;
      const Instr& jge = code[h];
      if (jge.op != Op::JGe || jge.imm != (int64_t)(pc + 1)) return false;
      if (jge_claimed[h]) return false;  // two latches, one header
      jge_claimed[h] = true;

      PlanLoop L;
      L.header = h;
      L.latch = pc;
      L.var = jge.a;
      L.end_reg = jge.b;
      // The latch is a trailing run of in-place IAdd increments; the
      // loop-variable step may sit anywhere in the run (strength
      // reduction appends offset increments after it).
      size_t lb = pc;
      while (lb > h + 1 && is_induction_inc(code[lb - 1])) --lb;
      L.latch_begin = lb;
      int var_incs = 0;
      for (size_t q = lb; q < pc; ++q)
        if (code[q].a == L.var) ++var_incs;
      if (var_incs != 1) return false;  // no (or ambiguous) canonical step
      plan_.loops.push_back(L);
    }
    // Stray JGe (no latch) means irreducible flow for our purposes.
    for (size_t pc = 0; pc < code.size(); ++pc)
      if (code[pc].op == Op::JGe && !jge_claimed[pc]) return false;

    std::sort(plan_.loops.begin(), plan_.loops.end(),
              [](const PlanLoop& a, const PlanLoop& b) {
                return a.header < b.header;
              });
    // Proper nesting: intervals [header, latch] are disjoint or nested.
    for (size_t i = 0; i < plan_.loops.size(); ++i) {
      PlanLoop& L = plan_.loops[i];
      for (size_t j = 0; j < i; ++j) {
        PlanLoop& O = plan_.loops[j];
        if (L.header > O.latch) continue;  // disjoint, O before L
        if (L.latch > O.latch) return false;  // overlap without nesting
        // L inside O; keep the innermost enclosing loop as parent.
        if (L.parent < 0 || plan_.loops[L.parent].header < O.header)
          L.parent = (int)j;
      }
    }
    for (size_t i = 0; i < plan_.loops.size(); ++i)
      if (plan_.loops[i].parent >= 0)
        plan_.loops[plan_.loops[i].parent].children.push_back((int)i);

    for (PlanLoop& L : plan_.loops) {
      for (size_t pc = L.header + 1; pc < L.latch && !L.has_guard; ++pc)
        L.has_guard = code[pc].op == Op::Guard;
      L.const_step = find_const_step(L);
    }
    return true;
  }

  /// Constant step of the loop variable: its latch increment's source
  /// must have exactly one static def, an IConst executed outside every
  /// loop (the preamble), with a positive value.
  int64_t find_const_step(const PlanLoop& L) {
    int step_reg = -1;
    for (size_t pc = L.latch_begin; pc < L.latch; ++pc)
      if (prog_.code[pc].a == L.var) step_reg = prog_.code[pc].c;
    if (step_reg < 0) return 0;
    int64_t val = 0;
    int defs = 0;
    for (size_t pc = 0; pc < prog_.code.size(); ++pc) {
      defs_of(prog_.code[pc], scratch_);
      for (const Reg& d : scratch_) {
        if (d.first != 'i' || d.second != step_reg) continue;
        ++defs;
        if (prog_.code[pc].op != Op::IConst) return 0;
        bool in_loop = false;
        for (const PlanLoop& O : plan_.loops)
          in_loop |= pc > O.header && pc < O.latch;
        if (in_loop) return 0;
        val = prog_.code[pc].imm;
      }
    }
    return (defs == 1 && val > 0) ? val : 0;
  }

  void decide_sinks_and_unroll() {
    for (PlanLoop& L : plan_.loops) {
      if (!L.innermost()) continue;
      decide_sinks(L);
      // Innermost unrolling by the f64 vector width, scalar epilogue for
      // the remainder.  Sequential body replication preserves the exact
      // VM order, so guards stay sound; requirements are a known
      // positive constant step, an invariant bound, and a loop variable
      // only written by its latch increment.  Loops the dependence
      // analysis already proved vectorizable (and without sunk
      // accumulators) stay plain: the host vectorizer cannot re-roll a
      // replicated body, so unrolling there would trade SIMD for scalar
      // ILP -- the ivdep'd plain loop is the better main loop.
      size_t body_len = L.latch_begin - L.header - 1;
      bool vectorizable =
          prog_.vec_innermost && !L.has_guard && L.sinks.empty();
      if (!vectorizable && L.const_step > 0 && body_len <= 48 &&
          !defined_in('i', L.var, L.header + 1, L.latch_begin) &&
          !defined_in('i', L.end_reg, L.header + 1, L.latch + 1)) {
        L.unroll = 4;
      }
    }
  }

  /// An innermost StoreWcr sinks to a register accumulator when its
  /// address is invariant in the loop and no other memory op anywhere in
  /// the program touches the same array slot (a Load elsewhere could
  /// observe the not-yet-combined partial value).  A Guard in the loop
  /// blocks sinking: the VM applies WCR updates for iterations preceding
  /// a trap, and the sunk combine would lose them.
  void decide_sinks(PlanLoop& L) {
    if (L.has_guard) return;
    const auto& code = prog_.code;
    for (size_t pc = L.header + 1; pc < L.latch_begin; ++pc) {
      const Instr& in = code[pc];
      if (in.op != Op::StoreWcr || in.c < 1 || in.c > 4) continue;
      if (defined_in('i', in.b, L.header + 1, L.latch + 1)) continue;
      bool slot_clean = true;
      for (size_t q = 0; q < code.size() && slot_clean; ++q) {
        if (q == pc) continue;
        const Instr& o = code[q];
        if ((o.op == Op::Load || o.op == Op::Store ||
             o.op == Op::StoreWcr) &&
            o.imm == in.imm)
          slot_clean = false;
      }
      if (slot_clean) L.sinks.push_back(pc);
    }
  }

  void decide_jam() {
    for (size_t li = 0; li < plan_.loops.size(); ++li) {
      PlanLoop& J = plan_.loops[li];
      if (J.children.size() != 1) continue;
      PlanLoop& K = plan_.loops[(size_t)J.children[0]];
      if (!K.innermost() || K.sinks.empty()) continue;
      if (J.const_step <= 0 || J.has_guard) continue;
      if (J.latch - J.header > 120) continue;  // bound the code bloat

      // The jam interleaves four J iterations lane by lane.  Per-lane
      // register renaming makes that sound provided the lanes cannot
      // communicate: the J latch must be simple inductions, the inner
      // loop's trip count must be identical across lanes, and no
      // register may carry a (non-induction) value between J iterations
      // or out of the loop.
      std::vector<int> latch_targets;
      bool ok = true;
      for (size_t pc = J.latch_begin; pc < J.latch && ok; ++pc) {
        const Instr& in = prog_.code[pc];
        ok = is_induction_inc(in) &&
             !defined_in('i', in.c, J.header + 1, J.latch + 1) &&
             std::find(latch_targets.begin(), latch_targets.end(),
                       (int)in.a) == latch_targets.end();
        latch_targets.push_back(in.a);
      }
      if (!ok) continue;

      // Inner trip count invariant across lanes: K's bound, its initial
      // value and its own step may not depend on anything written inside
      // J's body.
      auto body_def = [&](char bank, int reg) {
        return defined_in(bank, reg, J.header + 1, J.latch + 1);
      };
      if (body_def('i', K.end_reg)) continue;
      int init_pc = -1;
      for (size_t pc = J.header + 1; pc < K.header; ++pc) {
        defs_of(prog_.code[pc], scratch_);
        for (const Reg& d : scratch_)
          if (d.first == 'i' && d.second == K.var) init_pc = (int)pc;
      }
      if (init_pc < 0) continue;
      const Instr& init = prog_.code[(size_t)init_pc];
      if (init.op == Op::IMov) {
        if (body_def('i', init.b)) continue;
      } else if (init.op != Op::IConst) {
        continue;
      }
      int kvar_step = -1;
      for (size_t pc = K.latch_begin; pc < K.latch; ++pc)
        if (prog_.code[pc].a == K.var) kvar_step = prog_.code[pc].c;
      if (kvar_step < 0 || body_def('i', kvar_step)) continue;

      // Lane privacy: every register written in J's direct body must be
      // neither live-in (read before its first write -> J-loop-carried)
      // nor live-out (read after the latch -> the epilogue cannot
      // reproduce a jammed final value).  Induction registers are exempt
      // -- lanes derive them as base + lane*delta and the combined latch
      // advance keeps them canonical.
      std::vector<Reg> body_defs;
      for (size_t pc = J.header + 1; pc < J.latch_begin && ok; ++pc) {
        defs_of(prog_.code[pc], scratch_);
        for (const Reg& d : scratch_) {
          if (d.first == 'i' &&
              std::find(latch_targets.begin(), latch_targets.end(),
                        d.second) != latch_targets.end()) {
            ok = false;  // induction reg also written in the body
            break;
          }
          if (std::find(body_defs.begin(), body_defs.end(), d) ==
              body_defs.end())
            body_defs.push_back(d);
        }
      }
      if (!ok) continue;
      for (const Reg& r : body_defs) {
        size_t first_def = J.latch;
        for (size_t pc = J.header + 1; pc < J.latch_begin; ++pc) {
          defs_of(prog_.code[pc], scratch_);
          bool hit = false;
          for (const Reg& d : scratch_) hit |= d == r;
          if (hit) {
            first_def = pc;
            break;
          }
        }
        // Read-before-first-write scans include the defining instruction
        // itself (x = x + ... is a carried dependence).
        if (read_in(r.first, r.second, J.header + 1, first_def) ||
            [&] {
              reads_of(prog_.code[first_def], scratch_);
              for (const Reg& rd : scratch_)
                if (rd == r) return true;
              return false;
            }() ||
            read_in(r.first, r.second, J.latch + 1, prog_.code.size())) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;

      J.jam = 4;
      J.renames = body_defs;
      K.unroll = 1;  // the lanes already provide the inner-loop ILP
    }
  }
};

}  // namespace

std::string KernelPlan::describe() const {
  std::ostringstream os;
  if (!valid) {
    os << "goto-fallback atomic=" << atomic_stores;
    return os.str();
  }
  os << "loops=" << loops.size();
  int jam = 1, unroll = 1;
  size_t sinks = 0;
  for (const PlanLoop& l : loops) {
    jam = std::max(jam, l.jam);
    unroll = std::max(unroll, l.unroll);
    sinks += l.sinks.size();
  }
  os << " jam=" << jam << " unroll=" << unroll << " sink=" << sinks
     << " atomic=" << atomic_stores;
  return os.str();
}

KernelPlan plan_kernel(const rt::Program& prog) {
  KernelPlan plan = Planner(prog).run();
  for (const rt::Instr& in : prog.code)
    plan.atomic_stores += in.op == rt::Op::StoreWcr && in.flag;
  return plan;
}

}  // namespace dace::cg
