// Lowers a Tier-0 bytecode program to standalone C++ (Tier 1 of the
// tiered map executor).
//
// Two emission strategies share one per-instruction translator:
//
//  - Plan-driven: cg::plan_kernel
//    reconstructs the canonical loop nest and the emitter prints
//    structured `for` loops, sinks invariant-address WCR stores into
//    register accumulators, unroll-and-jams the accumulator-carrying
//    loop with per-lane register renaming, and unrolls innermost loops
//    by the vector width with a scalar epilogue.  The host compiler sees
//    countable loops over __restrict__ arrays and auto-vectorizes.
//
//  - Goto fallback (plan invalid, e.g. irreducible flow): one statement
//    per instruction, labels on jump targets, gotos for Jmp/JGe -- the
//    original deliberately-direct translation.
//
// Both keep the vm_run chunk protocol -- splittable programs read their
// outer bounds from lo/hi -- so ThreadPool worksharing and the atomic
// WCR path are shared with the interpreter verbatim.
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "codegen/jit.hpp"
#include "codegen/kernel_plan.hpp"
#include "common/common.hpp"

namespace dace::cg {

namespace {

using rt::Instr;
using rt::Op;

/// Register spelling hook: maps (bank, index) to a C identifier.  The
/// base spelling is i<r>/f<r>; jam lanes substitute lane-private names.
using Ren = std::function<std::string(char, int)>;

std::string base_name(char bank, int reg) {
  return std::string(1, bank) + std::to_string(reg);
}

const char* fbin_expr(Op op) {
  switch (op) {
    case Op::FAdd: return "%a = %b + %c;";
    case Op::FSub: return "%a = %b - %c;";
    case Op::FMul: return "%a = %b * %c;";
    case Op::FDiv: return "%a = %b / %c;";
    case Op::FPow: return "%a = pow(%b, %c);";
    case Op::FMod: return "%a = dacepp_fmod(%b, %c);";
    case Op::FMin: return "%a = %b < %c ? %b : %c;";
    case Op::FMax: return "%a = %b > %c ? %b : %c;";
    case Op::FLt: return "%a = %b < %c ? 1.0 : 0.0;";
    case Op::FLe: return "%a = %b <= %c ? 1.0 : 0.0;";
    case Op::FGt: return "%a = %b > %c ? 1.0 : 0.0;";
    case Op::FGe: return "%a = %b >= %c ? 1.0 : 0.0;";
    case Op::FEq: return "%a = %b == %c ? 1.0 : 0.0;";
    case Op::FNe: return "%a = %b != %c ? 1.0 : 0.0;";
    case Op::FAnd: return "%a = (%b != 0.0 && %c != 0.0) ? 1.0 : 0.0;";
    case Op::FOr: return "%a = (%b != 0.0 || %c != 0.0) ? 1.0 : 0.0;";
    default: return nullptr;
  }
}

const char* fun_expr(Op op) {
  switch (op) {
    case Op::FNeg: return "%a = -%b;";
    case Op::FAbs: return "%a = fabs(%b);";
    case Op::FExp: return "%a = exp(%b);";
    case Op::FLog: return "%a = log(%b);";
    case Op::FSqrt: return "%a = sqrt(%b);";
    case Op::FSin: return "%a = sin(%b);";
    case Op::FCos: return "%a = cos(%b);";
    case Op::FTanh: return "%a = tanh(%b);";
    case Op::FFloor: return "%a = floor(%b);";
    case Op::FNot: return "%a = %b == 0.0 ? 1.0 : 0.0;";
    default: return nullptr;
  }
}

/// Expand the %a/%b/%c placeholders (all float registers) of a template.
std::string expand(const char* tpl, const Instr& in, const Ren& ren) {
  std::string out;
  for (const char* p = tpl; *p; ++p) {
    if (*p != '%') {
      out.push_back(*p);
      continue;
    }
    ++p;
    switch (*p) {
      case 'a': out += ren('f', in.a); break;
      case 'b': out += ren('f', in.b); break;
      case 'c': out += ren('f', in.c); break;
      default: out.push_back(*p); break;
    }
  }
  return out;
}

/// Store-side cast mirroring rt::cast_to for the container dtype.
std::string store_cast(ir::DType dt, const std::string& v) {
  switch (dt) {
    case ir::DType::f64: return v;
    case ir::DType::f32: return "(double)(float)(" + v + ")";
    case ir::DType::i64: return "(double)(long long)(" + v + ")";
    case ir::DType::i32: return "(double)(int)(" + v + ")";
    case ir::DType::b8: return "((" + v + ") != 0.0 ? 1.0 : 0.0)";
  }
  return v;
}

const char* wcr_identity(int kind) {
  switch (kind) {
    case 1: return "0.0";
    case 2: return "1.0";
    case 3: return "HUGE_VAL";
    default: return "-HUGE_VAL";
  }
}

/// Shared per-instruction translator.  `sunk` maps StoreWcr pcs to the
/// accumulator variable currently standing in for their array slot.
class InstrPrinter {
 public:
  InstrPrinter(const rt::Program& prog, const std::vector<ir::DType>& dtypes)
      : prog_(prog), dtypes_(dtypes) {}

  std::map<size_t, std::string> sunk;

  std::string stmt(size_t pc, const Ren& ren) const {
    const Instr& in = prog_.code[pc];
    std::ostringstream os;
    auto I = [&](int r) { return ren('i', r); };
    auto F = [&](int r) { return ren('f', r); };
    switch (in.op) {
      case Op::IConst:
        os << I(in.a) << " = " << in.imm << "LL;";
        break;
      case Op::ISym:
        os << I(in.a) << " = s[" << in.imm << "];";
        break;
      case Op::IMov:
        os << I(in.a) << " = " << I(in.b) << ";";
        break;
      case Op::IAdd:
        os << I(in.a) << " = " << I(in.b) << " + " << I(in.c) << ";";
        break;
      case Op::ISub:
        os << I(in.a) << " = " << I(in.b) << " - " << I(in.c) << ";";
        break;
      case Op::IMul:
        os << I(in.a) << " = " << I(in.b) << " * " << I(in.c) << ";";
        break;
      case Op::IFloorDiv:
        os << I(in.a) << " = dacepp_floordiv(" << I(in.b) << ", " << I(in.c)
           << ");";
        break;
      case Op::IMod:
        os << I(in.a) << " = " << I(in.b) << " - dacepp_floordiv(" << I(in.b)
           << ", " << I(in.c) << ") * " << I(in.c) << ";";
        break;
      case Op::IMin:
        os << I(in.a) << " = " << I(in.b) << " < " << I(in.c) << " ? "
           << I(in.b) << " : " << I(in.c) << ";";
        break;
      case Op::IMax:
        os << I(in.a) << " = " << I(in.b) << " > " << I(in.c) << " ? "
           << I(in.b) << " : " << I(in.c) << ";";
        break;
      case Op::FConst: {
        char buf[64];
        snprintf(buf, sizeof(buf), "%.17g", in.fimm);
        os << F(in.a) << " = " << buf << ";";
        break;
      }
      case Op::FSym:
        os << F(in.a) << " = (double)s[" << in.imm << "];";
        break;
      case Op::FFromI:
        os << F(in.a) << " = (double)" << I(in.b) << ";";
        break;
      case Op::Load:
        os << F(in.a) << " = A" << in.imm << "[" << I(in.b) << "];";
        break;
      case Op::Store:
        os << "A" << in.imm << "[" << I(in.b)
           << "] = " << store_cast(dtypes_[(size_t)in.imm], F(in.a)) << ";";
        break;
      case Op::StoreWcr: {
        std::string v = F(in.a);
        if (auto it = sunk.find(pc); it != sunk.end()) {
          const std::string& acc = it->second;
          switch (in.c) {
            case 1: os << acc << " += " << v << ";"; break;
            case 2: os << acc << " *= " << v << ";"; break;
            case 3:
              os << "if (" << v << " < " << acc << ") " << acc << " = " << v
                 << ";";
              break;
            default:
              os << "if (" << v << " > " << acc << ") " << acc << " = " << v
                 << ";";
              break;
          }
          break;
        }
        os << wcr_apply(in, v, ren);
        break;
      }
      case Op::FSelect:
        os << F(in.a) << " = " << F(in.b) << " != 0.0 ? " << F(in.c) << " : "
           << F((int)in.imm) << ";";
        break;
      case Op::Guard:
        os << "if (" << I(in.a) << " < 0 || " << I(in.a) << " >= " << I(in.b)
           << ") { if (err) *err = " << in.imm << "LL + 1; return; }";
        break;
      case Op::Halt:
        os << "return;";
        break;
      case Op::Jmp:
      case Op::JGe:
        DACE_CHECK(false, "map codegen: stray jump in structured emission");
        break;
      default: {
        const char* tpl = fbin_expr(in.op);
        if (!tpl) tpl = fun_expr(in.op);
        DACE_CHECK(tpl != nullptr, "map codegen: unsupported opcode");
        os << expand(tpl, in, ren);
        break;
      }
    }
    return os.str();
  }

  /// The memory-side WCR application (also used for sunk combines).
  std::string wcr_apply(const Instr& in, const std::string& v,
                        const Ren& ren) const {
    std::string addr =
        "A" + std::to_string(in.imm) + " + " + ren('i', in.b);
    std::ostringstream os;
    if (in.flag) {
      os << "dacepp_wcr_atomic(" << addr << ", " << v << ", " << (int)in.c
         << ");";
      return os.str();
    }
    switch (in.c) {
      case 1: os << "*(" << addr << ") += " << v << ";"; break;
      case 2: os << "*(" << addr << ") *= " << v << ";"; break;
      case 3:
        os << "{ double* p = " << addr << "; if (" << v << " < *p) *p = " << v
           << "; }";
        break;
      default:
        os << "{ double* p = " << addr << "; if (" << v << " > *p) *p = " << v
           << "; }";
        break;
    }
    return os.str();
  }

 private:
  const rt::Program& prog_;
  const std::vector<ir::DType>& dtypes_;
};

/// Structured emitter executing a KernelPlan.
class PlanEmitter {
 public:
  PlanEmitter(const rt::Program& prog, const std::vector<ir::DType>& dtypes,
              const KernelPlan& plan, std::ostream& os)
      : prog_(prog), plan_(plan), os_(os), pr_(prog, dtypes) {}

  /// Function-top declarations for jam-lane private registers (lane 0
  /// reuses the base registers; lanes >= 1 get _l<lane> copies).
  void emit_lane_decls() {
    std::set<std::string> seen;
    for (const PlanLoop& J : plan_.loops) {
      if (J.jam <= 1) continue;
      for (int lane = 1; lane < J.jam; ++lane) {
        for (auto [bank, reg] : J.renames) {
          std::string n = base_name(bank, reg) + "_l" + std::to_string(lane);
          if (!seen.insert(n).second) continue;
          if (bank == 'i')
            os_ << "  long long " << n << " = 0; (void)" << n << ";\n";
          else
            os_ << "  double " << n << " = 0.0; (void)" << n << ";\n";
        }
      }
    }
  }

  void emit() {
    emit_range(0, prog_.code.size());
  }

 private:
  const rt::Program& prog_;
  const KernelPlan& plan_;
  std::ostream& os_;
  InstrPrinter pr_;
  int decl_id_ = 0;

  Ren base_ren() const {
    return [](char bank, int reg) { return base_name(bank, reg); };
  }

  /// Lane rename for a jam loop: lane-private registers (body defs and
  /// latch induction targets) get the _l<lane> suffix; lane 0 and shared
  /// registers keep base names.
  Ren lane_ren(const PlanLoop& J, const std::vector<int>& latch_targets,
               int lane) const {
    if (lane == 0) return base_ren();
    auto renames = J.renames;  // by value: the Ren outlives this frame
    return [renames, latch_targets, lane](char bank, int reg) {
      bool priv = false;
      for (auto [b, r] : renames) priv |= b == bank && r == reg;
      if (bank == 'i')
        for (int t : latch_targets) priv |= t == reg;
      std::string n = base_name(bank, reg);
      return priv ? n + "_l" + std::to_string(lane) : n;
    };
  }

  void emit_range(size_t lo, size_t hi) {
    Ren ren = base_ren();
    size_t pc = lo;
    while (pc < hi) {
      int li = plan_.loop_at(pc);
      if (li >= 0) {
        emit_loop(li);
        pc = plan_.loops[(size_t)li].latch + 1;
        continue;
      }
      os_ << "  " << pr_.stmt(pc, ren) << "\n";
      ++pc;
    }
  }

  void emit_loop(int li) {
    const PlanLoop& L = plan_.loops[(size_t)li];
    if (L.jam > 1)
      emit_jam(li);
    else
      emit_plain(li);
  }

  /// Body statements then latch increments, with nested loops dispatched
  /// recursively.  `only_straight` asserts the range holds no loops (jam
  /// pre/post ranges).
  void emit_body_and_latch(const PlanLoop& L, const Ren& ren) {
    size_t pc = L.header + 1;
    while (pc < L.latch_begin) {
      int ci = plan_.loop_at(pc);
      if (ci >= 0) {
        emit_loop(ci);
        pc = plan_.loops[(size_t)ci].latch + 1;
        continue;
      }
      os_ << "  " << pr_.stmt(pc, ren) << "\n";
      ++pc;
    }
    for (pc = L.latch_begin; pc < L.latch; ++pc)
      os_ << "  " << pr_.stmt(pc, ren) << "\n";
  }

  void emit_straight(size_t lo, size_t hi, const Ren& ren) {
    for (size_t pc = lo; pc < hi; ++pc)
      os_ << "  " << pr_.stmt(pc, ren) << "\n";
  }

  void emit_sink_decls(const PlanLoop& L, const Ren& ren, int id,
                       const std::string& lane_tag) {
    for (size_t spc : L.sinks) {
      const Instr& in = prog_.code[spc];
      std::string acc = "acc" + std::to_string(spc) + "_" +
                        std::to_string(id) + lane_tag;
      os_ << "  double " << acc << " = " << wcr_identity(in.c) << ";\n";
      pr_.sunk[spc] = acc;
      (void)ren;
    }
  }

  /// Apply each sunk accumulator to memory once.  Guarded by the caller
  /// on "the loop ran at least once" so zero-trip nests touch nothing.
  void emit_combines(const PlanLoop& L, const Ren& ren, int id,
                     const std::string& lane_tag) {
    for (size_t spc : L.sinks) {
      const Instr& in = prog_.code[spc];
      std::string acc = "acc" + std::to_string(spc) + "_" +
                        std::to_string(id) + lane_tag;
      os_ << "    " << pr_.wcr_apply(in, acc, ren) << "\n";
    }
  }

  void emit_plain(int li) {
    const PlanLoop& L = plan_.loops[(size_t)li];
    Ren ren = base_ren();
    std::string v = ren('i', L.var);
    std::string e = ren('i', L.end_reg);
    int id = -1;
    if (!L.sinks.empty()) {
      id = decl_id_++;
      emit_sink_decls(L, ren, id, "");
      os_ << "  long long vst" << id << " = " << v << ";\n";
    }
    if (L.unroll > 1) {
      os_ << "  for (; " << v << " + " << (L.unroll - 1) * L.const_step
          << " < " << e << "; ) {\n";
      for (int u = 0; u < L.unroll; ++u) emit_body_and_latch(L, ren);
      os_ << "  }\n";
    }
    if (L.innermost() && prog_.vec_innermost && !L.has_guard)
      os_ << "  #pragma GCC ivdep\n";
    os_ << "  for (; " << v << " < " << e << "; ) {\n";
    emit_body_and_latch(L, ren);
    os_ << "  }\n";
    if (id >= 0) {
      os_ << "  if (" << v << " != vst" << id << ") {\n";
      emit_combines(L, ren, id, "");
      os_ << "  }\n";
      for (size_t spc : L.sinks) pr_.sunk.erase(spc);
    }
  }

  /// Unroll-and-jam: interleave `jam` iterations of J lane by lane.  Each
  /// lane runs on private copies of J's body registers; induction
  /// registers are rematerialized per fused iteration as base + lane *
  /// delta, and the shared latch advances every induction register by
  /// jam * delta.  The inner loop K is fused across lanes on lane 0's
  /// counter (the planner proved identical trip counts), giving the host
  /// compiler `jam` independent accumulator chains.  The remainder
  /// (< jam iterations) runs through the plain emitter.
  void emit_jam(int ji) {
    const PlanLoop& J = plan_.loops[(size_t)ji];
    const PlanLoop& K = plan_.loops[(size_t)J.children[0]];
    int U = J.jam;

    std::vector<std::pair<int, int>> incs;  // (target reg, delta reg)
    std::vector<int> latch_targets;
    for (size_t pc = J.latch_begin; pc < J.latch; ++pc) {
      incs.push_back({prog_.code[pc].a, prog_.code[pc].c});
      latch_targets.push_back(prog_.code[pc].a);
    }

    std::vector<Ren> lanes;
    for (int l = 0; l < U; ++l)
      lanes.push_back(lane_ren(J, latch_targets, l));
    Ren base = base_ren();
    std::string vJ = base('i', J.var);

    os_ << "  for (; " << vJ << " + " << (int64_t)(U - 1) * J.const_step
        << " < " << base('i', J.end_reg) << "; ) {\n";
    for (int l = 1; l < U; ++l)
      for (auto [r, d] : incs)
        os_ << "  long long " << lanes[(size_t)l]('i', r) << " = "
            << base('i', r) << " + " << l << " * " << base('i', d) << ";\n";
    // Pre-range: everything in J's body before the inner loop, per lane.
    for (int l = 0; l < U; ++l)
      emit_straight(J.header + 1, K.header, lanes[(size_t)l]);
    int id = decl_id_++;
    for (int l = 0; l < U; ++l)
      emit_sink_decls(K, lanes[(size_t)l], id, "_j" + std::to_string(l));
    std::string vK = lanes[0]('i', K.var);
    os_ << "  long long vst" << id << " = " << vK << ";\n";
    os_ << "  for (; " << vK << " < " << base('i', K.end_reg) << "; ) {\n";
    for (int l = 0; l < U; ++l) {
      // Lane acc names were installed per lane; re-point the sunk map.
      for (size_t spc : K.sinks)
        pr_.sunk[spc] = "acc" + std::to_string(spc) + "_" +
                        std::to_string(id) + "_j" + std::to_string(l);
      emit_straight(K.header + 1, K.latch, lanes[(size_t)l]);
    }
    os_ << "  }\n";
    os_ << "  if (" << vK << " != vst" << id << ") {\n";
    for (int l = 0; l < U; ++l)
      emit_combines(K, lanes[(size_t)l], id, "_j" + std::to_string(l));
    os_ << "  }\n";
    for (size_t spc : K.sinks) pr_.sunk.erase(spc);
    // Post-range: the rest of J's body after the inner loop, per lane.
    for (int l = 0; l < U; ++l)
      emit_straight(K.latch + 1, J.latch_begin, lanes[(size_t)l]);
    for (auto [r, d] : incs)
      os_ << "  " << base('i', r) << " += " << U << " * " << base('i', d)
          << ";\n";
    os_ << "  }\n";

    emit_plain(ji);
  }
};

}  // namespace

std::string generate_map_source(const rt::Program& prog,
                                const std::vector<ir::DType>& dtypes,
                                const std::string& fn_name) {
  DACE_CHECK(dtypes.size() == prog.arrays.size(),
             "map codegen: dtype count does not match array slots");
  std::ostringstream os;
  os << "// Generated by the DaCe++ tiered map executor (Tier 1).\n"
     << "#include <math.h>\n\n"
     << "static inline long long dacepp_floordiv(long long a, long long b) "
        "{\n"
     << "  long long q = a / b;\n"
     << "  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;\n"
     << "  return q;\n"
     << "}\n"
     << "static inline double dacepp_fmod(double a, double b) {\n"
     << "  double r = fmod(a, b);\n"
     << "  if (r != 0 && ((r < 0) != (b < 0))) r += b;\n"
     << "  return r;\n"
     << "}\n"
     << "static inline void dacepp_wcr_atomic(double* p, double v, int kind) "
        "{\n"
     << "  unsigned long long* u = (unsigned long long*)p;\n"
     << "  unsigned long long expected = __atomic_load_n(u, "
        "__ATOMIC_RELAXED);\n"
     << "  for (;;) {\n"
     << "    double cur;\n"
     << "    __builtin_memcpy(&cur, &expected, 8);\n"
     << "    double nxt = kind == 1   ? cur + v\n"
     << "                 : kind == 2 ? cur * v\n"
     << "                 : kind == 3 ? (cur < v ? cur : v)\n"
     << "                             : (cur > v ? cur : v);\n"
     << "    unsigned long long desired;\n"
     << "    __builtin_memcpy(&desired, &nxt, 8);\n"
     << "    if (__atomic_compare_exchange_n(u, &expected, desired, 1,\n"
     << "                                    __ATOMIC_RELAXED, "
        "__ATOMIC_RELAXED))\n"
     << "      return;\n"
     << "  }\n"
     << "}\n\n"
     << "extern \"C\" void " << fn_name
     << "(double* const* a, const long long* s, long long lo, long long hi, "
        "long long* err) {\n"
     << "  (void)a; (void)s; (void)lo; (void)hi; (void)err;\n";
  // use_restrict is asserted by interval analysis and re-checked by the
  // executor against the bound buffers before every native dispatch.
  const char* qual = prog.use_restrict ? "* __restrict__ " : "* ";
  for (size_t i = 0; i < prog.arrays.size(); ++i) {
    os << "  double" << qual << "A" << i << " = a[" << i << "];\n";
  }
  for (int r = 0; r < prog.n_iregs; ++r) {
    const char* init = "0";
    if (prog.splittable && r == 0) init = "lo";
    if (prog.splittable && r == 1) init = "hi";
    os << "  long long i" << r << " = " << init << "; (void)i" << r << ";\n";
  }
  for (int r = 0; r < prog.n_fregs; ++r) {
    os << "  double f" << r << " = 0.0; (void)f" << r << ";\n";
  }

  // Plan-driven structured emission; the goto translation below stays
  // the fallback for irreducible shapes.
  KernelPlan plan = plan_kernel(prog);
  if (plan.valid) {
    PlanEmitter em(prog, dtypes, plan, os);
    em.emit_lane_decls();
    em.emit();
    os << "  return;\n}\n";
    return os.str();
  }

  // Structured innermost loops: when interval analysis proved the
  // innermost loop free of loop-carried dependences (vec_innermost), the
  // canonical counted-loop shape
  //   h:   JGe v, end -> l+1
  //        ... straight-line body ...
  //   l-1: IAdd v, v, step
  //   l:   Jmp h
  // is re-emitted as a `for` statement under `#pragma GCC ivdep`, giving
  // the host vectorizer a dependence-free loop instead of gotos.
  std::map<size_t, size_t> structured;  // header pc -> latch pc
  if (prog.vec_innermost) {
    for (size_t l = 2; l < prog.code.size(); ++l) {
      const Instr& jmp = prog.code[l];
      if (jmp.op != Op::Jmp || jmp.imm < 0 || (size_t)jmp.imm + 2 > l)
        continue;
      size_t h = (size_t)jmp.imm;
      const Instr& jge = prog.code[h];
      const Instr& inc = prog.code[l - 1];
      if (jge.op != Op::JGe || jge.imm != (int64_t)(l + 1)) continue;
      if (inc.op != Op::IAdd || inc.a != jge.a || inc.b != jge.a) continue;
      bool straight = true;
      for (size_t pc = h + 1; pc < l - 1 && straight; ++pc) {
        Op op = prog.code[pc].op;
        if (op == Op::Jmp || op == Op::JGe || op == Op::Guard ||
            op == Op::Halt)
          straight = false;
      }
      // No jump from outside the pattern may land in [h, l].
      for (size_t pc = 0; pc < prog.code.size() && straight; ++pc) {
        if (pc == h || pc == l) continue;
        const Instr& in = prog.code[pc];
        if ((in.op == Op::Jmp || in.op == Op::JGe) && in.imm >= (int64_t)h &&
            in.imm <= (int64_t)l)
          straight = false;
      }
      if (straight) structured[h] = l;
    }
  }
  std::map<size_t, size_t> latch_of;  // latch pc -> header pc
  for (auto [h, l] : structured) latch_of[l] = h;

  // Labels only where a jump lands (structured jumps emit no gotos).
  std::vector<bool> is_target(prog.code.size() + 1, false);
  for (size_t pc = 0; pc < prog.code.size(); ++pc) {
    const Instr& in = prog.code[pc];
    if (structured.count(pc) || latch_of.count(pc)) continue;
    if (in.op == Op::Jmp || in.op == Op::JGe)
      is_target[(size_t)in.imm] = true;
  }

  InstrPrinter printer(prog, dtypes);
  Ren base = [](char bank, int reg) { return base_name(bank, reg); };
  size_t open_latch = SIZE_MAX;  // latch pc of the currently open `for`
  for (size_t pc = 0; pc < prog.code.size(); ++pc) {
    const Instr& in = prog.code[pc];
    if (is_target[pc]) os << "L" << pc << ":\n";
    if (auto it = structured.find(pc); it != structured.end()) {
      const Instr& inc = prog.code[it->second - 1];
      os << "  #pragma GCC ivdep\n"
         << "  for (; i" << in.a << " < i" << in.b << "; i" << in.a
         << " += i" << inc.c << ") {\n";
      open_latch = it->second;
      continue;
    }
    if (pc + 1 == open_latch) continue;  // the IAdd, now the for-increment
    if (pc == open_latch) {
      os << "  }\n";
      open_latch = SIZE_MAX;
      continue;
    }
    os << "  ";
    switch (in.op) {
      case Op::Jmp:
        os << "goto L" << in.imm << ";";
        break;
      case Op::JGe:
        os << "if (i" << in.a << " >= i" << in.b << ") goto L" << in.imm
           << ";";
        break;
      default:
        os << printer.stmt(pc, base);
        break;
    }
    os << "\n";
  }
  if (is_target[prog.code.size()]) os << "L" << prog.code.size() << ":\n";
  os << "  return;\n}\n";
  return os.str();
}

}  // namespace dace::cg
