#include "runtime/bytecode.hpp"

#include <atomic>
#include <cmath>
#include <sstream>

#include "common/common.hpp"
#include "runtime/tensor.hpp"

namespace dace::rt {

namespace {

int64_t floordiv_i64(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

double fmod_py(double a, double b) {
  double r = std::fmod(a, b);
  if (r != 0 && ((r < 0) != (b < 0))) r += b;
  return r;
}

void atomic_wcr(double* addr, double v, int kind) {
  std::atomic_ref<double> ref(*addr);
  double cur = ref.load(std::memory_order_relaxed);
  for (;;) {
    double next;
    switch (kind) {
      case 1: next = cur + v; break;
      case 2: next = cur * v; break;
      case 3: next = std::min(cur, v); break;
      default: next = std::max(cur, v); break;
    }
    if (ref.compare_exchange_weak(cur, next, std::memory_order_relaxed))
      return;
  }
}

}  // namespace

void vm_run(const Program& prog, const std::vector<ArrayRef>& arrays,
            const std::vector<int64_t>& syms, int64_t lo, int64_t hi,
            VMStats* stats) {
  std::vector<int64_t> ir(static_cast<size_t>(prog.n_iregs), 0);
  std::vector<double> fr(static_cast<size_t>(prog.n_fregs), 0.0);
  if (prog.splittable && prog.n_iregs >= 2) {
    ir[0] = lo;
    ir[1] = hi;
  }
  VMStats local;
  const Instr* code = prog.code.data();
  size_t pc = 0;
  for (;;) {
    const Instr& in = code[pc];
    ++local.instrs;
    switch (in.op) {
      case Op::IConst: ir[in.a] = in.imm; break;
      case Op::ISym: ir[in.a] = syms[static_cast<size_t>(in.imm)]; break;
      case Op::IMov: ir[in.a] = ir[in.b]; break;
      case Op::IAdd: ir[in.a] = ir[in.b] + ir[in.c]; break;
      case Op::ISub: ir[in.a] = ir[in.b] - ir[in.c]; break;
      case Op::IMul: ir[in.a] = ir[in.b] * ir[in.c]; break;
      case Op::IFloorDiv: ir[in.a] = floordiv_i64(ir[in.b], ir[in.c]); break;
      case Op::IMod:
        ir[in.a] = ir[in.b] - floordiv_i64(ir[in.b], ir[in.c]) * ir[in.c];
        break;
      case Op::IMin: ir[in.a] = std::min(ir[in.b], ir[in.c]); break;
      case Op::IMax: ir[in.a] = std::max(ir[in.b], ir[in.c]); break;
      case Op::Jmp: pc = static_cast<size_t>(in.imm); continue;
      case Op::JGe:
        if (ir[in.a] >= ir[in.b]) {
          pc = static_cast<size_t>(in.imm);
          continue;
        }
        break;
      case Op::FConst: fr[in.a] = in.fimm; break;
      case Op::FSym:
        fr[in.a] = static_cast<double>(syms[static_cast<size_t>(in.imm)]);
        break;
      case Op::FFromI: fr[in.a] = static_cast<double>(ir[in.b]); break;
      case Op::Load:
        fr[in.a] = arrays[static_cast<size_t>(in.imm)].base[ir[in.b]];
        ++local.loads;
        break;
      case Op::Store: {
        const ArrayRef& ar = arrays[static_cast<size_t>(in.imm)];
        ar.base[ir[in.b]] = cast_to(ar.dtype, fr[in.a]);
        ++local.stores;
        break;
      }
      case Op::StoreWcr: {
        const ArrayRef& ar = arrays[static_cast<size_t>(in.imm)];
        double* addr = ar.base + ir[in.b];
        double v = fr[in.a];
        if (in.flag) {
          atomic_wcr(addr, v, in.c);
        } else {
          switch (in.c) {
            case 1: *addr += v; break;
            case 2: *addr *= v; break;
            case 3: *addr = std::min(*addr, v); break;
            default: *addr = std::max(*addr, v); break;
          }
        }
        ++local.wcr_stores;
        break;
      }
      case Op::FAdd: fr[in.a] = fr[in.b] + fr[in.c]; ++local.flops; break;
      case Op::FSub: fr[in.a] = fr[in.b] - fr[in.c]; ++local.flops; break;
      case Op::FMul: fr[in.a] = fr[in.b] * fr[in.c]; ++local.flops; break;
      case Op::FDiv: fr[in.a] = fr[in.b] / fr[in.c]; ++local.flops; break;
      case Op::FPow:
        fr[in.a] = std::pow(fr[in.b], fr[in.c]);
        ++local.flops;
        break;
      case Op::FMod:
        fr[in.a] = fmod_py(fr[in.b], fr[in.c]);
        ++local.flops;
        break;
      case Op::FMin: fr[in.a] = std::min(fr[in.b], fr[in.c]); ++local.flops; break;
      case Op::FMax: fr[in.a] = std::max(fr[in.b], fr[in.c]); ++local.flops; break;
      case Op::FLt: fr[in.a] = fr[in.b] < fr[in.c] ? 1.0 : 0.0; break;
      case Op::FLe: fr[in.a] = fr[in.b] <= fr[in.c] ? 1.0 : 0.0; break;
      case Op::FGt: fr[in.a] = fr[in.b] > fr[in.c] ? 1.0 : 0.0; break;
      case Op::FGe: fr[in.a] = fr[in.b] >= fr[in.c] ? 1.0 : 0.0; break;
      case Op::FEq: fr[in.a] = fr[in.b] == fr[in.c] ? 1.0 : 0.0; break;
      case Op::FNe: fr[in.a] = fr[in.b] != fr[in.c] ? 1.0 : 0.0; break;
      case Op::FAnd:
        fr[in.a] = (fr[in.b] != 0 && fr[in.c] != 0) ? 1.0 : 0.0;
        break;
      case Op::FOr:
        fr[in.a] = (fr[in.b] != 0 || fr[in.c] != 0) ? 1.0 : 0.0;
        break;
      case Op::FNeg: fr[in.a] = -fr[in.b]; ++local.flops; break;
      case Op::FAbs: fr[in.a] = std::abs(fr[in.b]); ++local.flops; break;
      case Op::FExp: fr[in.a] = std::exp(fr[in.b]); ++local.flops; break;
      case Op::FLog: fr[in.a] = std::log(fr[in.b]); ++local.flops; break;
      case Op::FSqrt: fr[in.a] = std::sqrt(fr[in.b]); ++local.flops; break;
      case Op::FSin: fr[in.a] = std::sin(fr[in.b]); ++local.flops; break;
      case Op::FCos: fr[in.a] = std::cos(fr[in.b]); ++local.flops; break;
      case Op::FTanh: fr[in.a] = std::tanh(fr[in.b]); ++local.flops; break;
      case Op::FFloor: fr[in.a] = std::floor(fr[in.b]); ++local.flops; break;
      case Op::FNot: fr[in.a] = fr[in.b] == 0 ? 1.0 : 0.0; break;
      case Op::FSelect:
        fr[in.a] = fr[in.b] != 0 ? fr[in.c] : fr[static_cast<size_t>(in.imm)];
        break;
      case Op::Guard:
        if (ir[in.a] < 0 || ir[in.a] >= ir[in.b]) {
          throw err("map guard: flat index ", ir[in.a],
                    " outside [0, ", ir[in.b], ") for array '",
                    prog.arrays[static_cast<size_t>(in.imm)], "'");
        }
        break;
      case Op::Halt:
        if (stats) *stats += local;
        return;
    }
    ++pc;
  }
}

std::string Program::disassemble() const {
  static const char* names[] = {
      "iconst", "isym", "imov", "iadd", "isub", "imul", "ifloordiv", "imod",
      "imin", "imax", "jmp", "jge", "fconst", "fsym", "ffromi", "load",
      "store", "storewcr", "fadd", "fsub", "fmul", "fdiv", "fpow", "fmod",
      "fmin", "fmax", "flt", "fle", "fgt", "fge", "feq", "fne", "fand",
      "for", "fneg", "fabs", "fexp", "flog", "fsqrt", "fsin", "fcos",
      "ftanh", "ffloor", "fnot", "fselect", "guard", "halt"};
  std::ostringstream os;
  for (size_t i = 0; i < code.size(); ++i) {
    const Instr& in = code[i];
    os << i << ": " << names[static_cast<int>(in.op)] << " a=" << in.a
       << " b=" << in.b << " c=" << in.c << " imm=" << in.imm;
    if (in.op == Op::FConst) os << " f=" << in.fimm;
    os << "\n";
  }
  return os.str();
}

uint64_t Program::hash() const {
  // FNV-1a over the semantically meaningful fields (never the raw struct
  // bytes -- padding would leak indeterminate values into the key).
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(code.size()));
  for (const Instr& in : code) {
    mix(static_cast<uint64_t>(in.op) | (uint64_t)in.a << 8 |
        (uint64_t)in.b << 24 | (uint64_t)in.c << 40 | (uint64_t)in.flag << 56);
    mix(static_cast<uint64_t>(in.imm));
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(in.fimm));
    __builtin_memcpy(&bits, &in.fimm, sizeof(bits));
    mix(bits);
  }
  mix(static_cast<uint64_t>(n_iregs));
  mix(static_cast<uint64_t>(n_fregs));
  mix(static_cast<uint64_t>(arrays.size()));
  mix(static_cast<uint64_t>(symbols.size()));
  mix(splittable ? 1 : 0);
  // The absint-derived codegen flags change the generated Tier-1 source,
  // so they must key the native cache too.
  mix((use_restrict ? 1 : 0) | (vec_innermost ? 2 : 0));
  return h;
}

}  // namespace dace::rt
