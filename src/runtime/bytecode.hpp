// Stack-free register bytecode for map scopes.
//
// The SDFG executor compiles each top-level map scope (tasklets, inner
// scalar transients, nested sequential maps, symbolic memlet indices) into
// a small register program executed by a switch-dispatch VM.  Loops are
// real instructions, so a whole fused stencil body is one program invoked
// once per state execution.  The outermost loop's bounds live in reserved
// integer registers so CPU-parallel schedules can split the domain across
// worker threads (OpenMP-style static worksharing).
//
// Integer registers hold indices/symbols; floating registers hold values
// (all arithmetic in double; stores cast to the container dtype).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/types.hpp"

namespace dace::rt {

enum class Op : uint8_t {
  // integer
  IConst,   // i[a] = imm
  ISym,     // i[a] = symbol_slot[imm]
  IMov,     // i[a] = i[b]
  IAdd, ISub, IMul, IFloorDiv, IMod, IMin, IMax,  // i[a] = i[b] . i[c]
  // control flow
  Jmp,      // goto imm
  JGe,      // if i[a] >= i[b] goto imm
  // float
  FConst,   // f[a] = fimm
  FSym,     // f[a] = (double)symbol_slot[imm]
  FFromI,   // f[a] = (double)i[b]
  Load,     // f[a] = array[imm][i[b]]
  Store,    // array[imm][i[b]] = cast(f[a])
  StoreWcr, // array[imm][i[b]] .wcr= f[a]; c = wcr kind; flag = atomic
  FAdd, FSub, FMul, FDiv, FPow, FMod, FMin, FMax,        // f[a] = f[b] . f[c]
  FLt, FLe, FGt, FGe, FEq, FNe, FAnd, FOr,
  FNeg, FAbs, FExp, FLog, FSqrt, FSin, FCos, FTanh, FFloor, FNot,  // f[a]=.f[b]
  FSelect,  // f[a] = f[b] != 0 ? f[c] : f[imm]
  Guard,    // trap unless 0 <= i[a] < i[b]; imm = array slot (diagnostics)
  Halt,
};

struct Instr {
  Op op = Op::Halt;
  uint16_t a = 0, b = 0, c = 0;
  uint8_t flag = 0;
  int64_t imm = 0;
  double fimm = 0;
};

/// Runtime binding of one array slot.
struct ArrayRef {
  double* base = nullptr;
  ir::DType dtype = ir::DType::f64;
};

/// Execution statistics used by the device cost models.
struct VMStats {
  uint64_t flops = 0;       // arithmetic float instructions
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t wcr_stores = 0;
  uint64_t instrs = 0;      // dispatched VM instructions

  VMStats& operator+=(const VMStats& o) {
    flops += o.flops;
    loads += o.loads;
    stores += o.stores;
    wcr_stores += o.wcr_stores;
    instrs += o.instrs;
    return *this;
  }
};

struct Program {
  std::vector<Instr> code;
  int n_iregs = 0;
  int n_fregs = 0;
  std::vector<std::string> arrays;   // slot -> container name
  std::vector<std::string> symbols;  // slot -> symbol name
  // When splittable, i[0]/i[1] are the outer loop's begin/end, set by the
  // caller per chunk; the compiled code reads rather than computes them.
  bool splittable = false;
  // Set by the map compiler from interval-analysis facts (absint):
  // use_restrict asserts the array slots bind non-overlapping buffers in
  // Tier-1 code (the executor verifies at dispatch time and falls back to
  // the VM on overlap); vec_innermost marks the innermost loop free of
  // loop-carried dependences, letting codegen emit a structured
  // vectorizable loop.
  bool use_restrict = false;
  bool vec_innermost = false;

  int array_slot(const std::string& name) {
    for (size_t i = 0; i < arrays.size(); ++i) {
      if (arrays[i] == name) return (int)i;
    }
    arrays.push_back(name);
    return (int)arrays.size() - 1;
  }
  int symbol_slot(const std::string& name) {
    for (size_t i = 0; i < symbols.size(); ++i) {
      if (symbols[i] == name) return (int)i;
    }
    symbols.push_back(name);
    return (int)symbols.size() - 1;
  }
  std::string disassemble() const;

  /// Stable fingerprint of the instruction stream and register/slot
  /// layout.  Two programs with equal hashes execute identically for the
  /// same runtime bindings; the native tier keys its code cache on this
  /// (combined with the bound array dtypes).
  uint64_t hash() const;
};

/// Execute `prog`. `arrays`/`syms` are indexed by the program's slots.
/// For splittable programs the caller presets i0/i1 via lo/hi.
void vm_run(const Program& prog, const std::vector<ArrayRef>& arrays,
            const std::vector<int64_t>& syms, int64_t lo, int64_t hi,
            VMStats* stats);

}  // namespace dace::rt
