// Kernel planning for Tier-1 map codegen (the shape-specialization layer
// between the bytecode program and C++ emission).
//
// The map compiler emits every scope as a canonical goto loop nest:
//
//     IMov  v, begin
//   h: JGe  v, end -> l+1
//     ... body ...
//     IAdd  v, v, step        <- one of a trailing run of induction
//     IAdd  off, off, delta      increments (strength reduction adds
//   l: Jmp  h                    offset updates after the var step)
//
// plan_kernel() reconstructs that nest from the *optimized* instruction
// stream -- crucially accepting multi-increment latches, which the older
// innermost-`for` detector in program_codegen could not -- and decides a
// KernelPlan the emitter executes:
//
//   - structured `for` emission for the whole nest (gotos stay the
//     fallback when reconstruction fails),
//   - WCR sinking: an innermost StoreWcr whose address is loop-invariant
//     accumulates into a scalar register and combines once after the
//     loop (one atomic per output element instead of one per iteration),
//   - unroll-and-jam register tiling of the loop enclosing a sunk
//     accumulator (matmul-shaped nests get `jam` parallel accumulators
//     in registers; map semantics make iterations reorderable),
//   - innermost unrolling by the vector width with a scalar epilogue for
//     non-divisible trip counts.
//
// The plan is a pure function of the Program, so Program::hash keys
// its native-cache entries.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "runtime/bytecode.hpp"

namespace dace::cg {

/// One reconstructed loop of the nest, plus the decisions made for it.
struct PlanLoop {
  size_t header = 0;       // pc of the JGe exit test
  size_t latch = 0;        // pc of the backward Jmp
  size_t latch_begin = 0;  // first pc of the trailing induction-inc run
  int var = -1;            // loop variable register (JGe.a)
  int end_reg = -1;        // exclusive bound register (JGe.b)
  int64_t const_step = 0;  // > 0 when the step is a known constant
  int parent = -1;         // index into KernelPlan::loops, -1 = top level
  std::vector<int> children;
  bool has_guard = false;  // a Guard op exists inside (header, latch)

  // Decisions ---------------------------------------------------------------
  int unroll = 1;              // innermost sequential unroll factor
  int jam = 1;                 // unroll-and-jam factor (this = jam loop)
  std::vector<size_t> sinks;   // pcs of StoreWcr ops sunk to accumulators
  // Registers private to one jam lane: everything written in the direct
  // body (bank 'i' or 'f', register index).  Lanes >= 1 get fresh names.
  std::vector<std::pair<char, int>> renames;

  bool innermost() const { return children.empty(); }
};

struct KernelPlan {
  bool valid = false;           // nest reconstructed; structured emission ok
  std::vector<PlanLoop> loops;  // sorted by header pc
  int atomic_stores = 0;        // StoreWcr ops that combine atomically

  /// Index of the loop whose header is at `pc`, or -1.
  int loop_at(size_t pc) const {
    for (size_t i = 0; i < loops.size(); ++i)
      if (loops[i].header == pc) return (int)i;
    return -1;
  }

  /// True when the plan goes beyond plain structured emission.
  bool any_transform() const {
    for (const PlanLoop& l : loops)
      if (l.unroll > 1 || l.jam > 1 || !l.sinks.empty()) return true;
    return false;
  }

  /// Compact human-readable summary, e.g. "loops=3 jam=4 unroll=4 sink=1
  /// atomic=0" or "goto-fallback atomic=1".
  std::string describe() const;
};

/// Reconstruct the loop nest of a map-scope program and plan its Tier-1
/// emission.  Returns an invalid plan (valid == false) when the control
/// flow is not a properly nested canonical loop forest; codegen then
/// falls back to the goto form.
KernelPlan plan_kernel(const rt::Program& prog);

}  // namespace dace::cg
