// Differential SDFG fuzzer (the crash-safety counterpart of the chaos
// harness): a seeded generator of random well-typed DaCeLang programs --
// elementwise expressions, broadcasts, slices, matrix products, WCR
// accumulations, dace.map scopes and nested control flow -- executed
// differentially across the eager interpreter, the Tier-0 VM, the
// optimized VM and the auto-optimized pipeline.  Any divergence or
// uncontained crash is a compiler bug; the greedy minimizer shrinks the
// offending program before it is written to the reproducer corpus.
//
// Everything is deterministic: the same seed yields the same program,
// the same symbol sizes and the same input data, so corpus entries
// replay exactly (ctest -L fuzz, tools/sdfg-fuzz).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "runtime/executor.hpp"

namespace dace::fuzz {

/// Knobs for the program generator (defaults exercise everything).
struct FuzzOptions {
  int min_statements = 3;
  int max_statements = 7;
  bool allow_maps = true;        // dace.map scopes (incl. WCR bodies)
  bool allow_control_flow = true;  // if/else over symbols, range loops
  bool allow_matmul = true;      // @, np.outer
  bool allow_reductions = true;  // np.sum / np.max
  bool allow_slices = true;      // shifted-slice assignments, stencils
  bool allow_broadcast = true;   // (N,M) op (M,) / scalar broadcasts
};

/// Deterministic generator: same seed -> same program text.
std::string generate_program(uint64_t seed, const FuzzOptions& opts = {});

/// Symbol sizes used for a given seed (small: N, M in [3, 7]).
sym::SymbolMap symbol_values(uint64_t seed);

/// Deterministic input bindings for the generated program's signature.
rt::Bindings make_inputs(uint64_t seed);

/// Deep copy (generated bindings are shared views; each config needs its
/// own buffers).
rt::Bindings clone_bindings(const rt::Bindings& b);

/// The execution configurations compared by the differential harness.
/// Tier1Native (auto-opt + synchronous JIT promotion at threshold 1)
/// only joins the comparison when DACE_FUZZ_TIER1=1: it needs a host
/// compiler and exercises the kernel-plan codegen path end to end.
/// AutoOpt and Tier1Native run one executor twice and compare the second
/// run, so executor plan reuse is checked against the oracle.
enum class Config { Eager, Tier0VM, OptimizedVM, AutoOpt, Tier1Native };
constexpr int kNumConfigs = 4;  // default configs (Tier1Native is opt-in)
const char* config_name(Config c);

/// How one differential run ended.
enum class DiffStatus {
  Ok,            // all configs agreed
  CompileError,  // the program did not compile (contained diagnostics)
  ConfigError,   // a config rejected a program another config accepted
  Mismatch,      // outputs diverged between configs
  Crash,         // an uncontained (non-dace::Error) exception escaped
};
const char* diff_status_name(DiffStatus s);

struct DiffResult {
  DiffStatus status = DiffStatus::Ok;
  std::string detail;  // which config / output / error text
  bool failed() const { return status != DiffStatus::Ok; }
};

/// Execute `source` under every configuration with seed-derived inputs
/// and compare all outputs against the eager interpreter.  Never throws;
/// crashes of the compiler or runtime are contained and reported.
DiffResult run_differential(const std::string& source, uint64_t seed);

/// Greedy delta-debugging minimizer: repeatedly deletes chunks of body
/// lines while `still_failing` holds on the shrunk program.  Returns the
/// smallest failing program found.
std::string minimize(const std::string& source,
                     const std::function<bool(const std::string&)>&
                         still_failing);

}  // namespace dace::fuzz
