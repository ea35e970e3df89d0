// SDFG executor (CPU backend).
//
// Interprets an SDFG as a state machine over interstate edges; inside each
// state, dataflow executes in topological order.  Map scopes are compiled
// once to bytecode (runtime/bytecode.hpp) and run through the VM --
// CPU-parallel schedules split the outermost dimension across the global
// thread pool.  Library nodes dispatch through an extensible registry
// (Section 3.2: library specialization); the distributed and device
// modules register additional handlers (comm::*, PBLAS, ...).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "ir/sdfg.hpp"
#include "runtime/bytecode.hpp"
#include "runtime/instrumentation.hpp"
#include "runtime/tensor.hpp"
#include "runtime/tiering.hpp"

namespace dace::rt {

class Executor;

/// Named tensor arguments of an SDFG invocation.
using Bindings = std::map<std::string, Tensor>;

/// Handler executing one library node occurrence.
using LibraryHandler =
    std::function<void(Executor&, const ir::State&, int node_id)>;

/// Registry of library-node implementations, keyed by op name.
class LibraryRegistry {
 public:
  static LibraryRegistry& global();
  void register_op(const std::string& op, LibraryHandler h);
  const LibraryHandler* find(const std::string& op) const;

 private:
  std::map<std::string, LibraryHandler> handlers_;
};

struct ExecutorOptions {
  bool parallel = true;    // honor CPU_Multicore schedules
  bool validate = true;    // validate the SDFG before first run
  bool analyze = false;    // run the static analyzer before first run and
                           // refuse to execute on error-severity findings
                           // (also enabled by DACE_VERIFY_PASSES=1)
  bool collect_stats = true;
  /// Called after each top-level map execution ("map"), library call
  /// ("library") or top-level tasklet ("tasklet") with the statistics
  /// delta it produced. Device simulators charge launch costs here.
  std::function<void(const std::string& kind, const VMStats& delta)>
      launch_hook;
  /// Called after each state finishes executing, with the state and the
  /// symbol values in effect.  The differential fuzzer uses it to check
  /// sentinel invariants (e.g. that statically-dead writes stay dead).
  std::function<void(const ir::State& st, const sym::SymbolMap& syms)>
      post_state_hook;
  /// Cooperative cancellation: polled at state boundaries, before each
  /// map dispatch, and between parallel map chunks (so it runs on pool
  /// worker threads and must be thread-safe).  Returning true aborts the
  /// run with dace::Error("cancelled: ...").  Tensors and the thread
  /// pool stay reusable after a cancelled run (sdfg-serve deadlines).
  std::function<bool()> cancel_check;
};

/// Compile a map scope into a VM program (exposed for the device
/// simulators, which reuse the compiler with their own execution policy).
Program compile_map_scope(const ir::SDFG& sdfg, const ir::State& st,
                          int entry);

class Executor {
 public:
  explicit Executor(const ir::SDFG& sdfg, ExecutorOptions opts = {});

  /// Execute with the given argument tensors and symbol values.
  /// Tensors are shared views: outputs are written in place.
  void run(Bindings& args, const sym::SymbolMap& symbols);

  // -- services for library handlers ----------------------------------------
  const ir::SDFG& sdfg() const { return sdfg_; }
  sym::SymbolMap& symbols() { return syms_; }
  /// Tensor bound to a container (argument or transient).
  Tensor& tensor(const std::string& container);
  /// Tensor view selected by a memlet (all dims kept).
  Tensor view(const ir::Memlet& m);
  /// View with dims outside `viewdims` (comma-separated container dims)
  /// dropped; those dims must have unit extent.
  Tensor view(const ir::Memlet& m, const std::string& viewdims);
  int64_t eval(const sym::Expr& e) const;

  /// Chunk count for `total_ns` of estimated work over `iters`
  /// independent iterations: 1 (run inline, the pool stays asleep) when
  /// cheaper than DACE_CHUNK_MIN_NS, else about DACE_CHUNK_TARGET_NS of
  /// work per chunk but at least `min_chunks`, capped by `iters` and the
  /// pool size.  Shared by the map scheduler and the library handlers.
  static int work_chunks(double total_ns, int64_t iters, int min_chunks = 1);

  VMStats& stats() { return stats_; }
  /// Number of top-level map executions ("kernel launches").
  int64_t map_launches() const { return map_launches_; }
  int64_t library_calls() const { return library_calls_; }
  /// Map executions dispatched to Tier-1 native code (subset of
  /// map_launches; native runs do not accumulate VMStats).
  int64_t native_launches() const { return native_launches_; }
  /// Programs promoted to Tier 1 (native compilations requested).
  int64_t native_promotions() const { return native_promotions_; }

  const ExecutorOptions& options() const { return opts_; }

  /// Per-node instrumentation observer (paper-style InstrumentationType).
  /// Non-intrusive: measuring never affects tiering decisions, unlike
  /// launch_hook (which pins maps to Tier 0 for the device cost models).
  const Instrumenter& instrumentation() const { return *inst_; }

  /// Opaque per-rank communication context used by distributed handlers.
  void* comm_context = nullptr;

 private:
  void allocate_transients();
  void notify_launch(const std::string& kind, const VMStats& before);
  VMStats stats_delta(const VMStats& before) const;
  void execute_state(const ir::State& st);
  void execute_tasklet(const ir::State& st, int node);
  /// `tier_used`/`iters_out` report which tier dispatched the map and how
  /// many outer iterations it ran (instrumentation bookkeeping).
  void execute_map(const ir::State& st, int node, int* tier_used,
                   int64_t* iters_out);
  void execute_library(const ir::State& st, int node);
  void execute_nested(const ir::State& st, int node);

  /// Per-map tiered execution state: the (optimized) Tier-0 bytecode plus
  /// promotion bookkeeping and, once hot, the shared native handle.
  struct TieredProgram {
    Program prog;
    int64_t iterations = 0;      // cumulative, drives promotion
    bool native_failed = false;  // pinned to Tier 0 after a failed build
    std::shared_ptr<NativeProgram> native;
    // Measured per-iteration cost (EMA over launches, ns), indexed by
    // tier (0 = VM, 1 = native); 0 = not yet measured.  Feeds the
    // cost-driven chunk scheduler.
    double ns_per_iter[2] = {0.0, 0.0};
    bool plan_reported = false;  // kernel-plan obs instant emitted once
  };

  /// Cost-driven chunk count for a parallel dispatch at `tier`: sized so
  /// each chunk runs ~DACE_CHUNK_TARGET_NS of measured (or estimated)
  /// work, 1 when the whole map is cheaper than DACE_CHUNK_MIN_NS (the
  /// pool is then skipped entirely).  Plan-off programs keep the
  /// historical one-chunk-per-worker split.
  static int plan_chunks(const TieredProgram& tp, int tier, int64_t iters);
  /// Fold a measured launch into the per-iteration cost EMA.
  static void update_cost(TieredProgram& tp, int tier, int64_t iters,
                          int64_t dur_ns);

  const ir::SDFG& sdfg_;
  ExecutorOptions opts_;
  sym::SymbolMap syms_;
  Bindings env_;
  Bindings persistent_;  // persistent transients survive across run()
  // Compiled map programs, keyed by (state id, entry node id).
  std::map<std::pair<int, int>, TieredProgram> programs_;
  // Child executors for nested SDFG nodes.
  std::map<std::pair<int, int>, std::unique_ptr<Executor>> children_;
  VMStats stats_;
  std::unique_ptr<Instrumenter> inst_;
  TierConfig tier_cfg_;
  bool bc_opt_ = true;
  int64_t map_launches_ = 0;
  int64_t library_calls_ = 0;
  int64_t native_launches_ = 0;
  int64_t native_promotions_ = 0;
  bool validated_ = false;
};

/// One-call convenience: execute an SDFG.
void execute(const ir::SDFG& sdfg, Bindings& args,
             const sym::SymbolMap& symbols, ExecutorOptions opts = {});

}  // namespace dace::rt
