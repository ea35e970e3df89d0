// SDFG executor (CPU backend).
//
// Interprets an SDFG as a state machine over interstate edges; inside each
// state, dataflow executes in topological order.  Map scopes are compiled
// once to bytecode (runtime/bytecode.hpp) and run through the VM --
// CPU-parallel schedules split the outermost dimension across the global
// thread pool.  Library nodes dispatch through an extensible registry
// (Section 3.2: library specialization); the distributed and device
// modules register additional handlers (comm::*, PBLAS, ...).
//
// Execution plan: the graph is analysed once per Executor, not per state
// visit.  Each state gets a cached step list (its top-level nodes in
// topological order, with their compiled map program or child executor)
// and the indices of its out-going interstate edges; each map program
// binds its operand tensors and symbol cells once per run() and reuses
// its argument buffers across launches.  docs/RUNTIME.md ("Executor
// plan") describes what is built when.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

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

/// Immutability contract: the SDFG must not change after an Executor's
/// first run().  The executor caches per-state step lists, interstate
/// edge lists, compiled map programs, child executors and the SDFG's free
/// symbols on first use, and never re-reads the graph structure.  Build a
/// new Executor after transforming the SDFG.
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
  /// cheaper than 20 us, else about 100 us of work per chunk but at
  /// least `min_chunks`, capped by `iters` and the pool size.  Shared by
  /// the map scheduler and the library handlers.
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
    // Run-bound slots (bind_program): operand buffers and symbol cells
    // resolved at the program's first launch in run `bound_run`.  env_
    // and the symbol map only gain entries during a run, so the pointers
    // stay valid until the next run() rebinds them.
    uint64_t bound_run = 0;
    std::vector<ArrayRef> arrays;
    std::vector<double*> bases;
    std::vector<size_t> bytes;  // extent of each operand buffer
    std::vector<const int64_t*> sym_slots;
    std::vector<int64_t> symvals;  // refreshed from sym_slots per launch
  };

  /// One top-level node of a state, in execution order.
  struct Step {
    int node = -1;
    ir::NodeKind kind = ir::NodeKind::Access;
    std::unique_ptr<TieredProgram> prog;  // MapEntry: built at first launch
    std::unique_ptr<Executor> child;      // NestedSDFG: built at first visit
    const LibraryHandler* handler = nullptr;  // Library: found at first call
  };

  /// Per-state plan, built at the state's first visit.
  struct StatePlan {
    bool built = false;
    std::vector<Step> steps;
    std::vector<size_t> out_edges;  // indices into interstate_edges()
  };

  /// Plan builder: the SDFG's free symbols and one empty StatePlan per
  /// state at the first run; each state's steps at its first visit.
  void build_plan();
  StatePlan& state_plan(int sid);
  void bind_program(TieredProgram& tp);
  void allocate_transients();
  void notify_launch(const char* kind, const VMStats& before);
  VMStats stats_delta(const VMStats& before) const;
  void execute_state(const ir::State& st, int sid, StatePlan& plan);
  void execute_tasklet(const ir::State& st, int node);
  /// `tier_used`/`iters_out` report which tier dispatched the map and how
  /// many outer iterations it ran (instrumentation bookkeeping).
  void execute_map(const ir::State& st, Step& entry, int* tier_used,
                   int64_t* iters_out);
  void execute_library(const ir::State& st, Step& step);
  void execute_nested(const ir::State& st, Step& step);

  /// Cost-driven chunk count for a parallel dispatch at `tier`: sized so
  /// each chunk runs ~100 us of measured (or estimated) work, 1 when the
  /// whole map is cheaper than 20 us (the pool is then skipped entirely).
  static int plan_chunks(const TieredProgram& tp, int tier, int64_t iters);
  /// Fold a measured launch into the per-iteration cost EMA.
  static void update_cost(TieredProgram& tp, int tier, int64_t iters,
                          int64_t dur_ns);

  const ir::SDFG& sdfg_;
  ExecutorOptions opts_;
  sym::SymbolMap syms_;
  Bindings env_;
  Bindings persistent_;  // persistent transients survive across run()
  // Execution plan (see the immutability contract above), by state id.
  std::vector<StatePlan> plans_;
  std::vector<std::string> free_symbols_;  // checked at every run()
  std::vector<int64_t> assign_vals_;  // interstate assignment scratch
  uint64_t run_gen_ = 0;              // run() counter, for slot binding
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
