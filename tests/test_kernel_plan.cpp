// Kernel-planner tests: loop-nest reconstruction from optimized bytecode,
// WCR sinking and unroll-and-jam legality, the goto fallback for flow
// the planner rejects (run natively against the VM), tiling edge cases
// (non-divisible trip counts, zero/one-trip loops, epilogue
// correctness), and the cost-driven chunked ThreadPool::parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codegen/jit.hpp"
#include "codegen/kernel_plan.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "runtime/bytecode_opt.hpp"
#include "runtime/executor.hpp"
#include "runtime/thread_pool.hpp"
#include "transforms/auto_optimize.hpp"
#include "transforms/map_transforms.hpp"

namespace dace {
namespace {

using rt::Bindings;
using rt::Instr;
using rt::Op;
using rt::Program;

/// Scoped environment override; restores the previous value on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_, old_;
  bool had_old_ = false;
};

const char* kMatmulSource = R"(
@dace.program
def matmul(A: dace.float64[NI, NK], B: dace.float64[NK, NJ],
           C: dace.float64[NI, NJ]):
    for i, j, k in dace.map[0:NI, 0:NJ, 0:NK]:
        C[i, j] += A[i, k] * B[k, j]
)";

/// Compile the first top-level map of `source` to an optimized program,
/// mirroring the executor's Tier-0/Tier-1 pipeline.
Program compile_first_map(const std::string& source) {
  auto sdfg = fe::compile_to_sdfg(source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  for (int s = 0; s < sdfg->num_states(); ++s) {
    const ir::State& st = sdfg->state(s);
    for (int id : st.node_ids()) {
      if (st.node(id)->kind == ir::NodeKind::MapEntry &&
          st.scope_of(id) == -1) {
        Program p = rt::compile_map_scope(*sdfg, st, id);
        rt::optimize_program(p);
        return p;
      }
    }
  }
  ADD_FAILURE() << "no top-level map in source";
  return {};
}

// ---------------------------------------------------------------------------
// Plan reconstruction and decisions
// ---------------------------------------------------------------------------

TEST(KernelPlan, MatmulNestGetsJamAndSink) {
  Program p = compile_first_map(kMatmulSource);
  cg::KernelPlan plan = cg::plan_kernel(p);
  ASSERT_TRUE(plan.valid);
  ASSERT_EQ(plan.loops.size(), 3u);
  // The innermost (k) loop accumulates into an invariant C[i,j] slot: its
  // StoreWcr sinks, and the enclosing (j) loop unroll-and-jams.
  int jammed = 0, sunk = 0;
  for (const auto& l : plan.loops) {
    if (l.jam > 1) ++jammed;
    if (l.innermost()) sunk += (int)l.sinks.size();
  }
  EXPECT_EQ(jammed, 1);
  EXPECT_EQ(sunk, 1);
  EXPECT_TRUE(plan.any_transform());
  EXPECT_NE(plan.describe().find("jam=4"), std::string::npos)
      << plan.describe();
}

TEST(KernelPlan, MatmulSourceIsStructuredWithAccumulators) {
  Program p = compile_first_map(kMatmulSource);
  std::vector<ir::DType> dts(p.arrays.size(), ir::DType::f64);
  std::string src = cg::generate_map_source(p, dts, "kern");
  EXPECT_EQ(src.find("goto"), std::string::npos);
  EXPECT_NE(src.find("for (;"), std::string::npos);
  EXPECT_NE(src.find("acc"), std::string::npos);
  // One combine per (i, j) element per lane, not one per k step.  The
  // split parameter i owns row C[i, :], so the combine is a plain +=.
  EXPECT_NE(src.find("*(A2 + "), std::string::npos);
  EXPECT_EQ(src.find("dacepp_wcr_atomic(A"), std::string::npos);
}

// ---------------------------------------------------------------------------
// WCR atomicity: a store is atomic only when two chunks of the split
// parameter can reach its target, and CPU auto_optimize runs reduced
// parameters innermost so that the split parameter owns its outputs.
// ---------------------------------------------------------------------------

/// Top-level maps of a suite kernel after auto_optimize for `device`.
struct OptimizedKernel {
  std::unique_ptr<ir::SDFG> sdfg;
  std::vector<std::pair<const ir::State*, int>> maps;
};

OptimizedKernel optimize_kernel(const std::string& name,
                                ir::DeviceType device) {
  OptimizedKernel k{fe::compile_to_sdfg(kernels::kernel(name).source), {}};
  xf::auto_optimize(*k.sdfg, device);
  for (int s : k.sdfg->state_ids()) {
    const ir::State& st = k.sdfg->state(s);
    for (int id : st.node_ids())
      if (st.node(id)->kind == ir::NodeKind::MapEntry && st.scope_of(id) == -1)
        k.maps.emplace_back(&st, id);
  }
  return k;
}

/// Parameters of the one top-level map of `k` that has a WCR store.
std::vector<std::string> wcr_map_params(const OptimizedKernel& k) {
  std::vector<std::string> params;
  for (auto [st, id] : k.maps) {
    Program p = rt::compile_map_scope(*k.sdfg, *st, id);
    for (const Instr& in : p.code)
      if (in.op == Op::StoreWcr) {
        EXPECT_TRUE(params.empty()) << "two WCR maps";
        params = st->node_as<const ir::MapEntry>(id)->params;
        break;
      }
  }
  return params;
}

/// The Tier-1 plan of the top-level map of `k` that has a WCR store.
cg::KernelPlan wcr_map_plan(const OptimizedKernel& k) {
  for (auto [st, id] : k.maps) {
    Program p = rt::compile_map_scope(*k.sdfg, *st, id);
    rt::optimize_program(p);
    for (const Instr& in : p.code)
      if (in.op == Op::StoreWcr) return cg::plan_kernel(p);
  }
  ADD_FAILURE() << "no WCR map";
  return {};
}

TEST(WcrOwnership, CpuOrdersResnetReductionInnermost) {
  using V = std::vector<std::string>;
  EXPECT_EQ(wcr_map_params(optimize_kernel("resnet", ir::DeviceType::CPU)),
            (V{"__i0", "__i1", "dj"}));
  // GPU and FPGA keep the reduced dimension first: Fig. 8's resnet
  // anomaly is the GPU model charging exactly these WCR updates.
  for (auto dev : {ir::DeviceType::GPU, ir::DeviceType::FPGA}) {
    V params = wcr_map_params(optimize_kernel("resnet", dev));
    ASSERT_FALSE(params.empty());
    EXPECT_EQ(params.front(), "dj");
  }
}

TEST(WcrOwnership, OtherMapsKeepTheirOrder) {
  // WCR-free maps, and matmul whose split i already indexes C[i, j].
  for (const char* name : {"jacobi_2d", "heat_3d", "gemver", "matmul"}) {
    auto cpu = optimize_kernel(name, ir::DeviceType::CPU);
    auto gpu = optimize_kernel(name, ir::DeviceType::GPU);
    ASSERT_EQ(cpu.maps.size(), gpu.maps.size()) << name;
    for (size_t m = 0; m < cpu.maps.size(); ++m) {
      auto [cs, cid] = cpu.maps[m];
      auto [gs, gid] = gpu.maps[m];
      EXPECT_EQ(cs->node_as<const ir::MapEntry>(cid)->params,
                gs->node_as<const ir::MapEntry>(gid)->params)
          << name;
    }
  }
  // The pass itself leaves a WCR-free map alone.
  auto g = fe::compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N, M], B: dace.float64[M, N]):
    for i, j in dace.map[0:N, 0:M]:
        B[j, i] = A[i, j]
)");
  EXPECT_FALSE(xf::order_reduced_params_last(*g));
}

TEST(WcrOwnership, ResnetPlanSinksWithoutAtomics) {
  cg::KernelPlan plan =
      wcr_map_plan(optimize_kernel("resnet", ir::DeviceType::CPU));
  ASSERT_TRUE(plan.valid);
  EXPECT_EQ(plan.atomic_stores, 0) << plan.describe();
  size_t sinks = 0;
  for (const auto& l : plan.loops) sinks += l.sinks.size();
  EXPECT_GE(sinks, 1u) << plan.describe();
  EXPECT_NE(plan.describe().find("atomic=0"), std::string::npos);
}

TEST(WcrOwnership, SunkCombinesOfNbodyAndMatmulArePlain) {
  for (const char* name : {"nbody", "matmul"}) {
    cg::KernelPlan plan =
        wcr_map_plan(optimize_kernel(name, ir::DeviceType::CPU));
    ASSERT_TRUE(plan.valid) << name;
    size_t sinks = 0;
    for (const auto& l : plan.loops) sinks += l.sinks.size();
    EXPECT_GE(sinks, 1u) << name << ": " << plan.describe();
    EXPECT_EQ(plan.atomic_stores, 0) << name << ": " << plan.describe();
  }
}

TEST(WcrOwnership, GoFastSharedScalarFlushStaysAtomic) {
  cg::KernelPlan plan =
      wcr_map_plan(optimize_kernel("go_fast", ir::DeviceType::CPU));
  EXPECT_EQ(plan.atomic_stores, 1) << plan.describe();
}

TEST(WcrOwnership, AbsintOffOrAllKeepsEveryStoreAtomic) {
  for (const char* mode : {"0", "all"}) {
    EnvGuard absint("DACE_ABSINT", mode);
    for (const char* name : {"resnet", "matmul", "nbody"}) {
      cg::KernelPlan plan =
          wcr_map_plan(optimize_kernel(name, ir::DeviceType::CPU));
      EXPECT_GE(plan.atomic_stores, 1) << mode << " " << name;
    }
  }
}

// A splittable WCR loop whose store address is the loop variable: the
// address is not invariant, so no sink and no jam -- and the structured
// emission must still be exact.
Program varying_addr_wcr_program() {
  Program p;
  p.splittable = true;
  p.n_iregs = 5;  // i0/i1 bounds, i2 var, i3 zero, i4 step
  p.n_fregs = 1;
  p.arrays = {"A", "B"};
  p.code = {
      Instr{.op = Op::IConst, .a = 3, .imm = 0},
      Instr{.op = Op::IConst, .a = 4, .imm = 1},
      Instr{.op = Op::IMov, .a = 2, .b = 0},
      Instr{.op = Op::JGe, .a = 2, .b = 1, .imm = 8},
      Instr{.op = Op::Load, .a = 0, .b = 2, .imm = 0},
      Instr{.op = Op::StoreWcr, .a = 0, .b = 2, .c = 1, .flag = 1, .imm = 1},
      Instr{.op = Op::IAdd, .a = 2, .b = 2, .c = 4},
      Instr{.op = Op::Jmp, .imm = 3},
      Instr{.op = Op::Halt},
  };
  return p;
}

TEST(KernelPlan, VaryingWcrAddressExcludedFromSinkAndJam) {
  Program p = varying_addr_wcr_program();
  cg::KernelPlan plan = cg::plan_kernel(p);
  ASSERT_TRUE(plan.valid);
  ASSERT_EQ(plan.loops.size(), 1u);
  EXPECT_TRUE(plan.loops[0].sinks.empty());
  EXPECT_EQ(plan.loops[0].jam, 1);
  // Unrolling the innermost loop is still fine (sequential replication).
  EXPECT_EQ(plan.loops[0].unroll, 4);
}

TEST(KernelPlan, GuardedLoopExcludedFromSinking) {
  Program p = varying_addr_wcr_program();
  // Make the address invariant but insert a Guard: a trap mid-loop must
  // leave the partial WCR updates of preceding iterations in memory,
  // which a sunk accumulator cannot reproduce.
  p.code[5].b = 3;
  p.code.insert(p.code.begin() + 4,
                Instr{.op = Op::Guard, .a = 2, .b = 1, .imm = 0});
  p.code[3].imm = 9;  // JGe exit past the shifted latch
  p.code[8].imm = 3;  // latch Jmp back to the header
  cg::KernelPlan plan = cg::plan_kernel(p);
  ASSERT_TRUE(plan.valid);
  ASSERT_EQ(plan.loops.size(), 1u);
  EXPECT_TRUE(plan.loops[0].has_guard);
  EXPECT_TRUE(plan.loops[0].sinks.empty());
}

// Control flow the planner rejects takes the goto emitter, which no
// other test runs natively (no sdfg_fuzz_plan_1 seed reaches it): a
// forward jump in place of the latch, and a loop with two back edges to
// one header (below index 4 the body skips every other element).  Each
// must emit gotos and match the Tier-0 VM bit for bit over two chunks of
// a 37-element domain.
TEST(KernelPlan, IrreducibleFlowFallsBackToGotos) {
  Program forward = varying_addr_wcr_program();
  forward.code[7].imm = 8;  // forward jump: no longer a canonical latch
  Program two_latch = forward;
  two_latch.n_iregs = 6;  // i0/i1 bounds, i2 var, i4 step, i5 skip limit
  two_latch.code = {
      Instr{.op = Op::IConst, .a = 4, .imm = 1},
      Instr{.op = Op::IConst, .a = 5, .imm = 4},
      Instr{.op = Op::IMov, .a = 2, .b = 0},
      Instr{.op = Op::JGe, .a = 2, .b = 1, .imm = 10},
      Instr{.op = Op::Load, .a = 0, .b = 2, .imm = 0},
      Instr{.op = Op::StoreWcr, .a = 0, .b = 2, .c = 1, .flag = 1, .imm = 1},
      Instr{.op = Op::IAdd, .a = 2, .b = 2, .c = 4},
      Instr{.op = Op::JGe, .a = 2, .b = 5, .imm = 3},
      Instr{.op = Op::IAdd, .a = 2, .b = 2, .c = 4},
      Instr{.op = Op::Jmp, .imm = 3},
      Instr{.op = Op::Halt},
  };
  const int64_t n = 37;
  const std::pair<int64_t, int64_t> chunks[] = {{0, 10}, {10, n}};
  for (const auto& [name, p] : {std::pair{"kern_forward", forward},
                                std::pair{"kern_two_latch", two_latch}}) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(cg::plan_kernel(p).valid);
    std::vector<ir::DType> dts(p.arrays.size(), ir::DType::f64);
    EXPECT_NE(cg::generate_map_source(p, dts, name).find("goto"),
              std::string::npos);

    std::vector<double> a(n), vm(n, 0.0), native(n, 0.0);
    for (int64_t i = 0; i < n; ++i) a[i] = 0.1 * (double)(i % 7) - 0.35;
    std::vector<rt::ArrayRef> refs{{a.data(), ir::DType::f64},
                                   {vm.data(), ir::DType::f64}};
    for (auto [lo, hi] : chunks) rt::vm_run(p, refs, {}, lo, hi, nullptr);
    cg::CompiledMapNative fn = cg::compile_map_native(p, dts, name);
    ASSERT_TRUE(fn.valid()) << "no native build";
    double* arrays[] = {a.data(), native.data()};
    for (auto [lo, hi] : chunks) {
      int64_t err = 0;
      fn.fn()(arrays, nullptr, lo, hi, &err);
      EXPECT_EQ(err, 0);
    }
    for (int64_t i = 0; i < n; ++i)
      EXPECT_EQ(std::bit_cast<uint64_t>(native[i]),
                std::bit_cast<uint64_t>(vm[i]))
          << "B[" << i << "] native " << native[i] << " vm " << vm[i];
  }
}

// ---------------------------------------------------------------------------
// Tiling edge cases: trip counts 0/1, non-divisible trips, epilogues.
// The native tier (plan codegen) must agree with the VM bit-for-bit
// within the usual tolerance for every shape.
// ---------------------------------------------------------------------------

class PlanTripCounts
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PlanTripCounts, MatmulAgreesWithVmOnEdgeShapes) {
  auto [ni, nj, nk] = GetParam();
  sym::SymbolMap sizes{{"NI", ni}, {"NJ", nj}, {"NK", nk}};
  const kernels::Kernel& k = kernels::kernel("matmul");
  Bindings vm = k.init(sizes);
  {
    EnvGuard jit("DACEPP_JIT", "0");
    auto sdfg = fe::compile_to_sdfg(k.source);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::execute(*sdfg, vm, sizes);
  }
  Bindings native = k.init(sizes);
  {
    EnvGuard thr("DACEPP_JIT_THRESHOLD", "1");
    EnvGuard sync("DACEPP_JIT_SYNC", "1");
    auto sdfg = fe::compile_to_sdfg(k.source);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::execute(*sdfg, native, sizes);
  }
  EXPECT_TRUE(rt::allclose(native.at("C"), vm.at("C"), 1e-9, 1e-11))
      << "NI=" << ni << " NJ=" << nj << " NK=" << nk << " max diff "
      << rt::max_abs_diff(native.at("C"), vm.at("C"));
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, PlanTripCounts,
    ::testing::Values(std::make_tuple(1, 1, 1),    // single iteration
                      std::make_tuple(1, 4, 3),    // jam exactly once
                      std::make_tuple(3, 5, 4),    // jam + epilogue
                      std::make_tuple(4, 4, 4),    // divisible everywhere
                      std::make_tuple(5, 7, 9),    // nothing divisible
                      std::make_tuple(17, 3, 8),   // jam never fires (nj<4)
                      std::make_tuple(2, 13, 1))); // one-trip inner loop

TEST(PlanTripCounts, ZeroTripInnerLoopLeavesOutputUntouched) {
  // k ranges over [0, NK-1) with NK = 1: zero inner trips, so C must
  // keep its initial pattern exactly (the sunk-combine guard).
  const char* src = R"(
@dace.program
def mm_edge(A: dace.float64[NI, NK], B: dace.float64[NK, NJ],
            C: dace.float64[NI, NJ]):
    for i, j, k in dace.map[0:NI, 0:NJ, 0:NK-1]:
        C[i, j] += A[i, k] * B[k, j]
)";
  sym::SymbolMap sizes{{"NI", 3}, {"NJ", 6}, {"NK", 1}};
  const kernels::Kernel& k = kernels::kernel("matmul");
  Bindings ref = k.init(sizes);
  Bindings got = k.init(sizes);
  {
    EnvGuard thr("DACEPP_JIT_THRESHOLD", "1");
    EnvGuard sync("DACEPP_JIT_SYNC", "1");
    auto sdfg = fe::compile_to_sdfg(src);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::execute(*sdfg, got, sizes);
  }
  EXPECT_TRUE(rt::allclose(got.at("C"), ref.at("C"), 0.0, 0.0))
      << "zero-trip inner loop modified C, max diff "
      << rt::max_abs_diff(got.at("C"), ref.at("C"));
}

class PlanUnrollEpilogue : public ::testing::TestWithParam<int> {};

TEST_P(PlanUnrollEpilogue, ElementwiseAgreesWithVmAtEveryTripCount) {
  int n = GetParam();
  const char* src = R"(
@dace.program
def axpy_edge(x: dace.float64[N], y: dace.float64[N]):
    for i in dace.map[0:N-1]:
        y[i] = y[i] + x[i] * 3.0
)";
  sym::SymbolMap sizes{{"N", n}};
  auto init = [&] {
    Bindings b;
    rt::Tensor x(ir::DType::f64, {n}), y(ir::DType::f64, {n});
    for (int i = 0; i < n; ++i) {
      x.set_flat(i, 0.25 * i - 1.0);
      y.set_flat(i, 1.5 - 0.125 * i);
    }
    b.emplace("x", std::move(x));
    b.emplace("y", std::move(y));
    return b;
  };
  Bindings vm = init();
  {
    EnvGuard jit("DACEPP_JIT", "0");
    auto sdfg = fe::compile_to_sdfg(src);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::execute(*sdfg, vm, sizes);
  }
  Bindings native = init();
  {
    EnvGuard thr("DACEPP_JIT_THRESHOLD", "1");
    EnvGuard sync("DACEPP_JIT_SYNC", "1");
    auto sdfg = fe::compile_to_sdfg(src);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::execute(*sdfg, native, sizes);
  }
  EXPECT_TRUE(rt::allclose(native.at("y"), vm.at("y"), 0.0, 0.0))
      << "N=" << n << " max diff "
      << rt::max_abs_diff(native.at("y"), vm.at("y"));
}

// Trip counts 0, 1, just below/at/above the unroll width, and larger
// non-divisible counts (the map runs [0, N-1) iterations).
INSTANTIATE_TEST_SUITE_P(TripCounts, PlanUnrollEpilogue,
                         ::testing::Values(1, 2, 4, 5, 6, 9, 18));

// ---------------------------------------------------------------------------
// Chunked thread pool
// ---------------------------------------------------------------------------

struct RangeLog {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  std::atomic<int> empties{0};

  void record(int64_t lo, int64_t hi) {
    if (lo >= hi) ++empties;
    std::lock_guard<std::mutex> lk(mu);
    ranges.push_back({lo, hi});
  }

  int64_t covered() {
    std::lock_guard<std::mutex> lk(mu);
    int64_t total = 0;
    for (auto [lo, hi] : ranges) total += hi - lo;
    return total;
  }
};

TEST(ThreadPoolChunks, FewerItersThanWorkersWakesNoEmptyRanges) {
  rt::ThreadPool pool(8);
  RangeLog log;
  pool.parallel_for(3, 8,
                    [&](int64_t lo, int64_t hi) { log.record(lo, hi); });
  EXPECT_EQ(log.empties.load(), 0);
  EXPECT_EQ(log.ranges.size(), 3u);  // clamped to n, not the worker count
  EXPECT_EQ(log.covered(), 3);
}

TEST(ThreadPoolChunks, BalancedSplitSizesDifferByAtMostOne) {
  rt::ThreadPool pool(8);
  RangeLog log;
  pool.parallel_for(9, 4,
                    [&](int64_t lo, int64_t hi) { log.record(lo, hi); });
  EXPECT_EQ(log.empties.load(), 0);
  ASSERT_EQ(log.ranges.size(), 4u);
  EXPECT_EQ(log.covered(), 9);
  int64_t min_sz = 9, max_sz = 0;
  for (auto [lo, hi] : log.ranges) {
    min_sz = std::min(min_sz, hi - lo);
    max_sz = std::max(max_sz, hi - lo);
  }
  EXPECT_EQ(min_sz, 2);
  EXPECT_EQ(max_sz, 3);
}

TEST(ThreadPoolChunks, SingleChunkRunsInline) {
  rt::ThreadPool pool(8);
  RangeLog log;
  pool.parallel_for(100, 1,
                    [&](int64_t lo, int64_t hi) { log.record(lo, hi); });
  ASSERT_EQ(log.ranges.size(), 1u);
  EXPECT_EQ(log.ranges[0], (std::pair<int64_t, int64_t>{0, 100}));
}

TEST(ThreadPoolChunks, LegacyOverloadNeverCallsEmptyRanges) {
  // The old static split woke every worker even when iters < workers,
  // handing trailing workers empty [lo, hi) ranges.
  for (int64_t n : {1, 3, 7, 16, 17, 31, 100}) {
    rt::ThreadPool pool(8);
    RangeLog log;
    pool.parallel_for(n, [&](int64_t lo, int64_t hi) { log.record(lo, hi); });
    EXPECT_EQ(log.empties.load(), 0) << "n=" << n;
    EXPECT_EQ(log.covered(), n) << "n=" << n;
  }
}

TEST(ThreadPoolChunks, ChunkedReductionMatchesSerial) {
  const int64_t n = 10000;
  std::vector<double> xs(n);
  for (int64_t i = 0; i < n; ++i) xs[(size_t)i] = 0.5 * (i % 17) - 2.0;
  double serial = 0;
  for (double v : xs) serial += v;
  rt::ThreadPool pool(6);
  std::mutex mu;
  double sum = 0;
  pool.parallel_for(n, 5, [&](int64_t lo, int64_t hi) {
    double local = 0;
    for (int64_t i = lo; i < hi; ++i) local += xs[(size_t)i];
    std::lock_guard<std::mutex> lk(mu);
    sum += local;
  });
  EXPECT_NEAR(sum, serial, 1e-9);
}

}  // namespace
}  // namespace dace
