// End-to-end: DaCeLang -> SDFG -> executor, validated against directly
// computed references.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>

#include "common/common.hpp"
#include "frontend/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/tensor_ops.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace {
namespace {

using fe::compile_to_sdfg;
using rt::Bindings;
using rt::Tensor;

Tensor random_tensor(std::vector<int64_t> shape, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Tensor t(ir::DType::f64, std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) t.set_flat(i, dist(gen));
  return t;
}

TEST(Executor, Axpy) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def axpy(alpha: dace.float64, x: dace.float64[N], y: dace.float64[N]):
    y[:] = alpha * x + y
)");
  const int64_t n = 100;
  Tensor x = random_tensor({n}, 1);
  Tensor y = random_tensor({n}, 2);
  Tensor y0 = y.copy();
  Bindings args{{"alpha", Tensor::scalar(2.5)}, {"x", x}, {"y", y}};
  rt::execute(*sdfg, args, {{"N", n}});
  for (int64_t i = 0; i < n; ++i)
    EXPECT_NEAR(y.get_flat(i), 2.5 * x.get_flat(i) + y0.get_flat(i), 1e-12);
}

TEST(Executor, PostStateHookObservesEveryState) {
  // The hook fires once per executed state with the live symbol values --
  // the fuzz sentinel checks build on this contract.
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    for i in range(N):
        A[i] += 1.0
)");
  const int64_t n = 4;
  Tensor A = random_tensor({n}, 5);
  Bindings args{{"A", A}};
  rt::ExecutorOptions opts;
  int states = 0;
  int body_visits = 0;
  opts.post_state_hook = [&](const ir::State& st, const sym::SymbolMap& syms) {
    ++states;
    if (st.label().rfind("for_body", 0) == 0) {
      ++body_visits;
      auto it = syms.find("i");
      ASSERT_NE(it, syms.end());
      EXPECT_EQ(it->second, body_visits - 1);
    }
  };
  rt::execute(*sdfg, args, {{"N", n}}, opts);
  EXPECT_EQ(body_visits, n);
  EXPECT_GT(states, body_visits);
}

TEST(Executor, GemmMatchesReference) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def gemm(alpha: dace.float64, beta: dace.float64, C: dace.float64[NI, NJ],
         A: dace.float64[NI, NK], B: dace.float64[NK, NJ]):
    C[:] = alpha * A @ B + beta * C
)");
  const int64_t ni = 13, nj = 17, nk = 11;
  Tensor A = random_tensor({ni, nk}, 3);
  Tensor B = random_tensor({nk, nj}, 4);
  Tensor C = random_tensor({ni, nj}, 5);
  Tensor ref = rt::ops::add(
      rt::ops::mul(Tensor::scalar(1.5), rt::ops::matmul(A, B)),
      rt::ops::mul(Tensor::scalar(0.5), C));
  Bindings args{{"alpha", Tensor::scalar(1.5)},
                {"beta", Tensor::scalar(0.5)},
                {"C", C},
                {"A", A},
                {"B", B}};
  rt::execute(*sdfg, args, {{"NI", ni}, {"NJ", nj}, {"NK", nk}});
  EXPECT_TRUE(rt::allclose(C, ref, 1e-9, 1e-9));
}

TEST(Executor, Jacobi1DTimeLoop) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def jacobi_1d(TSTEPS: dace.int32, A: dace.float64[N], B: dace.float64[N]):
    for t in range(1, TSTEPS):
        B[1:-1] = 0.33333 * (A[:-2] + A[1:-1] + A[2:])
        A[1:-1] = 0.33333 * (B[:-2] + B[1:-1] + B[2:])
)");
  const int64_t n = 64, tsteps = 5;
  Tensor A = random_tensor({n}, 7);
  Tensor B = random_tensor({n}, 8);
  Tensor Ar = A.copy(), Br = B.copy();
  // Reference.
  for (int64_t t = 1; t < tsteps; ++t) {
    for (int64_t i = 1; i < n - 1; ++i)
      Br.at({i}) = 0.33333 * (Ar.at({i - 1}) + Ar.at({i}) + Ar.at({i + 1}));
    for (int64_t i = 1; i < n - 1; ++i)
      Ar.at({i}) = 0.33333 * (Br.at({i - 1}) + Br.at({i}) + Br.at({i + 1}));
  }
  Bindings args{{"A", A}, {"B", B}};
  rt::execute(*sdfg, args, {{"N", n}, {"TSTEPS", tsteps}});
  EXPECT_TRUE(rt::allclose(A, Ar, 1e-9, 1e-12));
  EXPECT_TRUE(rt::allclose(B, Br, 1e-9, 1e-12));
}

TEST(Executor, DaceMapTranspose) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def transpose(A: dace.float64[M, N], B: dace.float64[N, M]):
    for i, j in dace.map[0:M, 0:N]:
        A[i, j] = B[j, i]
)");
  const int64_t m = 9, n = 12;
  Tensor A(ir::DType::f64, {m, n});
  Tensor B = random_tensor({n, m}, 9);
  Bindings args{{"A", A}, {"B", B}};
  rt::execute(*sdfg, args, {{"M", m}, {"N", n}});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j)
      EXPECT_EQ(A.at({i, j}), B.at({j, i}));
  }
}

TEST(Executor, WcrSumReduction) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def red(alpha: dace.float64, C: dace.float64[NI, NJ]):
    for i, j in dace.map[0:NI, 0:NJ]:
        alpha += C[i, j]
)");
  const int64_t ni = 21, nj = 17;
  Tensor C = random_tensor({ni, nj}, 10);
  Tensor alpha = Tensor::scalar(1.0);
  Bindings args{{"alpha", alpha}, {"C", C}};
  rt::execute(*sdfg, args, {{"NI", ni}, {"NJ", nj}});
  EXPECT_NEAR(alpha.value(), 1.0 + rt::ops::sum_all(C), 1e-9);
}

TEST(Executor, IfBranchesOnSymbols) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    if N > 10:
        A[:] = A * 2.0
    else:
        A[:] = A * 3.0
)");
  Tensor A1 = Tensor::from_values({20}, std::vector<double>(20, 1.0));
  Bindings a1{{"A", A1}};
  rt::execute(*sdfg, a1, {{"N", 20}});
  EXPECT_EQ(A1.get_flat(0), 2.0);
  Tensor A2 = Tensor::from_values({5}, std::vector<double>(5, 1.0));
  Bindings a2{{"A", A2}};
  rt::execute(*sdfg, a2, {{"N", 5}});
  EXPECT_EQ(A2.get_flat(0), 3.0);
}

TEST(Executor, ReduceLibraryNode) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N, M], out: dace.float64[M]):
    out[:] = np.sum(A, axis=0) / N
)");
  const int64_t n = 8, m = 6;
  Tensor A = random_tensor({n, m}, 11);
  Tensor out(ir::DType::f64, {m});
  Bindings args{{"A", A}, {"out", out}};
  rt::execute(*sdfg, args, {{"N", n}, {"M", m}});
  Tensor ref = rt::ops::div(rt::ops::sum_axis(A, 0),
                            Tensor::scalar((double)n));
  EXPECT_TRUE(rt::allclose(out, ref));
}

TEST(Executor, MatVecViews) {
  // doitgen-style: 1D view of a 3D array times a matrix.
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[NR, NQ, NP], C4: dace.float64[NP, NP]):
    for r in range(NR):
        for q in range(NQ):
            tmp = np.zeros((NP,), dtype=A.dtype)
            tmp[:] = A[r, q, :] @ C4
            A[r, q, :] = tmp
)");
  const int64_t nr = 3, nq = 4, np_ = 5;
  Tensor A = random_tensor({nr, nq, np_}, 12);
  Tensor C4 = random_tensor({np_, np_}, 13);
  Tensor Ar = A.copy();
  Bindings args{{"A", A}, {"C4", C4}};
  rt::execute(*sdfg, args, {{"NR", nr}, {"NQ", nq}, {"NP", np_}});
  for (int64_t r = 0; r < nr; ++r) {
    for (int64_t q = 0; q < nq; ++q) {
      for (int64_t p = 0; p < np_; ++p) {
        double acc = 0;
        for (int64_t s = 0; s < np_; ++s)
          acc += Ar.at({r, q, s}) * C4.at({s, p});
        EXPECT_NEAR(A.at({r, q, p}), acc, 1e-9);
      }
    }
  }
}

TEST(Executor, OuterProductGemver) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N, N], u1: dace.float64[N], v1: dace.float64[N]):
    A[:] = A + np.outer(u1, v1)
)");
  const int64_t n = 10;
  Tensor A = random_tensor({n, n}, 14);
  Tensor u1 = random_tensor({n}, 15);
  Tensor v1 = random_tensor({n}, 16);
  Tensor ref = rt::ops::add(A, rt::ops::outer(u1, v1));
  Bindings args{{"A", A}, {"u1", u1}, {"v1", v1}};
  rt::execute(*sdfg, args, {{"N", n}});
  EXPECT_TRUE(rt::allclose(A, ref));
}

TEST(Executor, SymbolsInTaskletExpressions) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    for i in dace.map[0:N]:
        A[i] = 2.0 * i + 1.0
)");
  const int64_t n = 12;
  Tensor A(ir::DType::f64, {n});
  Bindings args{{"A", A}};
  rt::execute(*sdfg, args, {{"N", n}});
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(A.get_flat(i), 2.0 * i + 1.0);
}

TEST(Executor, MissingSymbolIsAnError) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    A[:] = A + 1.0
)");
  Tensor A(ir::DType::f64, {4});
  Bindings args{{"A", A}};
  EXPECT_THROW(rt::execute(*sdfg, args, {}), Error);
}

TEST(Executor, MissingArgumentIsAnError) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    A[:] = A + 1.0
)");
  Bindings args;
  EXPECT_THROW(rt::execute(*sdfg, args, {{"N", 4}}), Error);
}

TEST(Executor, StatsAreCollected) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    A[:] = A + 1.0
)");
  Tensor A(ir::DType::f64, {32});
  Bindings args{{"A", A}};
  rt::Executor ex(*sdfg);
  ex.run(args, {{"N", 32}});
  EXPECT_GE(ex.stats().flops, 32u);
  EXPECT_GE(ex.stats().loads, 32u);
  EXPECT_GE(ex.stats().stores, 32u);
  EXPECT_GE(ex.map_launches(), 1);
}

TEST(Executor, CancelCheckAbortsAndExecutorStaysReusable) {
  // Cooperative cancellation (sdfg-serve deadlines): a cancel_check that
  // trips mid-run aborts with a "cancelled" error, and the *same*
  // executor, tensors, and thread pool run cleanly once it clears.
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    for i in dace.map[0:N]:
        B[i] = 2.0 * A[i] + B[i]
)");
  const int64_t n = 1 << 16;
  Tensor A = random_tensor({n}, 11);
  Tensor B(ir::DType::f64, {n});
  Bindings args{{"A", A}, {"B", B}};

  std::atomic<bool> cancel{true};
  rt::ExecutorOptions opts;
  opts.cancel_check = [&] { return cancel.load(); };
  rt::Executor ex(*sdfg, opts);
  try {
    ex.run(args, {{"N", n}});
    FAIL() << "run must abort when cancel_check is armed";
  } catch (const dace::Error& e) {
    EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos)
        << e.what();
  }

  // Disarm and rerun on the same executor: full, correct output.
  cancel.store(false);
  for (int64_t i = 0; i < n; ++i) B.set_flat(i, 0.0);
  ex.run(args, {{"N", n}});
  for (int64_t i = 0; i < n; i += 997)
    EXPECT_EQ(B.get_flat(i), 2.0 * A.get_flat(i));

  // A check that arms only after the first poll (so the run is already
  // past its first state boundary) must also abort -- and again leave
  // everything reusable.
  std::atomic<int> polls{0};
  opts.cancel_check = [&] { return polls.fetch_add(1) > 0; };
  rt::Executor ex2(*sdfg, opts);
  EXPECT_THROW(ex2.run(args, {{"N", n}}), dace::Error);
  opts.cancel_check = nullptr;
  rt::Executor ex3(*sdfg, opts);
  for (int64_t i = 0; i < n; ++i) B.set_flat(i, 0.0);
  ex3.run(args, {{"N", n}});
  for (int64_t i = 0; i < n; i += 997)
    EXPECT_EQ(B.get_flat(i), 2.0 * A.get_flat(i));
}

// Parameterized sweep: the same program over many sizes (symbolic shape
// reuse, the AOT motivation from Section 2.2).
class ExecutorSizeSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(ExecutorSizeSweep, ScaleByTwo) {
  static auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    B[:] = A * 2.0
)");
  int64_t n = GetParam();
  Tensor A = random_tensor({n}, (unsigned)n);
  Tensor B(ir::DType::f64, {n});
  Bindings args{{"A", A}, {"B", B}};
  rt::execute(*sdfg, args, {{"N", n}});
  for (int64_t i = 0; i < n; ++i)
    EXPECT_EQ(B.get_flat(i), 2.0 * A.get_flat(i));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExecutorSizeSweep,
                         ::testing::Values(1, 2, 3, 7, 64, 1000));

// -- executor plan reuse ------------------------------------------------------
// One Executor plans each state once and binds map operands once per run.
// Every test runs a single executor repeatedly and checks each run
// bit-for-bit against a fresh executor given the same inputs, on the
// native tier (every map promoted synchronously at its first launch).

/// Scoped environment override; restores the previous value on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old, had_old_ = true;
    setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_old_) setenv(name_.c_str(), old_.c_str(), 1);
    else unsetenv(name_.c_str());
  }

 private:
  std::string name_, old_;
  bool had_old_ = false;
};

class ExecutorPlan : public ::testing::Test {
 protected:
  EnvGuard thr_{"DACEPP_JIT_THRESHOLD", "1"};
  EnvGuard sync_{"DACEPP_JIT_SYNC", "1"};
};

/// Deep copy: fresh buffers with the same values.
Bindings clone(const Bindings& b) {
  Bindings out;
  for (const auto& [name, t] : b) out.emplace(name, t.copy());
  return out;
}

void expect_bitwise(const Bindings& got, const Bindings& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, w] : want) {
    const Tensor& g = got.at(name);
    ASSERT_EQ(g.shape(), w.shape()) << name;
    for (int64_t i = 0; i < w.size(); ++i) {
      double a = g.get_flat(i), b = w.get_flat(i);
      ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
          << "'" << name << "'[" << i << "]: " << a << " vs " << b;
    }
  }
}

/// Run `ex` on `args` (in place) and a fresh executor on a copy of them;
/// both must leave bit-identical tensors.
void run_against_fresh(rt::Executor& ex, Bindings& args,
                       const sym::SymbolMap& syms) {
  Bindings want = clone(args);
  rt::Executor fresh(ex.sdfg());
  fresh.run(want, syms);
  ex.run(args, syms);
  expect_bitwise(args, want);
}

TEST_F(ExecutorPlan, NewArgumentBuffersEveryRun) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N, N], x: dace.float64[N], y: dace.float64[N]):
    y[:] = A @ x + y
    for i in dace.map[0:N]:
        x[i] = 2.0 * y[i] - x[i]
)");
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  rt::Executor ex(*sdfg);
  const int64_t n = 24;
  for (unsigned run = 0; run < 4; ++run) {
    Bindings args{{"A", random_tensor({n, n}, 10 * run + 1)},
                  {"x", random_tensor({n}, 10 * run + 2)},
                  {"y", random_tensor({n}, 10 * run + 3)}};
    run_against_fresh(ex, args, {{"N", n}});
  }
  EXPECT_GT(ex.native_launches(), 0);
}

TEST_F(ExecutorPlan, NewSymbolValuesResizeTransients) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    tmp = A * 2.0
    B[:] = tmp + B
)");
  bool has_transient = false;
  for (const auto& [name, d] : sdfg->arrays()) has_transient |= d.transient;
  ASSERT_TRUE(has_transient);
  rt::Executor ex(*sdfg);
  for (int64_t n : {8, 13, 5, 13}) {
    Bindings args{{"A", random_tensor({n}, (unsigned)n)},
                  {"B", random_tensor({n}, (unsigned)n + 100)}};
    run_against_fresh(ex, args, {{"N", n}});
  }
}

TEST_F(ExecutorPlan, AliasedArgumentsTakeTheVmFallback) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    for i in dace.map[0:N]:
        B[i] = 2.0 * A[i] + B[i]
)");
  // The map must be compiled with __restrict__ operands for the alias
  // check to matter.
  bool restricted = false;
  for (int sid : sdfg->state_ids()) {
    const ir::State& st = sdfg->state(sid);
    for (int id : st.node_ids())
      if (st.node(id)->kind == ir::NodeKind::MapEntry &&
          st.scope_of(id) == -1)
        restricted |= rt::compile_map_scope(*sdfg, st, id).use_restrict;
  }
  ASSERT_TRUE(restricted);
  const int64_t n = 64;
  rt::Executor ex(*sdfg);
  Bindings disjoint{{"A", random_tensor({n}, 1)}, {"B", random_tensor({n}, 2)}};
  run_against_fresh(ex, disjoint, {{"N", n}});
  int64_t native = ex.native_launches();
  ASSERT_GT(native, 0);

  // Both arguments view one buffer: the native launch is skipped.
  Tensor shared = random_tensor({n}, 3);
  Tensor shared_fresh = shared.copy();
  Bindings aliased{{"A", shared}, {"B", shared}};
  Bindings aliased_fresh{{"A", shared_fresh}, {"B", shared_fresh}};
  int64_t launches = ex.map_launches();
  ex.run(aliased, {{"N", n}});
  rt::Executor fresh(*sdfg);
  fresh.run(aliased_fresh, {{"N", n}});
  expect_bitwise(aliased, aliased_fresh);
  EXPECT_GT(ex.map_launches(), launches);
  EXPECT_EQ(ex.native_launches(), native);
  EXPECT_EQ(fresh.native_launches(), 0);

  // Disjoint again: back on the native tier.
  Bindings again{{"A", random_tensor({n}, 4)}, {"B", random_tensor({n}, 5)}};
  run_against_fresh(ex, again, {{"N", n}});
  EXPECT_GT(ex.native_launches(), native);
}

TEST_F(ExecutorPlan, NestedSdfgInALoop) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def scale(A: dace.float64[N]):
    A[:] = A * 0.5 + 1.0

@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    for t in range(T):
        scale(A)
        B[:] = A + B
)");
  bool nested = false;
  for (int sid : sdfg->state_ids())
    for (int id : sdfg->state(sid).node_ids())
      nested |= sdfg->state(sid).node(id)->kind == ir::NodeKind::NestedSDFG;
  ASSERT_TRUE(nested);
  rt::Executor ex(*sdfg);
  for (int64_t n : {16, 9}) {
    for (int64_t t : {3, 1}) {
      Bindings args{{"A", random_tensor({n}, (unsigned)(n + t))},
                    {"B", random_tensor({n}, (unsigned)(n * t))}};
      run_against_fresh(ex, args, {{"N", n}, {"T", t}});
    }
  }
}

TEST_F(ExecutorPlan, NestedStatsCountEachVisitOnce) {
  // The child executor's statistics accumulate over its runs; the parent
  // must add each visit's share once, not the child's running total.
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def step(A: dace.float64[N, N], x: dace.float64[N], y: dace.float64[N]):
    y[:] = A @ x
    x[:] = y * 0.5

@dace.program
def f(A: dace.float64[N, N], x: dace.float64[N], y: dace.float64[N]):
    for t in range(T):
        step(A, x, y)
)");
  const int64_t n = 8;
  auto flops = [&](rt::Executor& ex, int64_t t) {
    Bindings args{{"A", random_tensor({n, n}, 1)},
                  {"x", random_tensor({n}, 2)},
                  {"y", Tensor(ir::DType::f64, {n})}};
    auto before = ex.stats().flops;
    ex.run(args, {{"N", n}, {"T", t}});
    return ex.stats().flops - before;
  };
  rt::Executor one(*sdfg);
  auto per_visit = flops(one, 1);
  ASSERT_GT(per_visit, 0u);
  rt::Executor ex(*sdfg);
  EXPECT_EQ(flops(ex, 3), 3 * per_visit);
  EXPECT_EQ(flops(ex, 2), 2 * per_visit);
}

TEST_F(ExecutorPlan, LoopSymbolFirstAssignedMidRun) {
  // `t` is not an input: the loop's interstate edges define it, after
  // the run has started, and the map reads it on every iteration.
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    for t in range(T):
        for i in dace.map[0:N]:
            A[i] = A[i] * 0.5 + t
)");
  rt::Executor ex(*sdfg);
  for (int64_t t : {4, 2, 6}) {
    Bindings args{{"A", random_tensor({32}, (unsigned)t)}};
    run_against_fresh(ex, args, {{"N", 32}, {"T", t}});
  }
}

TEST_F(ExecutorPlan, MissingSymbolOnSecondRun) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    A[:] = A + 1.0
)");
  rt::Executor ex(*sdfg);
  Bindings args{{"A", random_tensor({8}, 1)}};
  run_against_fresh(ex, args, {{"N", 8}});
  auto message = [&](rt::Executor& e) {
    try {
      e.run(args, {});
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  rt::Executor fresh(*sdfg);
  std::string want = message(fresh);
  EXPECT_NE(want.find("executor: missing symbol 'N'"), std::string::npos)
      << want;
  EXPECT_EQ(message(ex), want);
  // The executor stays usable once the symbol is bound again.
  run_against_fresh(ex, args, {{"N", 8}});
}

// -- WCR atomicity -----------------------------------------------------------
// A parallel map i in [0, N) with a nested map j in [0, M) doing
// s[j] += A[i, j]: every chunk of i reaches every s[j], so the store must
// be atomic even though it sits in a nested scope.  With s[i] += A[i, j]
// each chunk owns its rows and the store is plain.  ctest runs this
// suite with a 4-thread pool (tests/CMakeLists.txt), and `ctest -L tsan`
// runs it under ThreadSanitizer.

std::unique_ptr<ir::SDFG> nested_sum(bool by_row) {
  using sym::Expr;
  using sym::Range;
  using sym::S;
  using sym::Subset;
  auto g = std::make_unique<ir::SDFG>("nested_sum");
  g->add_symbol("N");
  g->add_symbol("M");
  const Expr len = S(by_row ? "N" : "M");
  g->add_array("A", ir::DType::f64, {S("N"), S("M")});
  g->add_array("s", ir::DType::f64, {len});
  g->add_arg("A");
  g->add_arg("s");
  ir::State& st = g->add_state("main", true);
  int na = st.add_access("A");
  int ns = st.add_access("s");
  auto [outer, outer_x] =
      st.add_map("rows", {"i"}, Subset({Range(Expr(0), S("N"))}),
                 ir::Schedule::CPUParallel);
  auto [inner, inner_x] =
      st.add_map("cols", {"j"}, Subset({Range(Expr(0), S("M"))}));
  int t = st.add_tasklet("add", {"a"}, ir::CodeExpr::input("a"));
  st.add_edge(na, "", outer, "IN_A",
              ir::Memlet("A", Subset::full({S("N"), S("M")})));
  st.add_edge(outer, "OUT_A", inner, "IN_A",
              ir::Memlet("A", Subset({Range::index(S("i")),
                                      Range(Expr(0), S("M"))})));
  st.add_edge(inner, "OUT_A", t, "a",
              ir::Memlet("A", Subset::element({S("i"), S("j")})));
  st.add_edge(t, "__out", inner_x, "IN_s",
              ir::Memlet("s", Subset::element({S(by_row ? "i" : "j")}),
                         ir::WCR::Sum));
  st.add_edge(inner_x, "OUT_s", outer_x, "IN_s",
              ir::Memlet("s",
                         by_row ? Subset::element({S("i")})
                                : Subset::full({len}),
                         ir::WCR::Sum));
  st.add_edge(outer_x, "OUT_s", ns, "",
              ir::Memlet("s", Subset::full({len}), ir::WCR::Sum));
  return g;
}

/// Runs the nested reduction twice with A all ones; every s element must
/// be exact.  Returns the number of atomic WCR stores in the map.
int expect_exact_nested_sums(bool by_row, bool native) {
  auto g = nested_sum(by_row);
  const int64_t n = 20000, m = 64;
  rt::Executor ex(*g);
  for (int run = 0; run < 2; ++run) {
    Tensor a(ir::DType::f64, {n, m});
    for (int64_t k = 0; k < a.size(); ++k) a.set_flat(k, 1.0);
    Tensor s(ir::DType::f64, {by_row ? n : m});
    Bindings args{{"A", a}, {"s", s}};
    ex.run(args, {{"N", n}, {"M", m}});
    const double want = (double)(by_row ? m : n);
    int64_t wrong = 0;
    for (int64_t k = 0; k < s.size(); ++k) wrong += s.get_flat(k) != want;
    EXPECT_EQ(wrong, 0) << "run " << run << ": s[0] = " << s.get_flat(0);
  }
  EXPECT_EQ(ex.native_launches() > 0, native);
  const ir::State& st = g->state(0);
  int atomic = 0;
  for (int id : st.node_ids())
    if (st.node(id)->kind == ir::NodeKind::MapEntry && st.scope_of(id) == -1)
      for (const rt::Instr& in : rt::compile_map_scope(*g, st, id).code)
        atomic += in.op == rt::Op::StoreWcr && in.flag;
  return atomic;
}

TEST(ExecutorWcr, NestedSharedTargetIsExactOnTheVm) {
  EnvGuard jit("DACEPP_JIT", "0");
  EXPECT_EQ(expect_exact_nested_sums(/*by_row=*/false, /*native=*/false), 1);
}

TEST(ExecutorWcr, NestedSharedTargetIsExactNatively) {
  EnvGuard thr("DACEPP_JIT_THRESHOLD", "1");
  EnvGuard sync("DACEPP_JIT_SYNC", "1");
  EXPECT_EQ(expect_exact_nested_sums(/*by_row=*/false, /*native=*/true), 1);
}

TEST(ExecutorWcr, NestedOwnedRowTargetIsPlainAndExact) {
  EnvGuard jit("DACEPP_JIT", "0");
  EXPECT_EQ(expect_exact_nested_sums(/*by_row=*/true, /*native=*/false), 0);
}

}  // namespace
}  // namespace dace
