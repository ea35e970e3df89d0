// Differential tests for the executor's MatMul and Reduce library
// handlers: every operand shape and view kind the handlers compute in
// place (GEMV, GEVM, dot, full and axis reductions on sliced, strided,
// transposed and dropped-dim views, on both sides of the inline cut) and
// every fallback (2-D x 2-D GEMM, outputs aliasing an input, non-f64
// operands) must match the tensor_ops result and account the same
// executor statistics.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <random>

#include "ir/sdfg.hpp"
#include "runtime/executor.hpp"
#include "runtime/tensor_ops.hpp"

namespace dace {
namespace {

using rt::Bindings;
using rt::Tensor;
using sym::Expr;
using sym::Range;

Tensor random_tensor(std::vector<int64_t> shape, unsigned seed,
                     ir::DType dt = ir::DType::f64) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Tensor t(dt, std::move(shape));
  double scale = dt == ir::DType::f64 || dt == ir::DType::f32 ? 1.0 : 100.0;
  for (int64_t i = 0; i < t.size(); ++i) t.set_flat(i, scale * dist(gen));
  return t;
}

/// One library-node operand: the bound argument (itself possibly a
/// strided or transposed view), the memlet's [begin, end, step) per
/// container dim, and the container dims the view keeps.
struct Operand {
  std::string name;
  Tensor arg;
  std::vector<std::array<int64_t, 3>> ranges;  // empty: the whole array
  std::string viewdims;                        // empty: keep every dim

  std::vector<std::array<int64_t, 3>> full_ranges() const {
    if (!ranges.empty()) return ranges;
    std::vector<std::array<int64_t, 3>> r;
    for (int64_t s : arg.shape()) r.push_back({0, s, 1});
    return r;
  }
  std::string kept_dims() const {
    if (!viewdims.empty()) return viewdims;
    std::string s;
    for (size_t d = 0; d < arg.rank(); ++d)
      s += (d ? "," : "") + std::to_string(d);
    return s;
  }
  sym::Subset subset() const {
    std::vector<Range> rs;
    for (const auto& r : full_ranges())
      rs.emplace_back(Expr(r[0]), Expr(r[1]), Expr(r[2]));
    return sym::Subset(rs);
  }
  /// The view the handler should see, built directly on the tensor.
  Tensor view(bool drop_dims = true) const {
    std::vector<int64_t> b, e, s;
    std::vector<bool> drop;
    std::string keep = "," + kept_dims() + ",";
    auto rs = full_ranges();
    for (size_t d = 0; d < rs.size(); ++d) {
      b.push_back(rs[d][0]);
      e.push_back(rs[d][1]);
      s.push_back(rs[d][2]);
      drop.push_back(drop_dims && keep.find("," + std::to_string(d) + ",") ==
                                      std::string::npos);
    }
    return arg.slice(b, e, s, drop);
  }
};

struct Run {
  rt::VMStats stats;
};

/// Execute a one-state SDFG holding a single library node `op` with the
/// given input connectors and output.  Operands naming the same
/// container share one bound argument.
Run run_library(const std::string& op,
                const std::map<std::string, std::string>& attrs,
                const std::vector<std::pair<std::string, Operand>>& ins,
                const std::pair<std::string, Operand>& out) {
  auto sdfg = std::make_unique<ir::SDFG>("lib");
  Bindings args;
  auto declare = [&](const Operand& o) {
    if (sdfg->has_array(o.name)) return;
    std::vector<Expr> shape;
    for (int64_t s : o.arg.shape()) shape.emplace_back(s);
    sdfg->add_array(o.name, o.arg.dtype(), shape);
    sdfg->add_arg(o.name);
    args.emplace(o.name, o.arg);
  };
  for (const auto& [conn, o] : ins) declare(o);
  declare(out.second);
  ir::State& st = sdfg->add_state("s", true);
  int lib = st.add_library(op);
  auto* ln = st.node_as<ir::LibraryNode>(lib);
  ln->attrs = attrs;
  for (const auto& [conn, o] : ins) {
    ln->attrs["viewdims" + conn] = o.kept_dims();
    st.add_edge(st.add_access(o.name), "", lib, conn,
                ir::Memlet(o.name, o.subset()));
  }
  st.add_edge(lib, out.first, st.add_access(out.second.name), "",
              ir::Memlet(out.second.name, out.second.subset()));
  rt::Executor ex(*sdfg);
  ex.run(args, {});
  return Run{ex.stats()};
}

void expect_close(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_TRUE(rt::allclose(got, want, 1e-12, 0.0))
      << "max abs diff " << rt::max_abs_diff(got, want);
  // The in-place kernels keep the summation order of tensor_ops, so on
  // f64 they agree to the last bit (docs/RUNTIME.md, "Library nodes").
  if (got.dtype() == ir::DType::f64) {
    EXPECT_EQ(rt::max_abs_diff(got, want), 0.0);
  }
}

/// out = a @ b through the handler, checked against ops::matmul on the
/// same views and against the handler's FLOP/load/store accounting.
void check_matmul(const Operand& a, const Operand& b, const Operand& out) {
  Tensor va = a.view(), vb = b.view();
  Tensor want(out.arg.dtype(), out.view(false).shape());
  want.assign_from(rt::ops::matmul(va, vb));
  Run r = run_library("MatMul", {}, {{"_a", a}, {"_b", b}}, {"_c", out});
  expect_close(out.view(false), want);
  int64_t m = va.rank() == 2 ? va.shape()[0] : 1;
  int64_t k = va.rank() == 2 ? va.shape()[1] : va.shape()[0];
  int64_t n = vb.rank() == 2 ? vb.shape()[1] : 1;
  EXPECT_EQ(r.stats.flops, (uint64_t)(2 * m * n * k));
  EXPECT_EQ(r.stats.loads, (uint64_t)(m * k + k * n));
  EXPECT_EQ(r.stats.stores, (uint64_t)(m * n));
}

/// Outputs start out holding garbage: the handlers must overwrite every
/// element, not accumulate onto a zero-initialized buffer.
Tensor garbage(std::vector<int64_t> shape, ir::DType dt = ir::DType::f64) {
  return random_tensor(std::move(shape), 99, dt);
}

Operand whole(const std::string& name, Tensor t) {
  return Operand{name, std::move(t), {}, ""};
}

// Sizes on both sides of the inline cut: 12 x 10 products run on the
// calling thread, 320 x 288 ones (92k multiply-adds) split over the pool.
class LibraryMatMul : public ::testing::TestWithParam<int64_t> {
 protected:
  int64_t m() const { return GetParam(); }
  int64_t k() const { return GetParam() - GetParam() / 10; }
};

TEST_P(LibraryMatMul, Gemv) {
  check_matmul(whole("A", random_tensor({m(), k()}, 1)),
               whole("x", random_tensor({k()}, 2)),
               whole("y", garbage({m()})));
}

TEST_P(LibraryMatMul, GemvSlicedStridedAndTransposed) {
  // Rows 1..m of A, every other column; x read with step 2; y written
  // with step 3 into a longer vector.
  Operand a{"A", random_tensor({m() + 2, 2 * k() + 1}, 3),
            {{1, m() + 1, 1}, {1, 2 * k() + 1, 2}}, ""};
  Operand x{"x", random_tensor({2 * k()}, 4), {{0, 2 * k(), 2}}, ""};
  Operand y{"y", garbage({3 * m()}), {{0, 3 * m(), 3}}, ""};
  check_matmul(a, x, y);
  // A bound as a transposed view: unit row stride (the axpy loop order).
  Operand at = whole("A", random_tensor({k(), m()}, 5).transpose());
  check_matmul(at, whole("x", random_tensor({k()}, 6)),
               whole("y", garbage({m()})));
}

TEST_P(LibraryMatMul, Gevm) {
  check_matmul(whole("x", random_tensor({k()}, 7)),
               whole("B", random_tensor({k(), m()}, 8)),
               whole("y", garbage({m()})));
}

TEST_P(LibraryMatMul, GevmDroppedDimStridedAndTransposed) {
  // doitgen-style: x = A3[1, 2, :] (dims 0 and 1 dropped) times a
  // column-strided slice of B.
  Operand x{"A3", random_tensor({3, 4, k()}, 9), {{1, 2, 1}, {2, 3, 1},
                                                  {0, k(), 1}}, "2"};
  Operand b{"B", random_tensor({k() + 1, 2 * m()}, 10),
            {{1, k() + 1, 1}, {0, 2 * m(), 2}}, ""};
  check_matmul(x, b, whole("y", garbage({m()})));
  // B bound as a transposed view: unit column stride (the dot order).
  check_matmul(whole("x", random_tensor({k()}, 11)),
               whole("B", random_tensor({m(), k()}, 12).transpose()),
               whole("y", garbage({m()})));
}

TEST_P(LibraryMatMul, DotAndGemm) {
  Operand x{"x", random_tensor({2 * k()}, 13), {{0, 2 * k(), 2}}, ""};
  check_matmul(x, whole("z", random_tensor({k()}, 14)),
               whole("s", garbage({})));
  // 2-D x 2-D stays on the blocked GEMM (allocate and assign).
  Operand a{"A", random_tensor({m() + 1, k()}, 15), {{1, m() + 1, 1},
                                                     {0, k(), 1}}, ""};
  check_matmul(a, whole("B", random_tensor({k(), 9}, 16)),
               whole("C", garbage({m(), 9})));
}

TEST_P(LibraryMatMul, OutputAliasingAnInputFallsBack) {
  // y = A @ V[0:k] written over V[0:m]: the handler must read all of the
  // old V before writing, as the allocate-and-assign path does.
  int64_t n = std::max(m(), k());
  Tensor v = random_tensor({n}, 17);
  Operand a = whole("A", random_tensor({m(), k()}, 18));
  Operand x{"V", v, {{0, k(), 1}}, ""};
  Operand y{"V", v, {{0, m(), 1}}, ""};
  Tensor want = rt::ops::matmul(a.view(), x.view().copy());
  run_library("MatMul", {}, {{"_a", a}, {"_b", x}}, {"_c", y});
  expect_close(y.view(), want);
}

TEST_P(LibraryMatMul, NonF64FallsBack) {
  check_matmul(whole("A", random_tensor({m(), k()}, 19, ir::DType::f32)),
               whole("x", random_tensor({k()}, 20)),
               whole("y", garbage({m()})));
  check_matmul(whole("x", random_tensor({k()}, 21)),
               whole("B", random_tensor({k(), m()}, 22)),
               whole("y", garbage({m()}, ir::DType::f32)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LibraryMatMul, ::testing::Values(12, 320),
                         [](const auto& info) {
                           return info.param < 100 ? "inline" : "pooled";
                         });

/// Reduce `in` with `op` (and `axis`, if given) through the handler,
/// checked against tensor_ops and the handler's statistics.
void check_reduce(const std::string& op, std::optional<int> axis,
                  const Operand& in, const Operand& out) {
  Tensor v = in.view();
  Tensor want(out.arg.dtype(), out.view(false).shape());
  if (axis) {
    want.assign_from(rt::ops::sum_axis(v, *axis < 0 ? *axis + (int)v.rank()
                                                    : *axis));
  } else {
    want.set_flat(0, op == "sum"   ? rt::ops::sum_all(v)
                     : op == "max" ? rt::ops::max_all(v)
                                   : rt::ops::min_all(v));
  }
  std::map<std::string, std::string> attrs{{"op", op}};
  if (axis) attrs["axis"] = std::to_string(*axis);
  Run r = run_library("Reduce", attrs, {{"_in", in}}, {"_out", out});
  expect_close(out.view(false), want);
  EXPECT_EQ(r.stats.flops, (uint64_t)v.size());
  EXPECT_EQ(r.stats.loads, (uint64_t)v.size());
  EXPECT_EQ(r.stats.stores, (uint64_t)out.view(false).size());
}

class LibraryReduce : public ::testing::TestWithParam<int64_t> {
 protected:
  int64_t n() const { return GetParam(); }
};

TEST_P(LibraryReduce, FullReductionsOnEveryViewKind) {
  Operand s = whole("s", garbage({}));
  std::vector<Operand> views = {
      whole("X", random_tensor({n(), n() + 3}, 30)),
      // strided rows and columns
      Operand{"X", random_tensor({2 * n(), n() + 4}, 31),
              {{1, 2 * n(), 2}, {2, n() + 4, 3}}, ""},
      // transposed binding
      whole("X", random_tensor({n() + 3, n()}, 32).transpose()),
      // one row of a 3-D array, dims 0 and 1 dropped
      Operand{"X", random_tensor({2, 3, n()}, 33),
              {{1, 2, 1}, {2, 3, 1}, {0, n(), 1}}, "2"},
  };
  for (const auto& v : views) {
    for (const char* op : {"sum", "max", "min"}) {
      SCOPED_TRACE(op);
      check_reduce(op, std::nullopt, v, s);
    }
  }
}

TEST_P(LibraryReduce, AxisSumOnEveryViewKind) {
  for (int axis : {0, 1, -1}) {
    SCOPED_TRACE(axis);
    Tensor x = random_tensor({n(), n() + 3}, 40 + (unsigned)axis);
    int64_t kept = axis == 0 ? n() + 3 : n();
    check_reduce("sum", axis, whole("X", x),
                 whole("o", garbage({kept})));
    // Transposed input, written with step 2 into a longer output.
    check_reduce("sum", axis, whole("X", x.transpose()),
                 Operand{"o", garbage({2 * (axis == 0 ? n()
                                                                 : n() + 3)}),
                         {{0, 2 * (axis == 0 ? n() : n() + 3), 2}}, ""});
  }
  // Sliced 3-D view reduced along its middle axis.
  Operand x{"X", random_tensor({3, n(), 5}, 44), {{1, 3, 1}, {0, n(), 2},
                                                  {0, 5, 1}}, ""};
  check_reduce("sum", 1, x, whole("o", garbage({2, 5})));
}

TEST_P(LibraryReduce, AliasingAndNonF64FallBack) {
  // Sum of a row written into that row's first element.
  Tensor x = random_tensor({n()}, 50);
  Tensor want = Tensor::scalar(rt::ops::sum_all(x));
  Operand in = whole("X", x);
  Operand out{"X", x, {{0, 1, 1}}, ""};
  run_library("Reduce", {{"op", "sum"}}, {{"_in", in}}, {"_out", out});
  EXPECT_NEAR(x.get_flat(0), want.value(), 1e-12 * std::abs(want.value()));
  check_reduce("max", std::nullopt,
               whole("X", random_tensor({n(), 3}, 51, ir::DType::f32)),
               whole("s", garbage({})));
  check_reduce("sum", 0,
               whole("X", random_tensor({n(), 3}, 52, ir::DType::i64)),
               whole("o", garbage({3}, ir::DType::i64)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LibraryReduce, ::testing::Values(6, 300),
                         [](const auto& info) {
                           return info.param < 100 ? "small" : "large";
                         });

}  // namespace
}  // namespace dace
