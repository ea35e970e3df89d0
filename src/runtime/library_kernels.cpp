// Built-in library node implementations (Section 3.2).
//
// These are the "fast library call" expansions of the specialization
// priority list.  MatMul and Reduce on f64 operands compute straight from
// the operand views' strides into the output memlet's view: matrix-vector
// products (GEMV, and GEVM as GEMV on a zero-copy transposed view), dot
// products and reductions need no transpose copy, no temporary and no
// element-wise assign.  2-D x 2-D products run the blocked native GEMM of
// tensor_ops (standing in for MKL); non-f64 operands and outputs that
// share a buffer with an input take the allocate-and-assign path through
// tensor_ops.  Additional expansions (PBLAS, comm::*, device-specific)
// are registered by their modules.  docs/RUNTIME.md ("Library nodes")
// lists which shapes take which path.
#include <algorithm>
#include <array>
#include <cstdlib>

#include "runtime/executor.hpp"
#include "runtime/tensor_ops.hpp"
#include "runtime/thread_pool.hpp"

namespace dace::rt {

namespace {

// Operand lookup runs on every library call: scan the state's edge list
// in place and return attributes by reference, so it never allocates.
const ir::Edge* edge_by_dst_conn(const ir::State& st, int node,
                                 const std::string& conn) {
  for (const auto& e : st.edges()) {
    if (e.dst == node && e.dst_conn == conn) return &e;
  }
  throw err("library: missing input connector '", conn, "'");
}

const ir::Edge* edge_by_src_conn(const ir::State& st, int node,
                                 const std::string& conn) {
  for (const auto& e : st.edges()) {
    if (e.src == node && e.src_conn == conn) return &e;
  }
  throw err("library: missing output connector '", conn, "'");
}

const std::string& attr_or(const ir::LibraryNode& l, const std::string& key,
                           const std::string& fallback) {
  auto it = l.attrs.find(key);
  return it == l.attrs.end() ? fallback : it->second;
}

// A temporary fallback would dangle: pass one of these statics.
const std::string& attr_or(const ir::LibraryNode&, const std::string&,
                           std::string&&) = delete;
const std::string kNoViewdims;
const std::string kSum = "sum";

// Estimated cost of one multiply-add of the matrix-vector kernels below
// (single core, operands streaming from L2/L3).  A product runs inline
// while its multiply-add count times this is under the map scheduler's
// DACE_CHUNK_MIN_NS cut (20 us: 40k multiply-adds), where waking the
// workers costs more than it saves; above it, it takes at least two
// chunks.  docs/RUNTIME.md records the measured crossover.
constexpr double kMaddNs = 0.5;

// Views up to this rank take the stride-loop reductions.
constexpr size_t kMaxRank = 8;

// y[i] = sum_k M[i,k] * v[k] for rows [lo, hi) of a strided m x k view
// (row stride rs, column stride cs).  Every y[i] sums k ascending from
// 0.0 -- the order of ops::matmul and of the C++ reference -- so both
// loop orders give bit-identical results:
//  * dot form (cs is the smaller stride, e.g. A @ x on a row-major A):
//    four rows at a time, four independent accumulator chains;
//  * axpy form (rs is the smaller stride, e.g. x @ B, which is B^T @ x):
//    stream the rows of B, updating y[lo:hi) four columns at a time.
void matvec_rows(const double* M, int64_t rs, int64_t cs, const double* v,
                 int64_t vs, double* y, int64_t ys, int64_t k, int64_t lo,
                 int64_t hi) {
  if (std::abs(cs) <= std::abs(rs)) {
    int64_t i = lo;
    for (; i + 4 <= hi; i += 4) {
      const double* r0 = M + i * rs;
      const double* r1 = r0 + rs;
      const double* r2 = r1 + rs;
      const double* r3 = r2 + rs;
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (int64_t j = 0; j < k; ++j) {
        double x = v[j * vs];
        a0 += r0[j * cs] * x;
        a1 += r1[j * cs] * x;
        a2 += r2[j * cs] * x;
        a3 += r3[j * cs] * x;
      }
      y[i * ys] = a0;
      y[(i + 1) * ys] = a1;
      y[(i + 2) * ys] = a2;
      y[(i + 3) * ys] = a3;
    }
    for (; i < hi; ++i) {
      const double* r = M + i * rs;
      double a = 0.0;
      for (int64_t j = 0; j < k; ++j) a += r[j * cs] * v[j * vs];
      y[i * ys] = a;
    }
    return;
  }
  for (int64_t i = lo; i < hi; ++i) y[i * ys] = 0.0;
  int64_t j = 0;
  for (; j + 4 <= k; j += 4) {
    const double* c0 = M + j * cs;
    const double* c1 = c0 + cs;
    const double* c2 = c1 + cs;
    const double* c3 = c2 + cs;
    double x0 = v[j * vs], x1 = v[(j + 1) * vs], x2 = v[(j + 2) * vs],
           x3 = v[(j + 3) * vs];
    if (rs == 1 && ys == 1) {  // unit strides: let the compiler vectorize
      for (int64_t i = lo; i < hi; ++i)
        y[i] = (((y[i] + c0[i] * x0) + c1[i] * x1) + c2[i] * x2) + c3[i] * x3;
    } else {
      for (int64_t i = lo; i < hi; ++i) {
        double& yi = y[i * ys];
        yi = (((yi + c0[i * rs] * x0) + c1[i * rs] * x1) + c2[i * rs] * x2) +
             c3[i * rs] * x3;
      }
    }
  }
  for (; j < k; ++j) {
    const double* c = M + j * cs;
    double x = v[j * vs];
    for (int64_t i = lo; i < hi; ++i) y[i * ys] += c[i * rs] * x;
  }
}

// out = M @ v for a strided m x k view M, written into out's view.  Split
// over rows across the pool when the product is worth a dispatch.
void matvec(const Executor& ex, const Tensor& M, const Tensor& v,
            Tensor& out) {
  int64_t m = M.shape()[0], k = M.shape()[1];
  const double* pm = M.data();
  const double* pv = v.data();
  double* po = out.data();
  int64_t rs = M.strides()[0], cs = M.strides()[1], vs = v.strides()[0],
          ys = out.strides()[0];
  int chunks = ex.options().parallel
                   ? Executor::work_chunks(kMaddNs * (double)m * (double)k, m,
                                           /*min_chunks=*/2)
                   : 1;
  if (chunks <= 1) {
    matvec_rows(pm, rs, cs, pv, vs, po, ys, k, 0, m);
    return;
  }
  ThreadPool::global().parallel_for(m, chunks, [&](int64_t lo, int64_t hi) {
    matvec_rows(pm, rs, cs, pv, vs, po, ys, k, lo, hi);
  });
}

// Try the in-place kernels; false leaves the product to tensor_ops.
bool matmul_in_place(const Executor& ex, const Tensor& a, const Tensor& b,
                     Tensor& out) {
  if (a.dtype() != DType::f64 || b.dtype() != DType::f64 ||
      out.dtype() != DType::f64 || out.same_buffer(a) || out.same_buffer(b))
    return false;
  const auto& sa = a.shape();
  const auto& sb = b.shape();
  const auto& so = out.shape();
  if (a.rank() == 2 && b.rank() == 1) {  // GEMV
    if (sa[1] != sb[0] || so.size() != 1 || so[0] != sa[0]) return false;
    matvec(ex, a, b, out);
    return true;
  }
  if (a.rank() == 1 && b.rank() == 2) {  // GEVM: x @ B == B^T @ x
    if (sa[0] != sb[0] || so.size() != 1 || so[0] != sb[1]) return false;
    matvec(ex, b.transpose(), a, out);
    return true;
  }
  if (a.rank() == 1 && b.rank() == 1) {  // dot
    if (sa[0] != sb[0] || !so.empty()) return false;
    const double* pa = a.data();
    const double* pb = b.data();
    int64_t as = a.strides()[0], bs = b.strides()[0];
    double acc = 0.0;
    for (int64_t i = 0; i < sa[0]; ++i) acc += pa[i * as] * pb[i * bs];
    *out.data() = acc;
    return true;
  }
  return false;  // 2-D x 2-D: the blocked GEMM
}

void matmul_handler(Executor& ex, const ir::State& st, int node) {
  const auto* l = st.node_as<const ir::LibraryNode>(node);
  const ir::Edge* ea = edge_by_dst_conn(st, node, "_a");
  const ir::Edge* eb = edge_by_dst_conn(st, node, "_b");
  const ir::Edge* ec = edge_by_src_conn(st, node, "_c");
  Tensor a = ex.view(ea->memlet, attr_or(*l, "viewdims_a", kNoViewdims));
  Tensor b = ex.view(eb->memlet, attr_or(*l, "viewdims_b", kNoViewdims));
  Tensor out = ex.view(ec->memlet);
  if (!matmul_in_place(ex, a, b, out)) out.assign_from(ops::matmul(a, b));
  // Account FLOPs in the executor statistics (2mnk).
  int64_t m = a.rank() == 2 ? a.shape()[0] : 1;
  int64_t k = a.rank() == 2 ? a.shape()[1] : a.shape()[0];
  int64_t n = b.rank() == 2 ? b.shape()[1] : 1;
  ex.stats().flops += 2 * m * n * k;
  ex.stats().loads += m * k + k * n;
  ex.stats().stores += m * n;
}

// Calls f(off_a, off_b) for every index of `shape` in row-major order,
// with offsets along strides sa and sb (sb may hold zeros to fold several
// indices onto one element).
template <typename F>
void for_each_index(size_t rank, const int64_t* shape, const int64_t* sa,
                    const int64_t* sb, int64_t oa, int64_t ob, F& f) {
  if (rank == 0) {
    f(oa, ob);
    return;
  }
  if (rank == 1) {
    for (int64_t i = 0; i < shape[0]; ++i) f(oa + i * sa[0], ob + i * sb[0]);
    return;
  }
  for (int64_t i = 0; i < shape[0]; ++i)
    for_each_index(rank - 1, shape + 1, sa + 1, sb + 1, oa + i * sa[0],
                   ob + i * sb[0], f);
}

// Try the in-place reductions (axis < 0: reduce every element); false
// leaves the reduction to tensor_ops.  Elements are folded in logical
// row-major order, the order of ops::sum_all/max_all/min_all/sum_axis, so
// results are bit-identical.
bool reduce_in_place(const Tensor& in, Tensor& out, const std::string& op,
                     int axis) {
  size_t r = in.rank();
  if (in.dtype() != DType::f64 || out.dtype() != DType::f64 ||
      out.same_buffer(in) || r > kMaxRank)
    return false;
  const double* pi = in.data();
  double* po = out.data();
  std::array<int64_t, kMaxRank> ostr{};  // zeros: fold onto one element
  if (axis >= 0) {
    if (op != "sum" || axis >= (int)r || out.rank() != r - 1) return false;
    for (size_t d = 0, od = 0; d < r; ++d) {
      if ((int)d == axis) continue;
      if (out.shape()[od] != in.shape()[d]) return false;
      ostr[d] = out.strides()[od++];
    }
    auto zero = [&](int64_t o, int64_t) { po[o] = 0.0; };
    for_each_index(out.rank(), out.shape().data(), out.strides().data(),
                   ostr.data(), 0, 0, zero);
    auto add = [&](int64_t i, int64_t o) { po[o] += pi[i]; };
    for_each_index(r, in.shape().data(), in.strides().data(), ostr.data(), 0,
                   0, add);
    return true;
  }
  if (out.size() < 1) return false;
  double acc = 0.0;
  if (op == "sum") {
    auto f = [&](int64_t i, int64_t) { acc += pi[i]; };
    for_each_index(r, in.shape().data(), in.strides().data(), ostr.data(), 0,
                   0, f);
  } else if (op == "max" || op == "min") {
    if (in.size() == 0) return false;  // tensor_ops reports the error
    acc = pi[0];
    bool is_max = op == "max";
    auto f = [&](int64_t i, int64_t) {
      acc = is_max ? std::max(acc, pi[i]) : std::min(acc, pi[i]);
    };
    for_each_index(r, in.shape().data(), in.strides().data(), ostr.data(), 0,
                   0, f);
  } else {
    return false;
  }
  *po = acc;
  return true;
}

void reduce_handler(Executor& ex, const ir::State& st, int node) {
  const auto* l = st.node_as<const ir::LibraryNode>(node);
  const ir::Edge* ein = edge_by_dst_conn(st, node, "_in");
  const ir::Edge* eout = edge_by_src_conn(st, node, "_out");
  Tensor in = ex.view(ein->memlet, attr_or(*l, "viewdims_in", kNoViewdims));
  Tensor out = ex.view(eout->memlet);
  const std::string& op = attr_or(*l, "op", kSum);
  auto axis_it = l->attrs.find("axis");
  bool has_axis = axis_it != l->attrs.end();
  int axis = has_axis ? std::stoi(axis_it->second) : -1;
  if (axis < 0 && has_axis) axis += (int)in.rank();
  if ((has_axis && axis < 0) || !reduce_in_place(in, out, op, axis)) {
    if (has_axis) {
      DACE_CHECK(op == "sum", "library: axis reduction supports sum only");
      out.assign_from(ops::sum_axis(in, axis));
    } else {
      double v;
      if (op == "sum") {
        v = ops::sum_all(in);
      } else if (op == "max") {
        v = ops::max_all(in);
      } else if (op == "min") {
        v = ops::min_all(in);
      } else {
        throw err("library: unknown reduction '", op, "'");
      }
      out.set_flat(0, v);
    }
  }
  ex.stats().flops += in.size();
  ex.stats().loads += in.size();
  ex.stats().stores += out.size();
}

}  // namespace

namespace detail {
void register_builtin_kernels(LibraryRegistry& reg) {
  reg.register_op("MatMul", matmul_handler);
  reg.register_op("Reduce", reduce_handler);
}
}  // namespace detail

}  // namespace dace::rt
