// Metrics registry tests, plus the guarantee that a run keeps what it
// measures in process.
//
//   Metrics*     -- registry unit tests: counter/gauge/histogram semantics,
//                   Prometheus text exposition, the DACE_METRICS=0 freeze
//   NoDiskWrites -- parse, auto_optimize and execute a suite kernel with the
//                   native tier off: the run must leave the cache root that
//                   HOME / XDG_CACHE_HOME / DACE_CACHE_DIR point at empty
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/metrics.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "runtime/executor.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace {
namespace {

namespace fs = std::filesystem;
using rt::Bindings;

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

std::string make_temp_dir() {
  char tmpl[] = "/tmp/dacepp-metrics-test-XXXXXX";
  EXPECT_NE(mkdtemp(tmpl), nullptr);
  return tmpl;
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CounterSemantics) {
  auto& c = metrics::counter("dacepp_test_counter_semantics_total");
  c.reset();
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Interning: same name, same instrument.
  EXPECT_EQ(&metrics::counter("dacepp_test_counter_semantics_total"), &c);
}

TEST(Metrics, GaugeSemantics) {
  auto& g = metrics::gauge("dacepp_test_gauge_semantics");
  g.reset();
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST(Metrics, HistogramBuckets) {
  EXPECT_EQ(metrics::Histogram::bucket_of(0), 0);
  EXPECT_EQ(metrics::Histogram::bucket_of(1), 1);
  EXPECT_EQ(metrics::Histogram::bucket_of(2), 2);
  EXPECT_EQ(metrics::Histogram::bucket_of(3), 2);
  EXPECT_EQ(metrics::Histogram::bucket_of(4), 3);
  EXPECT_EQ(metrics::Histogram::bucket_of(~0ull),
            metrics::Histogram::kBuckets - 1);
  auto& h = metrics::histogram("dacepp_test_histogram_ns");
  h.reset();
  h.observe(1);
  h.observe(1000);
  h.observe(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 2001u);
  EXPECT_EQ(h.bucket(metrics::Histogram::bucket_of(1000)), 2u);
}

TEST(Metrics, ExposeTextFormat) {
  auto& c = metrics::counter("dacepp_test_expose_total");
  c.reset();
  c.inc(3);
  auto& h = metrics::histogram("dacepp_test_expose_ns");
  h.reset();
  h.observe(5);
  std::string text = metrics::expose_text();
  EXPECT_NE(text.find("# TYPE dacepp_test_expose_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("dacepp_test_expose_total 3"), std::string::npos);
  EXPECT_NE(text.find("dacepp_test_expose_ns_bucket{le="), std::string::npos);
  EXPECT_NE(text.find("dacepp_test_expose_ns_sum 5"), std::string::npos);
  EXPECT_NE(text.find("dacepp_test_expose_ns_count 1"), std::string::npos);
}

TEST(Metrics, DisabledFreezesValues) {
  auto& c = metrics::counter("dacepp_test_freeze_total");
  c.reset();
  c.inc();
  metrics::set_enabled(false);
  c.inc(100);
  metrics::set_enabled(true);
  EXPECT_EQ(c.value(), 1u);
  c.inc();
  EXPECT_EQ(c.value(), 2u);
}

// ---------------------------------------------------------------------------
// No hidden persistence
// ---------------------------------------------------------------------------

// Frontend, passes and a VM-tier run write nothing to disk: counters and
// per-node profiles live in the registry and the Instrumenter, and the
// artifact cache is only touched by native builds.
TEST(NoDiskWrites, RunLeavesCacheRootEmpty) {
  const std::string root = make_temp_dir();
  {
    EnvGuard home("HOME", root.c_str());
    EnvGuard xdg("XDG_CACHE_HOME", root.c_str());
    EnvGuard cache("DACE_CACHE_DIR", root.c_str());
    EnvGuard jit("DACEPP_JIT", "0");
    const kernels::Kernel& k = kernels::kernel("jacobi_2d");
    const sym::SymbolMap& sizes = k.presets.at("test");
    auto sdfg = fe::compile_to_sdfg(k.source);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    Bindings b = k.init(sizes);
    rt::Executor ex(*sdfg);
    ex.run(b, sizes);
    EXPECT_GT(ex.map_launches(), 0);
  }  // the executor is destroyed here, before the root is inspected
  std::string left;
  for (const auto& e : fs::recursive_directory_iterator(root))
    left += " " + fs::relative(e.path(), root).string();
  fs::remove_all(root);
  EXPECT_TRUE(left.empty()) << "run wrote under the cache root:" << left;
}

}  // namespace
}  // namespace dace
