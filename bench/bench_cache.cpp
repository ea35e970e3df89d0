// bench_cache: cold- vs warm-cache JIT latency (the artifact cache's
// reason to exist).  Three medians:
//
//   cache.jit_uncached  DACE_CACHE=0 path: full host-compiler run, the
//                       pre-cache status quo
//   cache.jit_cold      cache enabled, key never seen: compiler run +
//                       fsync/rename commit (the one-time publish cost)
//   cache.jit_warm      key committed: verified dlopen, no compiler
//
// The acceptance bar is cache.jit_warm << cache.jit_cold.  Warm reps
// re-verify the artifact checksum and re-dlopen each time, so the number
// includes the full read-side defense, not just a refcount bump.
//
// All work happens in a private temp cache dir; the user's store is
// never touched.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "codegen/artifact_cache.hpp"
#include "codegen/jit.hpp"

namespace fs = std::filesystem;
using dace::cg::cache::ArtifactCache;

namespace {

int g_uniq = 0;

// A tiny but non-trivial translation unit; unique per call when `uniq`
// so every cold rep pays the full compiler price on a fresh key.
std::string make_source(bool uniq) {
  int tag = uniq ? ++g_uniq : 0;
  char buf[256];
  snprintf(buf, sizeof(buf),
           "extern \"C\" double dacepp_bench_fn(double x) {\n"
           "  double acc = %d;\n"
           "  for (int i = 0; i < 64; ++i) acc += x * i;\n"
           "  return acc;\n"
           "}\n",
           tag);
  return buf;
}

void build_once(bool uniq) {
  auto obj = dace::cg::detail::build_and_load(
      make_source(uniq), "dacepp_bench", "dacepp_bench_fn", "c++", "-O2");
  if (!obj.sym) {
    fprintf(stderr, "bench_cache: build failed (no host compiler?)\n");
    exit(1);
  }
}

void row(const char* name, const bench::Timing& t) {
  printf("%-22s %12s  [%s, %s]  reps=%d\n", name,
         bench::fmt_time(t.median_s).c_str(), bench::fmt_time(t.ci_low).c_str(),
         bench::fmt_time(t.ci_high).c_str(), t.reps);
}

}  // namespace

int main() {
  char tmpl[] = "/tmp/bench-cache-XXXXXX";
  if (!mkdtemp(tmpl)) return 1;
  std::string dir = tmpl;

  // Uncached baseline: the pre-cache pipeline (scratch build every time).
  setenv("DACE_CACHE", "0", 1);
  setenv("DACE_CACHE_DIR", dir.c_str(), 1);
  ArtifactCache::reset_for_testing();
  auto uncached = bench::time_median("cache.jit_uncached",
                                     [] { build_once(/*uniq=*/true); }, 5);

  // Cold: enabled cache, fresh key per rep -> compile + commit.
  setenv("DACE_CACHE", "1", 1);
  ArtifactCache::reset_for_testing();
  auto cold =
      bench::time_median("cache.jit_cold", [] { build_once(/*uniq=*/true); }, 5);

  // Warm: fixed key, committed on the priming call.
  build_once(/*uniq=*/false);
  auto warm =
      bench::time_median("cache.jit_warm", [] { build_once(/*uniq=*/false); },
                         10);

  printf("JIT build latency (artifact cache, dir=%s)\n", dir.c_str());
  row("uncached (DACE_CACHE=0)", uncached);
  row("cold (compile+commit)", cold);
  row("warm (verified dlopen)", warm);
  double speedup = warm.median_s > 0 ? cold.median_s / warm.median_s : 0;
  printf("warm speedup over cold: %.1fx\n", speedup);

  fs::remove_all(dir);
  // The acceptance criterion: a warm start must beat a cold start.
  if (warm.median_s >= cold.median_s) {
    fprintf(stderr, "bench_cache: warm build not faster than cold\n");
    return 1;
  }
  return 0;
}
