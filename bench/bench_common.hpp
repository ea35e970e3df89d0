// Shared benchmark utilities: median-of-N timing with its min/max spread
// and table formatting.  The paper reports medians of 10 runs with 95%
// nonparametric CIs (Section 3.4.1); perfbench/ measures that way.
//
// Timing runs on the obs:: monotonic clock (common/obs.hpp), so bench
// spans land on the same timeline as runtime/JIT/pass spans when tracing
// is enabled (DACE_TRACE_FILE=...).  These binaries print the paper's
// tables; the measured record is perfbench/.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/obs.hpp"

namespace bench {

struct Timing {
  double median_s = 0;
  double ci_low = 0, ci_high = 0;  // min and max of the reps
  int reps = 0;
};

inline Timing time_median(const std::function<void()>& fn, int reps = 5) {
  std::vector<double> ts;
  for (int i = 0; i < reps; ++i) {
    int64_t t0 = dace::obs::now_ns();
    fn();
    ts.push_back((double)(dace::obs::now_ns() - t0) / 1e9);
  }
  std::sort(ts.begin(), ts.end());
  Timing t;
  t.reps = reps;
  t.median_s = ts[ts.size() / 2];
  t.ci_low = ts.front();
  t.ci_high = ts.back();
  return t;
}

/// Named timing: when tracing is on, covered by a "bench" span on the
/// host timeline.
inline Timing time_median(const std::string& name,
                          const std::function<void()>& fn, int reps = 5) {
  dace::obs::Span span("bench", name);
  return time_median(fn, reps);
}

inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double acc = 0;
  for (double x : xs) acc += std::log(x);
  return std::exp(acc / (double)xs.size());
}

inline std::string fmt_time(double s) {
  char buf[64];
  if (s >= 1.0) {
    snprintf(buf, sizeof(buf), "%.3f s", s);
  } else if (s >= 1e-3) {
    snprintf(buf, sizeof(buf), "%.3f ms", s * 1e3);
  } else {
    snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  }
  return buf;
}

}  // namespace bench
