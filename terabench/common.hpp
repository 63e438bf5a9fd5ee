// Shared pieces of the benchmark driver: the run clock, the in-memory span
// tracer, resource usage, provenance and the sample record each workload
// hands back to run.py.
//
// Spans are recorded only from the driver's own code, around calls into the
// library's public functions; nothing under src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace terabench {

/// Seconds on the steady clock since the first call in this process.
double now();

/// One closed interval of work at a layer boundary.  `parent` indexes the
/// enclosing span (-1 at top level); `run` groups the spans of one
/// repetition of the workload.
struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;
  int run = 0;
};

/// In-memory span recorder.  Disabled tracers record nothing, so the
/// untraced run pays one branch per span site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }
  int begin(const std::string& name);
  void end(int id);
  /// Record an interval measured elsewhere (e.g. a fleet job's launch and
  /// completion events) under the currently open span.
  void add(const std::string& name, double t0, double t1);
  /// Per-name total and self time (span minus the union of its children),
  /// plus the raw span list.
  [[nodiscard]] tsem::obs::Json to_json() const;

 private:
  bool enabled_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name)
      : t_(t), id_(t.enabled() ? t.begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) t_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Peak resident set in MiB from getrusage: this process, and when
/// `children` is set the largest waited-for child as well.
double peak_rss_mb(bool children);

/// Online cores (the default OpenMP team and the fleet/rank count).
int ncores();

/// nproc, OMP_* and TSEM_* environment, runtime ISA and build type.  Does
/// not touch OpenMP or the mxm tuner, so it is safe before run_fleet.
tsem::obs::Json environment_provenance();

/// Every mxm kernel the tuner selected in this process, keyed by shape.
/// Triggers the tuner if it has not run yet.
tsem::obs::Json mxm_selections();

/// Arguments shared by every workload.
struct Args {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outdir = ".";  ///< scratch files (fleet workdir, span dump)
};

/// What a workload hands back: raw per-repetition samples, counts and
/// per-layer values; run.py turns samples into medians and quantiles.
struct Result {
  tsem::obs::Json samples = tsem::obs::Json::object();  ///< name -> [s...]
  tsem::obs::Json layers = tsem::obs::Json::object();   ///< name -> value
  tsem::obs::Json inputs = tsem::obs::Json::object();   ///< seeded inputs
  tsem::obs::Json checks = tsem::obs::Json::array();    ///< failed checks
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void sample(const std::string& name, double v);
  void layer(const std::string& name, double v) { layers[name] = v; }
  /// Record a failed output check (the run's `correct` turns false).
  void check(bool ok, const std::string& what);
};

Result run_hairpin(const Args& a, Tracer& tr);
Result run_fleet_sweep(const Args& a, Tracer& tr);
Result run_exec_ranks(const Args& a, Tracer& tr);

/// Median of a non-empty sample (copies; the driver's samples are small).
double median(std::vector<double> v);

}  // namespace terabench
