// Benchmark driver: runs ONE workload in this (fresh) process and prints
// its raw record as the last line of stdout.  run.py builds this binary,
// starts one process per workload, checks the record and reduces it.
//
// usage: terabench_driver <hairpin3d|fleet_sweep|exec_ranks>
//            --seed N --seconds S --trace 0|1 --outdir DIR
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common.hpp"
#include "io/binfile.hpp"
#include "tensor/mxm.hpp"

extern char** environ;

namespace terabench {

double now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int Tracer::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.t0 = now();
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].t1 = now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add(const std::string& name, double t0, double t1) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.t0 = t0;
  s.t1 = t1;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
}

tsem::obs::Json Tracer::to_json() const {
  // Children of one parent may overlap (concurrent fleet jobs), so a
  // parent's self time subtracts the UNION of its children's intervals.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const auto& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
  std::map<std::string, std::pair<double, double>> per_name;  // total, self
  tsem::obs::Json list = tsem::obs::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      const double ca = std::max(a, s.t0), cb = std::min(b, s.t1);
      if (cb <= ca) continue;
      if (ca > hi) {
        if (hi > lo) covered += hi - lo;
        lo = ca;
        hi = cb;
      } else {
        hi = std::max(hi, cb);
      }
    }
    if (hi > lo) covered += hi - lo;
    auto& pn = per_name[s.name];
    pn.first += s.t1 - s.t0;
    pn.second += (s.t1 - s.t0) - covered;
    tsem::obs::Json j = tsem::obs::Json::object();
    j["name"] = s.name;
    j["start"] = s.t0;
    j["end"] = s.t1;
    j["parent"] = s.parent;
    j["run"] = s.run;
    list.push_back(std::move(j));
  }
  tsem::obs::Json summary = tsem::obs::Json::object();
  for (const auto& [name, ts] : per_name) {
    tsem::obs::Json j = tsem::obs::Json::object();
    j["total_s"] = ts.first;
    j["self_s"] = ts.second;
    summary[name] = std::move(j);
  }
  tsem::obs::Json doc = tsem::obs::Json::object();
  doc["summary"] = std::move(summary);
  doc["spans"] = std::move(list);
  return doc;
}

double peak_rss_mb(bool children) {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  long kb = self.ru_maxrss;
  if (children) {
    getrusage(RUSAGE_CHILDREN, &kids);
    kb = std::max(kb, kids.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

int ncores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

tsem::obs::Json environment_provenance() {
  tsem::obs::Json p = tsem::obs::Json::object();
  p["nproc"] = ncores();
  tsem::obs::Json env = tsem::obs::Json::object();
  for (char** e = environ; e && *e; ++e) {
    const std::string kv(*e);
    if (kv.rfind("OMP_", 0) == 0 || kv.rfind("TSEM_", 0) == 0 ||
        kv.rfind("GOMP_", 0) == 0) {
      const auto eq = kv.find('=');
      env[kv.substr(0, eq)] = eq == std::string::npos ? "" : kv.substr(eq + 1);
    }
  }
  p["env"] = std::move(env);
  p["isa_runtime"] = tsem::mxm_isa_runtime_name();
  p["build_type"] = TERABENCH_BUILD_TYPE;
  return p;
}

tsem::obs::Json mxm_selections() {
  tsem::mxm_autotune_init();
  tsem::obs::Json sel = tsem::obs::Json::object();
  for (const auto& [shape, kernel] : tsem::mxm_autotune_selections())
    sel[shape] = kernel;
  return sel;
}

void Result::sample(const std::string& name, double v) {
  tsem::obs::Json& arr = samples[name];
  if (!arr.is_array()) arr = tsem::obs::Json::array();
  arr.push_back(v);
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) checks.push_back(what);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace terabench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: terabench_driver <hairpin3d|fleet_sweep|exec_ranks> "
               "--seed N --seconds S --trace 0|1 --outdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace terabench;
  if (argc < 2) return usage();
  Args a;
  a.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--seed") {
      a.seed = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--outdir") {
      a.outdir = v;
    } else {
      return usage();
    }
  }
  if (a.seconds <= 0.0) return usage();
  (void)now();  // start the run clock

  Tracer tr(a.trace);
  Result r;
  tsem::obs::Json prov = environment_provenance();
  if (a.workload == "hairpin3d") {
    r = run_hairpin(a, tr);
  } else if (a.workload == "fleet_sweep") {
    r = run_fleet_sweep(a, tr);
  } else if (a.workload == "exec_ranks") {
    r = run_exec_ranks(a, tr);
  } else {
    return usage();
  }
  // After the workload: run_fleet must precede any OpenMP region, and the
  // tuner state must start clean, so kernel selections are read last.
  prov["mxm_selections"] = mxm_selections();

  tsem::obs::Json doc = tsem::obs::Json::object();
  doc["workload"] = a.workload;
  doc["seed"] = static_cast<std::int64_t>(a.seed);
  doc["trace"] = a.trace;
  doc["attempted"] = r.attempted;
  doc["failed"] = r.failed;
  doc["failed_checks"] = r.checks;
  doc["inputs"] = r.inputs;
  doc["samples"] = r.samples;
  doc["layers"] = r.layers;
  doc["provenance"] = prov;
  if (a.trace) {
    const std::string path = a.outdir + "/spans_" + a.workload + ".json";
    const std::string text = tr.to_json().dump(1) + "\n";
    std::string err;
    if (!tsem::write_file_atomic(path, text.data(), text.size(), &err)) {
      std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                   err.c_str());
      return 1;
    }
    doc["spans_file"] = path;
  }
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}
