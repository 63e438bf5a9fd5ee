// Table 3: MFLOPS for the (n1 x n2) x (n2 x n3) matrix-matrix product
// kernels in the calling configurations of an order N = 15 simulation
// (N1 = 16, N2 = 14; see paper §6).
//
// Kernel mapping (DESIGN.md substitution for the vendor libraries):
//   lkm -> mxm_generic (stock portable kernel)
//   csm -> mxm_blocked (cache-blocked library variant)
//   ghm -> mxm_fixed   (fully compile-time-specialized, n2 <= 20)
//   f2, f3             (the paper's hand-unrolled kernels, as published)
//
// The data is flushed between iterations groups only by working-set
// rotation (the paper notes all mxm timing data is noncached; we rotate
// among many operand copies to defeat the cache similarly).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <random>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "tensor/kernels_fixed.hpp"
#include "tensor/kernels_simd.hpp"
#include "tensor/mxm.hpp"

namespace {

struct Shape {
  int n1, n2, n3;
};

// The ten calling configurations of paper Table 3.
const Shape kShapes[] = {
    {14, 2, 14},  {2, 14, 2},   {16, 14, 16}, {16, 14, 196}, {256, 14, 16},
    {14, 16, 14}, {16, 16, 16}, {16, 16, 256}, {196, 16, 14}, {256, 16, 16}};

using KernelFn = void (*)(const double*, int, const double*, int, double*,
                          int);

// Compile-time-specialized kernels ("ghm") for exactly the table shapes.
template <int M, int K, int N>
void fixed_kernel(const double* a, int, const double* b, int, double* c,
                  int) {
  tsem::mxm_fixed<M, K, N>(a, b, c);
}

KernelFn fixed_for(const Shape& s) {
  if (s.n1 == 14 && s.n2 == 2 && s.n3 == 14) return fixed_kernel<14, 2, 14>;
  if (s.n1 == 2 && s.n2 == 14 && s.n3 == 2) return fixed_kernel<2, 14, 2>;
  if (s.n1 == 16 && s.n2 == 14 && s.n3 == 16) return fixed_kernel<16, 14, 16>;
  if (s.n1 == 16 && s.n2 == 14 && s.n3 == 196)
    return fixed_kernel<16, 14, 196>;
  if (s.n1 == 256 && s.n2 == 14 && s.n3 == 16)
    return fixed_kernel<256, 14, 16>;
  if (s.n1 == 14 && s.n2 == 16 && s.n3 == 14) return fixed_kernel<14, 16, 14>;
  if (s.n1 == 16 && s.n2 == 16 && s.n3 == 16) return fixed_kernel<16, 16, 16>;
  if (s.n1 == 16 && s.n2 == 16 && s.n3 == 256)
    return fixed_kernel<16, 16, 256>;
  if (s.n1 == 196 && s.n2 == 16 && s.n3 == 14)
    return fixed_kernel<196, 16, 14>;
  return fixed_kernel<256, 16, 16>;
}

// Rotate among enough operand copies that successive iterations miss in
// cache (the paper's "noncached" measurement condition).
struct OperandPool {
  OperandPool(const Shape& s, std::size_t bytes_target) {
    const std::size_t per = static_cast<std::size_t>(s.n1) * s.n2 +
                            static_cast<std::size_t>(s.n2) * s.n3 +
                            static_cast<std::size_t>(s.n1) * s.n3;
    copies = std::max<std::size_t>(2, bytes_target / (per * 8));
    a.resize(copies * s.n1 * s.n2);
    b.resize(copies * s.n2 * s.n3);
    c.resize(copies * s.n1 * s.n3);
    std::mt19937 rng(42);
    std::uniform_real_distribution<double> dist(-1, 1);
    for (auto& v : a) v = dist(rng);
    for (auto& v : b) v = dist(rng);
  }
  std::size_t copies;
  std::vector<double> a, b, c;
};

void run_kernel(benchmark::State& state, const Shape& s, KernelFn kern) {
  OperandPool pool(s, 64u << 20);  // ~64 MiB working set
  std::size_t i = 0;
  for (auto _ : state) {
    const double* pa =
        pool.a.data() + i * static_cast<std::size_t>(s.n1) * s.n2;
    const double* pb =
        pool.b.data() + i * static_cast<std::size_t>(s.n2) * s.n3;
    double* pc = pool.c.data() + i * static_cast<std::size_t>(s.n1) * s.n3;
    kern(pa, s.n1, pb, s.n2, pc, s.n3);
    benchmark::DoNotOptimize(pc[0]);
    i = (i + 1) % pool.copies;
  }
  const double flops = 2.0 * s.n1 * s.n2 * s.n3;
  state.counters["MFLOPS"] = benchmark::Counter(
      flops * 1e-6, benchmark::Counter::kIsIterationInvariantRate);
}

// Console output stays the stock google-benchmark table; this reporter
// additionally captures each run for the BENCH_table3_mxm.json report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(tsem::obs::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      tsem::obs::Json& c = report_->add_case(run.benchmark_name());
      c["iterations"] = static_cast<std::int64_t>(run.iterations);
      c["wall_seconds"] = run.GetAdjustedRealTime() * 1e-9;  // per iteration
      auto it = run.counters.find("MFLOPS");
      if (it != run.counters.end()) c["mflops"] = it->second.value;
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  tsem::obs::BenchReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  struct Named {
    std::string name;
    KernelFn fn;
  };
  // Rows beyond the Table 3 five: the AVX2 kernel whenever compiled in
  // AND runnable here, and mxm() itself — the static shape dispatch every
  // library call goes through.
  const auto extra_kernels = [] {
    std::vector<Named> k;
    if (tsem::simd_available())
      k.push_back({"avx2_b4x8", tsem::mxm_avx2_b4x8});
    k.push_back({"dispatch", tsem::mxm});
    return k;
  };
  std::string kernel_list = "lkm csm ghm f3 f2";
  for (const auto& k : extra_kernels()) kernel_list += " " + k.name;
  for (const auto& s : kShapes) {
    std::vector<Named> kernels = {{"lkm", tsem::mxm_generic},
                                  {"csm", tsem::mxm_blocked},
                                  {"ghm", fixed_for(s)},
                                  {"f3", tsem::mxm_f3},
                                  {"f2", tsem::mxm_f2}};
    for (auto& k : extra_kernels()) kernels.push_back(std::move(k));
    for (const auto& k : kernels) {
      char name[64];
      std::snprintf(name, sizeof(name), "mxm/%dx%dx%d/%s", s.n1, s.n2, s.n3,
                    k.name.c_str());
      benchmark::RegisterBenchmark(
          name, [s, fn = k.fn](benchmark::State& st) { run_kernel(st, s, fn); });
    }
  }
  // Fixed-order tier rows: the "fixed" kernel against the stock generic
  // kernel, the AVX2 kernel and the dispatch on the cube shapes of orders
  // N = 8..16 (the tensor middle stages), single-threaded like every
  // other row here.
  for (int d = 8; d <= 16; ++d) {
    const Shape s{d, d, d};
    std::vector<Named> kernels = {{"fixed", tsem::mxm_fixed_dispatch},
                                  {"lkm", tsem::mxm_generic}};
    for (auto& k : extra_kernels()) kernels.push_back(std::move(k));
    for (const auto& k : kernels) {
      char name[64];
      std::snprintf(name, sizeof(name), "mxm_order/%dx%dx%d/%s", d, d, d,
                    k.name.c_str());
      benchmark::RegisterBenchmark(
          name, [s, fn = k.fn](benchmark::State& st) { run_kernel(st, s, fn); });
    }
  }
  tsem::obs::BenchReport report("table3_mxm");
  report.meta()["table"] = "Table 3";
  report.meta()["kernels"] = kernel_list;
  report.meta()["obs_enabled"] = tsem::obs::enabled();
  // SIMD/dispatch provenance: which ISA the binary saw, whether the AVX2
  // family was compiled in, and which kernel mxm() dispatches to for each
  // Table 3 calling configuration.
  report.meta()["simd_compiled"] = tsem::simd_compiled();
  report.meta()["simd_available"] = tsem::simd_available();
  report.meta()["isa"] = tsem::simd_isa_name();
  // What the machine running the bench actually supports, independent of
  // what this binary was compiled with — reports from different hosts
  // stay comparable.
  report.meta()["isa_runtime"] = tsem::mxm_isa_runtime_name();
  for (const auto& s : kShapes) {
    char label[32];
    std::snprintf(label, sizeof(label), "%dx%dx%d", s.n1, s.n2, s.n3);
    report.meta()["selected"][label] =
        tsem::mxm_selected_name(s.n1, s.n2, s.n3);
  }
  tsem::mxm_emit_dispatch_event();
  // The mxm kernels themselves are serial, but recording the thread
  // budget keeps reports self-describing alongside the threaded benches.
#ifdef _OPENMP
  report.meta()["omp_max_threads"] = omp_get_max_threads();
#else
  report.meta()["omp_max_threads"] = 1;
#endif
  benchmark::Initialize(&argc, argv);
  CapturingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.write();
  return 0;
}
