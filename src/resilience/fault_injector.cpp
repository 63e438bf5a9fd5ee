#include "resilience/fault_injector.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>

namespace tsem {
namespace {

bool fail(std::string* err, const std::string& what) {
  if (err) *err = what;
  return false;
}

/// strtol-free digits-only parse; returns false on empty/non-digit input.
bool parse_int(std::string_view s, int* out) {
  if (s.empty()) return false;
  long v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
    if (v > 1'000'000'000L) return false;
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

const char* to_string(ProcessFault::Kind k) {
  switch (k) {
    case ProcessFault::Kind::None: return "none";
    case ProcessFault::Kind::KillWorker: return "kill";
    case ProcessFault::Kind::Hang: return "hang";
    case ProcessFault::Kind::TornCheckpoint: return "torn";
    case ProcessFault::Kind::TornPublish: return "tornpub";
    case ProcessFault::Kind::CacheFail: return "cachefail";
  }
  return "none";
}

bool parse_process_fault(std::string_view spec, ProcessFault* out,
                         std::string* err) {
  *out = ProcessFault{};
  if (spec.empty() || spec == "none") return true;

  const std::size_t at = spec.find('@');
  if (at == std::string_view::npos)
    return fail(err, "process fault '" + std::string(spec) +
                         "': expected <kind>@<step>[#<attempt>]");
  const std::string_view kind = spec.substr(0, at);
  std::string_view rest = spec.substr(at + 1);

  ProcessFault f;
  if (kind == "kill") f.kind = ProcessFault::Kind::KillWorker;
  else if (kind == "hang") f.kind = ProcessFault::Kind::Hang;
  else if (kind == "torn") f.kind = ProcessFault::Kind::TornCheckpoint;
  else if (kind == "tornpub") f.kind = ProcessFault::Kind::TornPublish;
  else if (kind == "cachefail") f.kind = ProcessFault::Kind::CacheFail;
  else
    return fail(err, "process fault kind '" + std::string(kind) +
                         "': expected kill, hang, torn, tornpub, or "
                         "cachefail");

  const std::size_t hash = rest.find('#');
  if (hash != std::string_view::npos) {
    if (!parse_int(rest.substr(hash + 1), &f.attempt))
      return fail(err, "process fault '" + std::string(spec) +
                           "': bad attempt number");
    rest = rest.substr(0, hash);
  }
  if (!parse_int(rest, &f.step) || f.step < 1)
    return fail(err, "process fault '" + std::string(spec) +
                         "': bad step number");
  *out = f;
  return true;
}

std::string format_process_fault(const ProcessFault& f) {
  if (f.kind == ProcessFault::Kind::None) return "none";
  std::string s = to_string(f.kind);
  s += '@';
  s += std::to_string(f.step);
  if (f.attempt != 1) {
    s += '#';
    s += std::to_string(f.attempt);
  }
  return s;
}

ProcessFault process_fault_from_env() {
  ProcessFault f;
  const char* v = std::getenv(kProcessFaultEnvVar);
  if (!v) return f;
  if (!parse_process_fault(v, &f)) return ProcessFault{};
  return f;
}

std::vector<std::size_t> FaultInjector::pick(std::size_t lo, std::size_t hi,
                                             std::size_t count) {
  std::set<std::size_t> chosen;
  const std::size_t span = hi - lo;
  count = std::min(count, span);
  std::uniform_int_distribution<std::size_t> dist(0, span - 1);
  while (chosen.size() < count) chosen.insert(lo + dist(rng_));
  return {chosen.begin(), chosen.end()};
}

std::vector<std::size_t> FaultInjector::poison_nan(double* v, std::size_t n,
                                                   std::size_t count) {
  if (n == 0 || count == 0) return {};
  auto idx = pick(0, n, count);
  for (std::size_t i : idx) v[i] = std::numeric_limits<double>::quiet_NaN();
  return idx;
}

void FaultInjector::perturb(double* v, std::size_t n, double magnitude,
                            std::size_t count) {
  if (n == 0 || count == 0) return;
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (std::size_t i : pick(0, n, count)) v[i] *= 1.0 + magnitude * u(rng_);
}

bool FaultInjector::corrupt_file(const std::string& path, std::size_t count,
                                 std::size_t skip_prefix, std::string* err) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) return fail(err, "cannot open " + path);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  if (size <= skip_prefix)
    return fail(err, path + " too small to corrupt past prefix");
  for (std::size_t off : pick(skip_prefix, size, count)) {
    f.seekg(static_cast<std::streamoff>(off));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0xff);
    f.seekp(static_cast<std::streamoff>(off));
    f.write(&c, 1);
  }
  f.flush();
  if (!f) return fail(err, "write to " + path + " failed");
  return true;
}

std::vector<std::pair<int, ProcessFault>> FaultInjector::plan_worker_kills(
    int njobs, std::size_t count, int max_step) {
  std::vector<std::pair<int, ProcessFault>> plan;
  if (njobs <= 0 || count == 0 || max_step < 1) return plan;
  std::uniform_int_distribution<int> step_dist(1, max_step);
  for (std::size_t job : pick(0, static_cast<std::size_t>(njobs), count)) {
    ProcessFault f;
    f.kind = ProcessFault::Kind::KillWorker;
    f.step = step_dist(rng_);
    plan.emplace_back(static_cast<int>(job), f);
  }
  return plan;
}

bool FaultInjector::truncate_file(const std::string& path,
                                  double keep_fraction, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(err, "cannot open " + path);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  const auto keep = static_cast<std::size_t>(
      static_cast<double>(bytes.size()) * std::clamp(keep_fraction, 0.0, 1.0));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return fail(err, "cannot rewrite " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(keep));
  out.close();
  if (!out) return fail(err, "truncating " + path + " failed");
  return true;
}

}  // namespace tsem
