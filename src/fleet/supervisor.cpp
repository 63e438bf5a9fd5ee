#include "fleet/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>

#include "fleet/proc.hpp"
#include "fleet/setup_cache.hpp"
#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"

namespace tsem::fleet {
namespace {

using Clock = std::chrono::steady_clock;

bool fail(std::string* err, const std::string& what) {
  if (err) *err = what;
  return false;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// mkdir -p.  Races with concurrent creators are fine (EEXIST ignored).
bool ensure_dir(const std::string& path, std::string* err) {
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      cur += path[i];
      continue;
    }
    if (!cur.empty() && cur != ".") {
      if (::mkdir(cur.c_str(), 0777) != 0 && errno != EEXIST)
        return fail(err, "mkdir " + cur + ": " + std::strerror(errno));
    }
    if (i < path.size()) cur += '/';
  }
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
    return fail(err, path + " is not a directory");
  return true;
}

/// Last `max` bytes of a file — the quarantine report's captured log.
std::string log_tail(const std::string& path, std::size_t max = 2048) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return "(no log captured)";
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  const long from = size > static_cast<long>(max)
                        ? size - static_cast<long>(max)
                        : 0;
  std::fseek(f, from, SEEK_SET);
  std::string out(static_cast<std::size_t>(size - from), '\0');
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  out.resize(got);
  return out;
}

std::string exit_detail(int status) {
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    switch (code) {
      case kExitSetupFailed: return "exit 65 (setup failed)";
      case kExitStepFailed: return "exit 66 (resilience ladder exhausted)";
      case kExitResultFailed: return "exit 67 (result write failed)";
      case kExitOrphaned:
        return "exit 68 (orphaned: supervisor heartbeat pipe closed)";
      case kExitInjectedKill: return "exit 70 (injected kill)";
      case kExitInjectedTorn: return "exit 71 (injected torn checkpoint)";
      case kExitCacheFailed:
        return "exit 72 (cache entry rejected; relaunch cold)";
      case kExitInjectedTornPublish:
        return "exit 73 (injected torn cache publish)";
      default: return "exit " + std::to_string(code);
    }
  }
  if (WIFSIGNALED(status))
    return std::string("signal ") + std::to_string(WTERMSIG(status));
  return "unknown wait status " + std::to_string(status);
}

enum class JobState { Ready, Running, Done, Quarantined };

struct JobRt {
  JobState state = JobState::Ready;
  int failed_attempts = 0;  ///< crash/hang attempts consumed so far
  Clock::time_point eligible_at{};  ///< backoff gate while Ready
  /// Relaunch with the cache bypassed (set after kExitCacheFailed).
  bool force_cold = false;
  /// The free cold relaunch has been spent; a second kExitCacheFailed
  /// goes through the normal retry ladder (it can only be a worker bug —
  /// the cold path never touches the cache).
  bool cold_retry_used = false;
};

struct Slot {
  int job = -1;
  pid_t pid = -1;
  int fd = -1;
  int attempt = 0;
  std::string buf;            ///< partial heartbeat line
  Clock::time_point started;
  Clock::time_point last_beat;
  int last_step = 0;
  int steps_this_run = 0;
  bool durable = false;       ///< checkpoint written this attempt
};

}  // namespace

bool run_fleet(const SweepSpec& spec, FleetReport* report, std::string* err) {
  FleetOptions opt = spec.fleet;
  // Environment override for A/B runs of the same spec (the fleet-cache
  // CI leg runs the identical sweep with 0 and 1 and diffs the digests).
  if (const char* e = std::getenv("TSEM_FLEET_CACHE"))
    opt.cache = std::atoi(e) != 0;
  std::vector<JobSpec> jobs = expand_sweep(spec);
  if (jobs.empty()) return fail(err, "fleet: sweep expanded to zero jobs");
  if (!ensure_dir(opt.workdir, err)) return false;

  // Shared setup cache: allocated and sealed BEFORE the first fork so
  // every worker inherits the same MAP_SHARED pages (mp/shm.hpp).
  std::unique_ptr<SetupCache> cache;
  if (opt.cache) {
    cache = std::make_unique<SetupCache>(jobs, opt.cache_entry_kb);
    cache->seal();
  }
  std::vector<std::uint32_t> job_key(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    job_key[i] = setup_key_for(jobs[i]).digest;

  *report = FleetReport{};
  report->sweep_name = spec.name;
  report->options = opt;
  report->jobs.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    report->jobs[i].spec = jobs[i];
    // Fresh fleet: stale artifacts from a previous run must not be
    // mistaken for this run's checkpoints or results.
    const JobPaths p = job_paths(opt.workdir, jobs[i].index);
    std::remove(p.checkpoint.c_str());
    std::remove((p.checkpoint + ".tmp").c_str());
    std::remove(p.result.c_str());
    std::remove((p.result + ".tmp").c_str());
    std::remove(p.log.c_str());
  }

  std::vector<JobRt> rt(jobs.size());
  std::deque<int> ready;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    ready.push_back(static_cast<int>(i));
  std::vector<Slot> slots;
  const Clock::time_point start = Clock::now();
  int terminal = 0;

  // Measured per-key stepping rate for the Sjf scheduler: seconds per
  // step averaged over completed attempts of the same shape key, plus a
  // global steps * order^3 prior calibration for keys not yet measured.
  std::map<std::uint32_t, std::pair<double, long>> measured;
  double calib_sum = 0.0;
  long calib_n = 0;
  auto estimate = [&](int j) -> double {
    const double steps = static_cast<double>(jobs[j].steps);
    const auto it = measured.find(job_key[j]);
    if (it != measured.end() && it->second.second > 0)
      return steps * (it->second.first /
                      static_cast<double>(it->second.second));
    const double n3 = std::pow(static_cast<double>(jobs[j].order), 3);
    const double unit =
        calib_n > 0 ? calib_sum / static_cast<double>(calib_n) : 1.0;
    return steps * n3 * unit;
  };
  auto note_measured = [&](int j, const JobResult& res) {
    const int fresh = res.steps_done - res.resumed_from_step;
    if (fresh <= 0 || res.step_seconds <= 0.0) return;
    const double per = res.step_seconds / static_cast<double>(fresh);
    auto& m = measured[job_key[j]];
    m.first += per;
    m.second++;
    calib_sum += per / std::pow(static_cast<double>(jobs[j].order), 3);
    calib_n++;
  };

  auto record = [&](const std::string& type, int job, int attempt, int step,
                    const std::string& detail) {
    report->events.push_back(FleetEvent{seconds_between(start, Clock::now()),
                                        type, job, attempt, step, detail});
    obs::count("fleet/events/" + type);
    obs::Json e = obs::Json::object();
    e["kind"] = "fleet/" + type;
    e["job"] = job;
    e["attempt"] = attempt;
    e["step"] = step;
    if (!detail.empty()) e["detail"] = detail;
    obs::emit_event(std::move(e));
  };

  auto reap_all = [&]() {
    for (Slot& s : slots) {
      ::kill(s.pid, SIGKILL);
      int status = 0;
      xwaitpid(s.pid, &status, 0);
      ::close(s.fd);
    }
    slots.clear();
  };

  auto launch = [&](int j) -> bool {
    int p[2];
    if (::pipe(p) != 0)
      return fail(err, std::string("fleet: pipe: ") + std::strerror(errno));
    const int attempt = rt[j].failed_attempts + 1;
    // When stdout/stderr are pipes they are fully buffered, and the child
    // would inherit (and later flush) any pending supervisor output,
    // duplicating it once per launch.  Drain both before forking.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(p[0]);
      ::close(p[1]);
      return fail(err, std::string("fleet: fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      // Child: drop every supervisor-side fd it inherited, take this
      // worker's share of the cores, then become the worker.  worker_main
      // never returns.
      ::close(p[0]);
      for (const Slot& s : slots) ::close(s.fd);
      apply_thread_budget(opt.concurrency);
      worker_main(jobs[j], opt.workdir, p[1], attempt, cache.get(),
                  !rt[j].force_cold);
    }
    ::close(p[1]);
    ::fcntl(p[0], F_SETFL, O_NONBLOCK);
    Slot s;
    s.job = j;
    s.pid = pid;
    s.fd = p[0];
    s.attempt = attempt;
    s.started = s.last_beat = Clock::now();
    slots.push_back(std::move(s));
    rt[j].state = JobState::Running;
    report->jobs[j].launches++;
    record("launch", j, attempt, 0,
           "pid " + std::to_string(pid) +
               (report->jobs[j].launches > 1 ? " (relaunch)" : ""));
    return true;
  };

  // Pull buffered heartbeat bytes; any data at all proves liveness.
  // xread retries EINTR: a stray signal here used to truncate the drain,
  // which the watchdog could then misread as heartbeat silence.
  auto drain = [&](Slot& s) {
    char buf[512];
    for (;;) {
      const ssize_t n = xread(s.fd, buf, sizeof buf);
      if (n <= 0) break;
      s.last_beat = Clock::now();
      s.buf.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t nl;
    while ((nl = s.buf.find('\n')) != std::string::npos) {
      const std::string line = s.buf.substr(0, nl);
      s.buf.erase(0, nl + 1);
      int a = 0, b = 0;
      if (std::sscanf(line.c_str(), "S %d", &a) == 1) {
        s.last_step = a;
        s.steps_this_run++;
      } else if (std::sscanf(line.c_str(), "C %d", &a) == 1) {
        s.durable = true;
      } else if (std::sscanf(line.c_str(), "A %d %d", &a, &b) == 2) {
        s.last_step = b;
      }
    }
  };

  // A worker attempt ended in failure (crash, hang kill, torn result):
  // consume an attempt and either reschedule with exponential backoff or
  // quarantine with the captured report.
  auto retry_or_quarantine = [&](int j, int attempt, int step,
                                 const std::string& detail) {
    rt[j].failed_attempts = attempt;
    JobOutcome& out = report->jobs[j];
    out.attempts = attempt;
    if (attempt >= opt.max_attempts) {
      rt[j].state = JobState::Quarantined;
      out.quarantined = true;
      out.failure = detail + "\n--- log tail ---\n" +
                    log_tail(job_paths(opt.workdir, jobs[j].index).log);
      report->quarantined++;
      terminal++;
      record("quarantine", j, attempt, step, detail);
    } else {
      const int backoff_ms = retry_backoff_ms(opt, attempt);
      rt[j].state = JobState::Ready;
      rt[j].eligible_at =
          Clock::now() + std::chrono::milliseconds(backoff_ms);
      ready.push_back(j);
      report->retries++;
      record("retry", j, attempt, step,
             detail + "; backoff " + std::to_string(backoff_ms) + "ms");
    }
  };

  // A worker died (crash, hang kill, preempt): any cache slot it left in
  // Building must go back to Empty or the key would starve forever.
  auto reap_cache_builder = [&](pid_t pid, int j, int attempt, int step) {
    if (!cache) return;
    const int n = cache->evict_dead_builder(static_cast<int>(pid));
    if (n > 0)
      record("cache_evict", j, attempt, step,
             "reaped " + std::to_string(n) +
                 " half-built entries of dead builder pid " +
                 std::to_string(pid));
  };

  // Close out a slot whose process has been reaped; `status` is the wait
  // status.  Success means a validated result file; anything else goes
  // through the retry ladder.
  auto finish_exited = [&](Slot& s, int status) {
    drain(s);
    ::close(s.fd);
    JobOutcome& out = report->jobs[s.job];
    out.wall_seconds += seconds_between(s.started, Clock::now());
    if (WIFEXITED(status) && WEXITSTATUS(status) == kExitOk) {
      JobResult res;
      std::string rerr;
      const JobPaths p = job_paths(opt.workdir, jobs[s.job].index);
      if (read_job_result(p.result, &res, &rerr) &&
          res.index == jobs[s.job].index &&
          res.steps_done == jobs[s.job].steps) {
        rt[s.job].state = JobState::Done;
        out.completed = true;
        out.attempts = s.attempt;
        out.result = std::move(res);
        report->completed++;
        terminal++;
        note_measured(s.job, out.result);
        record("complete", s.job, s.attempt, s.last_step,
               "digest " + out.result.digest);
      } else {
        // Exit 0 but no believable result: treat exactly like a crash.
        record("torn_result", s.job, s.attempt, s.last_step, rerr);
        retry_or_quarantine(s.job, s.attempt, s.last_step,
                            "torn result: " + rerr);
      }
    } else if (WIFEXITED(status) &&
               WEXITSTATUS(status) == kExitCacheFailed &&
               !rt[s.job].cold_retry_used) {
      // The worker rejected (and evicted) a corrupt cache entry.  The
      // JOB did nothing wrong: relaunch it with the cache bypassed,
      // without consuming a retry attempt.  One free pass only.
      rt[s.job].cold_retry_used = true;
      rt[s.job].force_cold = true;
      rt[s.job].state = JobState::Ready;
      rt[s.job].eligible_at = Clock::now();
      ready.push_back(s.job);
      report->cold_retries++;
      record("cache_cold_retry", s.job, s.attempt, s.last_step,
             exit_detail(status));
    } else {
      reap_cache_builder(s.pid, s.job, s.attempt, s.last_step);
      record("crash", s.job, s.attempt, s.last_step, exit_detail(status));
      retry_or_quarantine(s.job, s.attempt, s.last_step,
                          exit_detail(status));
    }
  };

  while (terminal < static_cast<int>(jobs.size())) {
    // Launch phase: fill free pool slots with eligible ready jobs
    // (backoff holds a job back without blocking the jobs behind it).
    // Fifo takes the eligible jobs in queue order; Sjf picks, within the
    // highest occupied priority lane, the job with the smallest run-time
    // estimate — measured per-shape step seconds once a job of the shape
    // has completed, the steps * order^3 prior before that.  Ties break
    // on job index, so a uniform sweep under the prior degrades exactly
    // to Fifo (digests never depend on this choice; only order does).
    const Clock::time_point now = Clock::now();
    // Cache-aware hold-back: while a same-key builder is in flight and
    // the key is not yet published, launching another job of that key
    // can only MISS (the lookup finds the slot Building and goes cold).
    // Hold those jobs back; they launch as hits once the builder
    // publishes.  A dead builder lifts the hold automatically — the reap
    // phase removes it from the pool.  This briefly under-fills the pool
    // at the start of a sweep, trading idle slots for cache hits.
    auto held_for_cache = [&](int j) {
      if (!cache || rt[j].force_cold) return false;
      if (!cache->publish_pending(job_key[j])) return false;
      for (const Slot& s : slots)
        if (job_key[s.job] == job_key[j] && !rt[s.job].force_cold)
          return true;
      return false;
    };
    while (slots.size() < static_cast<std::size_t>(opt.concurrency)) {
      auto best = ready.end();
      double best_est = 0.0;
      for (auto it = ready.begin(); it != ready.end(); ++it) {
        if (rt[*it].eligible_at > now) continue;
        if (held_for_cache(*it)) continue;
        if (opt.scheduler == FleetOptions::Scheduler::Fifo) {
          best = it;
          break;
        }
        const double est = estimate(*it);
        const bool wins =
            best == ready.end() ||
            jobs[*it].priority > jobs[*best].priority ||
            (jobs[*it].priority == jobs[*best].priority &&
             (est < best_est || (est == best_est && *it < *best)));
        if (wins) {
          best = it;
          best_est = est;
        }
      }
      if (best == ready.end()) break;
      const int j = *best;
      ready.erase(best);
      if (!launch(j)) {
        reap_all();
        return false;
      }
    }

    // Heartbeat phase.
    if (!slots.empty()) {
      std::vector<pollfd> fds(slots.size());
      for (std::size_t i = 0; i < slots.size(); ++i)
        fds[i] = pollfd{slots[i].fd, POLLIN, 0};
      xpoll(fds.data(), fds.size(), opt.poll_ms);
      for (std::size_t i = 0; i < slots.size(); ++i)
        if (fds[i].revents != 0) drain(slots[i]);
    } else {
      ::usleep(static_cast<useconds_t>(opt.poll_ms) * 1000);
    }

    // Reap phase: exited workers (normal or crashed).
    for (std::size_t i = 0; i < slots.size();) {
      int status = 0;
      const pid_t got = xwaitpid(slots[i].pid, &status, WNOHANG);
      if (got == slots[i].pid) {
        finish_exited(slots[i], status);
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    // Watchdog phase: SIGKILL any worker whose heartbeat went silent.
    for (std::size_t i = 0; i < slots.size();) {
      Slot& s = slots[i];
      if (seconds_between(s.last_beat, Clock::now()) * 1000.0 >
          static_cast<double>(opt.watchdog_ms)) {
        ::kill(s.pid, SIGKILL);
        int status = 0;
        xwaitpid(s.pid, &status, 0);
        drain(s);
        ::close(s.fd);
        JobOutcome& out = report->jobs[s.job];
        out.wall_seconds += seconds_between(s.started, Clock::now());
        out.hang_kills++;
        report->hang_kills++;
        reap_cache_builder(s.pid, s.job, s.attempt, s.last_step);
        record("hang_kill", s.job, s.attempt, s.last_step,
               "no heartbeat for " + std::to_string(opt.watchdog_ms) +
                   "ms");
        retry_or_quarantine(s.job, s.attempt, s.last_step,
                            "hung (watchdog kill)");
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    // Preemption phase: when the pool is full and eligible work waits,
    // preempt one job that has made durable progress past its quantum.
    // Durable-progress gating (a checkpoint written THIS attempt) makes
    // preemption starvation-free for every quantum/cadence combination.
    if (opt.quantum_steps > 0 &&
        slots.size() == static_cast<std::size_t>(opt.concurrency)) {
      const Clock::time_point pnow = Clock::now();
      bool waiting = false;
      for (int j : ready)
        if (rt[j].eligible_at <= pnow) {
          waiting = true;
          break;
        }
      if (waiting) {
        for (std::size_t i = 0; i < slots.size(); ++i) {
          Slot& s = slots[i];
          if (s.steps_this_run < opt.quantum_steps || !s.durable) continue;
          ::kill(s.pid, SIGKILL);
          int status = 0;
          xwaitpid(s.pid, &status, 0);
          drain(s);
          ::close(s.fd);
          JobOutcome& out = report->jobs[s.job];
          out.wall_seconds += seconds_between(s.started, Clock::now());
          out.preemptions++;
          report->preemptions++;
          reap_cache_builder(s.pid, s.job, s.attempt, s.last_step);
          record("preempt", s.job, s.attempt, s.last_step,
                 "quantum " + std::to_string(opt.quantum_steps) +
                     " steps; requeued");
          // No attempt consumed: preemption is scheduling, not failure.
          rt[s.job].state = JobState::Ready;
          rt[s.job].eligible_at = Clock::now();
          ready.push_back(s.job);
          slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
          break;  // at most one preemption per tick
        }
      }
    }
  }

  report->wall_seconds = seconds_between(start, Clock::now());

  if (cache) {
    const SetupCache::Stats st = cache->stats();
    report->cache_hits = static_cast<long>(st.hits);
    report->cache_misses = static_cast<long>(st.misses);
    report->cache_publishes = static_cast<long>(st.publishes);
    report->cache_evictions = static_cast<long>(st.evictions);
    report->cache_publish_failures = static_cast<long>(st.publish_failures);
    report->cache_bytes_mapped = cache->bytes_mapped();
  }
  // Setup/step wall totals and the intra-run savings estimate: for each
  // shape key, the mean setup wall of its COLD builds is what a hit
  // would have paid without the cache.
  std::map<std::uint32_t, std::pair<double, long>> cold_setup;
  double cold_sum = 0.0;
  long cold_n = 0;
  for (const JobOutcome& out : report->jobs) {
    if (!out.completed) continue;
    report->setup_seconds_total += out.result.setup_seconds;
    report->step_seconds_total += out.result.step_seconds;
    if (out.result.cache != "hit") {
      auto& c = cold_setup[job_key[static_cast<std::size_t>(
          out.spec.index)]];
      c.first += out.result.setup_seconds;
      c.second++;
      cold_sum += out.result.setup_seconds;
      cold_n++;
    }
  }
  for (const JobOutcome& out : report->jobs) {
    if (!out.completed || out.result.cache != "hit") continue;
    const auto it =
        cold_setup.find(job_key[static_cast<std::size_t>(out.spec.index)]);
    // Within one run the first build of a key is always cold, so the
    // per-key mean normally exists; the global mean is belt-and-
    // suspenders against a cold builder that never completed.
    double mean_cold = 0.0;
    if (it != cold_setup.end() && it->second.second > 0)
      mean_cold = it->second.first / static_cast<double>(it->second.second);
    else if (cold_n > 0)
      mean_cold = cold_sum / static_cast<double>(cold_n);
    report->setup_seconds_saved +=
        std::max(0.0, mean_cold - out.result.setup_seconds);
  }
  return true;
}

namespace {

void build_bench_report(const FleetReport& r, obs::BenchReport* rep) {
  obs::Json& meta = rep->meta();
  meta["sweep"] = r.sweep_name;
  meta["jobs"] = r.jobs.size();
  meta["concurrency"] = r.options.concurrency;
  meta["watchdog_ms"] = r.options.watchdog_ms;
  meta["max_attempts"] = r.options.max_attempts;
  meta["backoff_base_ms"] = r.options.backoff_base_ms;
  meta["backoff_max_ms"] = r.options.backoff_max_ms;
  meta["quantum_steps"] = r.options.quantum_steps;
  meta["cache"] = r.options.cache;
  meta["scheduler"] =
      r.options.scheduler == FleetOptions::Scheduler::Sjf ? "sjf" : "fifo";
  meta["wall_seconds"] = r.wall_seconds;
  meta["completed"] = r.completed;
  meta["quarantined"] = r.quarantined;
  meta["retries"] = r.retries;
  meta["preemptions"] = r.preemptions;
  meta["hang_kills"] = r.hang_kills;
  meta["cold_retries"] = r.cold_retries;
  meta["cache_hits"] = r.cache_hits;
  meta["cache_misses"] = r.cache_misses;
  meta["cache_publishes"] = r.cache_publishes;
  meta["cache_evictions"] = r.cache_evictions;
  meta["cache_publish_failures"] = r.cache_publish_failures;
  meta["cache_bytes_mapped"] = static_cast<std::int64_t>(r.cache_bytes_mapped);
  meta["setup_seconds_total"] = r.setup_seconds_total;
  meta["step_seconds_total"] = r.step_seconds_total;
  meta["setup_seconds_saved"] = r.setup_seconds_saved;

  obs::Json events = obs::Json::array();
  for (const FleetEvent& e : r.events) {
    obs::Json ev = obs::Json::object();
    ev["t"] = e.t;
    ev["type"] = e.type;
    ev["job"] = e.job;
    ev["attempt"] = e.attempt;
    ev["step"] = e.step;
    ev["detail"] = e.detail;
    events.push_back(std::move(ev));
  }
  meta["events"] = std::move(events);

  // Aggregate the per-worker obs counters (each completed job's result
  // carries its own registry snapshot) into one fleet-wide view.
  std::map<std::string, std::int64_t> sums;
  for (const JobOutcome& out : r.jobs) {
    if (!out.completed || !out.result.counters.is_object()) continue;
    for (const auto& [name, value] : out.result.counters.members())
      if (value.is_number()) sums[name] += value.as_int();
  }
  obs::Json wc = obs::Json::object();
  for (const auto& [name, value] : sums) wc[name] = value;
  meta["worker_counters"] = std::move(wc);

  for (const JobOutcome& out : r.jobs) {
    obs::Json& c = rep->add_case(out.spec.name);
    c["index"] = out.spec.index;
    c["reynolds"] = out.spec.reynolds;
    c["mesh_k"] = out.spec.mesh_k;
    c["order"] = out.spec.order;
    c["dt"] = out.spec.dt;
    c["steps"] = out.spec.steps;
    c["priority"] = out.spec.priority;
    c["dealias"] = out.spec.dealias;
    c["wall_seconds"] = out.wall_seconds;
    c["completed"] = out.completed;
    c["quarantined"] = out.quarantined;
    c["attempts"] = out.attempts;
    c["launches"] = out.launches;
    c["preemptions"] = out.preemptions;
    c["hang_kills"] = out.hang_kills;
    if (out.completed) {
      c["digest"] = out.result.digest;
      c["final_time"] = out.result.final_time;
      c["steps_done"] = out.result.steps_done;
      c["resumed_from_step"] = out.result.resumed_from_step;
      c["kinetic_energy"] = out.result.kinetic_energy;
      c["divergence"] = out.result.divergence;
      c["recovered_steps"] = out.result.recovered_steps;
      c["setup_seconds"] = out.result.setup_seconds;
      c["step_seconds"] = out.result.step_seconds;
      c["cache"] = out.result.cache;
      c["omp_threads"] = out.result.omp_threads;
    } else {
      c["failure"] = out.failure;
    }
  }
}

}  // namespace

obs::Json FleetReport::to_json(const std::string& bench_name) const {
  obs::BenchReport rep(bench_name);
  build_bench_report(*this, &rep);
  return rep.to_json();
}

std::string FleetReport::write_bench_json(
    const std::string& bench_name) const {
  obs::BenchReport rep(bench_name);
  build_bench_report(*this, &rep);
  return rep.write();
}

}  // namespace tsem::fleet
