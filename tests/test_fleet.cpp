// Tests for the fault-tolerant ensemble fleet engine (src/fleet/).
//
// Fork-safety note: these tests never run solver code in the test
// process itself — every NavierStokes step happens inside a forked
// worker.  "Fault-free baselines" for bit-identity checks are therefore
// computed by a second fleet run (same specs, faults cleared), keeping
// the parent free of OpenMP parallel regions before fork().
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "fleet/proc.hpp"
#include "fleet/spec.hpp"
#include "fleet/supervisor.hpp"
#include "fleet/worker.hpp"
#include "obs/json.hpp"
#include "resilience/fault_injector.hpp"

namespace {

using tsem::ProcessFault;
using tsem::fleet::FleetEvent;
using tsem::fleet::FleetReport;
using tsem::fleet::JobSpec;
using tsem::fleet::SweepSpec;
using tsem::obs::Json;

// Tiny canonical base sweep: 2x2 periodic Taylor-Green box, order 4.
// Every test derives from this so jobs stay in the few-millisecond range.
SweepSpec base_sweep(const std::string& name, const std::string& workdir) {
  SweepSpec s;
  s.name = name;
  s.base.mesh_k = 2;
  s.base.order = 4;
  s.base.dt = 0.01;
  s.base.steps = 6;
  s.base.reynolds = 20.0;
  s.base.checkpoint_every = 2;
  s.fleet.concurrency = 2;
  s.fleet.watchdog_ms = 8000;  // generous: only hang tests shrink this
  s.fleet.max_attempts = 3;
  s.fleet.backoff_base_ms = 2;
  s.fleet.poll_ms = 2;
  s.fleet.workdir = workdir;
  return s;
}

FleetReport must_run(const SweepSpec& s) {
  FleetReport r;
  std::string err;
  const bool ok = tsem::fleet::run_fleet(s, &r, &err);
  EXPECT_TRUE(ok) << err;
  return r;
}

// Fault-free twin of `s` in its own workdir; returns index -> digest.
std::map<int, std::string> baseline_digests(SweepSpec s,
                                            const std::string& workdir) {
  s.faults.clear();
  s.fleet.quantum_steps = 0;
  s.fleet.workdir = workdir;
  const FleetReport r = must_run(s);
  std::map<int, std::string> d;
  for (const auto& out : r.jobs) {
    EXPECT_TRUE(out.completed) << out.spec.name << ": " << out.failure;
    if (out.completed) d[out.spec.index] = out.result.digest;
  }
  return d;
}

int count_events(const FleetReport& r, const std::string& type) {
  int n = 0;
  for (const FleetEvent& e : r.events)
    if (e.type == type) ++n;
  return n;
}

// RAII env var for the worker-side seams (pacing, env fault).
struct ScopedEnv {
  std::string key;
  ScopedEnv(const std::string& k, const std::string& v) : key(k) {
    ::setenv(k.c_str(), v.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(key.c_str()); }
};

// ---- Sweep expansion ------------------------------------------------

TEST(FleetSpec, SweepExpansionIsDeterministic) {
  const std::string text = R"({
    "name": "exp",
    "case": { "mesh_k": 2, "order": 4, "dt": 0.01, "steps": 4,
              "reynolds": 20.0, "checkpoint_every": 2 },
    "sweep": { "reynolds": [10, 20], "order": [3, 4], "steps": [4, 6] },
    "faults": [ { "job": 3, "fault": "kill@2" } ]
  })";
  SweepSpec s;
  std::string err;
  ASSERT_TRUE(tsem::fleet::parse_sweep_text(text, &s, &err)) << err;

  const auto jobs = tsem::fleet::expand_sweep(s);
  ASSERT_EQ(jobs.size(), 8u);  // 2 reynolds x 2 order x 2 steps

  // Same spec, same queue: identical order, names, and parameters.
  const auto again = tsem::fleet::expand_sweep(s);
  ASSERT_EQ(again.size(), jobs.size());
  std::set<std::string> names;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, static_cast<int>(i));
    EXPECT_EQ(jobs[i].name, again[i].name);
    EXPECT_EQ(jobs[i].reynolds, again[i].reynolds);
    EXPECT_EQ(jobs[i].order, again[i].order);
    EXPECT_EQ(jobs[i].steps, again[i].steps);
    names.insert(jobs[i].name);
  }
  EXPECT_EQ(names.size(), jobs.size());  // names are unique

  // Fixed axis order: reynolds outermost, steps innermost.
  EXPECT_DOUBLE_EQ(jobs[0].reynolds, 10.0);
  EXPECT_EQ(jobs[0].order, 3);
  EXPECT_EQ(jobs[0].steps, 4);
  EXPECT_EQ(jobs[1].steps, 6);
  EXPECT_EQ(jobs[2].order, 4);
  EXPECT_DOUBLE_EQ(jobs[4].reynolds, 20.0);

  // The spec's fault plan lands on the expanded index.
  EXPECT_EQ(jobs[3].fault.kind, ProcessFault::Kind::KillWorker);
  EXPECT_EQ(jobs[3].fault.step, 2);
  EXPECT_EQ(jobs[2].fault.kind, ProcessFault::Kind::None);
}

TEST(FleetSpec, RejectsUnknownKeysAndMalformedDocs) {
  SweepSpec s;
  std::string err;
  // A typo'd sweep axis must fail loudly, not silently run the base case.
  EXPECT_FALSE(tsem::fleet::parse_sweep_text(
      R"({"sweep": {"reynold": [10]}})", &s, &err));
  EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
  EXPECT_FALSE(tsem::fleet::parse_sweep_text("[1,2,3]", &s, &err));
  EXPECT_FALSE(tsem::fleet::parse_sweep_text("{ truncated", &s, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(tsem::fleet::parse_sweep_text(
      R"({"faults": [{"job": 0, "fault": "explode@1"}]})", &s, &err));
  EXPECT_FALSE(tsem::fleet::parse_sweep_text(
      R"({"case": {"dt": -0.5}})", &s, &err));
  EXPECT_FALSE(tsem::fleet::parse_sweep_text(
      R"({"fleet": {"concurrency": 0}})", &s, &err));
}

TEST(FleetSpec, CacheSchedulerAndPriorityKeysParseStrictly) {
  SweepSpec s;
  std::string err;
  ASSERT_TRUE(tsem::fleet::parse_sweep_text(R"({
    "sweep": { "reynolds": [10, 20], "order": [3, 4] },
    "fleet": { "cache": false, "cache_entry_kb": 256,
               "scheduler": "fifo" },
    "priorities": [ { "job": 2, "priority": 3 } ]
  })", &s, &err)) << err;
  EXPECT_FALSE(s.fleet.cache);
  EXPECT_EQ(s.fleet.cache_entry_kb, 256);
  EXPECT_EQ(s.fleet.scheduler, tsem::fleet::FleetOptions::Scheduler::Fifo);
  const auto jobs = tsem::fleet::expand_sweep(s);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[2].priority, 3);
  EXPECT_EQ(jobs[0].priority, 0);

  // Strict parsing stays strict around the new keys.
  EXPECT_FALSE(tsem::fleet::parse_sweep_text(
      R"({"fleet": {"scheduler": "lifo"}})", &s, &err));
  EXPECT_NE(err.find("scheduler"), std::string::npos) << err;
  EXPECT_FALSE(tsem::fleet::parse_sweep_text(
      R"({"fleet": {"cache_kb": 1}})", &s, &err));
  EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
  EXPECT_FALSE(tsem::fleet::parse_sweep_text(
      R"({"fleet": {"cache_entry_kb": -4}})", &s, &err));
  EXPECT_FALSE(tsem::fleet::parse_sweep_text(
      R"({"priorities": [{"job": 0, "prio": 1}]})", &s, &err));
  EXPECT_FALSE(tsem::fleet::parse_sweep_text(
      R"({"priorities": [{"job": 0}]})", &s, &err));
}

// ---- Process-fault plumbing -----------------------------------------

TEST(FleetFaults, ProcessFaultParsesAndFormats) {
  ProcessFault f;
  std::string err;
  ASSERT_TRUE(tsem::parse_process_fault("kill@5", &f, &err)) << err;
  EXPECT_EQ(f.kind, ProcessFault::Kind::KillWorker);
  EXPECT_EQ(f.step, 5);
  EXPECT_EQ(f.attempt, 1);
  ASSERT_TRUE(tsem::parse_process_fault("hang@3#2", &f, &err));
  EXPECT_EQ(f.kind, ProcessFault::Kind::Hang);
  EXPECT_EQ(f.attempt, 2);
  ASSERT_TRUE(tsem::parse_process_fault("torn@4#0", &f, &err));
  EXPECT_EQ(f.kind, ProcessFault::Kind::TornCheckpoint);
  EXPECT_EQ(f.attempt, 0);  // every attempt
  EXPECT_EQ(tsem::format_process_fault(f), "torn@4#0");
  ASSERT_TRUE(tsem::parse_process_fault("none", &f, &err));
  EXPECT_EQ(f.kind, ProcessFault::Kind::None);
  ASSERT_TRUE(tsem::parse_process_fault("", &f, &err));
  EXPECT_EQ(f.kind, ProcessFault::Kind::None);

  EXPECT_FALSE(tsem::parse_process_fault("kill", &f, &err));
  EXPECT_FALSE(tsem::parse_process_fault("boom@3", &f, &err));
  EXPECT_FALSE(tsem::parse_process_fault("kill@x", &f, &err));
  EXPECT_FALSE(tsem::parse_process_fault("kill@2#z", &f, &err));
}

TEST(FleetFaults, EnvSeamActivatesAndToleratesGarbage) {
  {
    ScopedEnv env(tsem::kProcessFaultEnvVar, "hang@2");
    const ProcessFault f = tsem::process_fault_from_env();
    EXPECT_EQ(f.kind, ProcessFault::Kind::Hang);
    EXPECT_EQ(f.step, 2);
  }
  {
    ScopedEnv env(tsem::kProcessFaultEnvVar, "not-a-fault");
    EXPECT_EQ(tsem::process_fault_from_env().kind, ProcessFault::Kind::None);
  }
  EXPECT_EQ(tsem::process_fault_from_env().kind, ProcessFault::Kind::None);
}

TEST(FleetFaults, KillPlanIsSeededAndDeterministic) {
  tsem::FaultInjector a(1234), b(1234), c(77);
  const auto pa = a.plan_worker_kills(16, 3, 6);
  const auto pb = b.plan_worker_kills(16, 3, 6);
  ASSERT_EQ(pa.size(), 3u);
  std::set<int> jobs;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].first, pb[i].first);
    EXPECT_EQ(pa[i].second.step, pb[i].second.step);
    EXPECT_EQ(pa[i].second.kind, ProcessFault::Kind::KillWorker);
    EXPECT_GE(pa[i].second.step, 1);
    EXPECT_LE(pa[i].second.step, 6);
    EXPECT_GE(pa[i].first, 0);
    EXPECT_LT(pa[i].first, 16);
    jobs.insert(pa[i].first);
  }
  EXPECT_EQ(jobs.size(), pa.size());  // distinct jobs
  // A different seed is allowed to (and here does) pick a different plan.
  const auto pc = c.plan_worker_kills(16, 3, 6);
  bool same = pa.size() == pc.size();
  for (std::size_t i = 0; same && i < pa.size(); ++i)
    same = pa[i].first == pc[i].first && pa[i].second.step == pc[i].second.step;
  EXPECT_FALSE(same);
}

// ---- Fleet execution ------------------------------------------------

TEST(Fleet, SingleJobCompletesWithResult) {
  SweepSpec s = base_sweep("single", "fleet_t_single");
  const FleetReport r = must_run(s);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_EQ(r.completed, 1);
  EXPECT_EQ(r.quarantined, 0);
  EXPECT_EQ(r.retries, 0);
  const auto& out = r.jobs[0];
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.launches, 1);
  EXPECT_EQ(out.result.steps_done, 6);
  EXPECT_EQ(out.result.resumed_from_step, 0);
  EXPECT_EQ(out.result.digest.size(), 8u);
  EXPECT_GT(out.result.final_time, 0.0);
  EXPECT_GT(out.result.kinetic_energy, 0.0);
  EXPECT_EQ(count_events(r, "launch"), 1);
  EXPECT_EQ(count_events(r, "complete"), 1);

  // The result file on disk round-trips through the hardened reader.
  tsem::fleet::JobResult res;
  std::string err;
  ASSERT_TRUE(tsem::fleet::read_job_result(
      tsem::fleet::job_paths(s.fleet.workdir, 0).result, &res, &err))
      << err;
  EXPECT_EQ(res.digest, out.result.digest);
}

TEST(Fleet, KilledWorkerRetriesAndResumesBitIdentical) {
  SweepSpec s = base_sweep("kill", "fleet_t_kill");
  std::string err;
  ProcessFault f;
  ASSERT_TRUE(tsem::parse_process_fault("kill@5#1", &f, &err)) << err;
  s.faults.emplace_back(0, f);

  const FleetReport r = must_run(s);
  ASSERT_EQ(r.jobs.size(), 1u);
  const auto& out = r.jobs[0];
  ASSERT_TRUE(out.completed) << out.failure;
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(r.retries, 1);
  EXPECT_EQ(count_events(r, "crash"), 1);
  EXPECT_EQ(count_events(r, "retry"), 1);
  // Checkpoints land at steps 2 and 4; the kill fires before step 5, so
  // attempt 2 resumes from the step-4 checkpoint.
  EXPECT_EQ(out.result.resumed_from_step, 4);

  const auto base = baseline_digests(s, "fleet_t_kill_base");
  EXPECT_EQ(out.result.digest, base.at(0));
}

TEST(Fleet, TornCheckpointWriteLeavesPriorCheckpointResumable) {
  SweepSpec s = base_sweep("torn", "fleet_t_torn");
  std::string err;
  ProcessFault f;
  ASSERT_TRUE(tsem::parse_process_fault("torn@4#1", &f, &err)) << err;
  s.faults.emplace_back(0, f);

  const FleetReport r = must_run(s);
  ASSERT_EQ(r.jobs.size(), 1u);
  const auto& out = r.jobs[0];
  ASSERT_TRUE(out.completed) << out.failure;
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(r.retries, 1);
  // The worker died mid-write of the step-4 checkpoint, leaving only a
  // torn ".tmp".  Atomic rename semantics mean the step-2 checkpoint is
  // still the one at the real path — attempt 2 resumes from step 2, and
  // the final state is bit-identical to a fault-free run.
  EXPECT_EQ(out.result.resumed_from_step, 2);
  const auto base = baseline_digests(s, "fleet_t_torn_base");
  EXPECT_EQ(out.result.digest, base.at(0));
}

TEST(Fleet, WatchdogKillsHungWorkerAndJobRecovers) {
  SweepSpec s = base_sweep("hang", "fleet_t_hang");
  s.fleet.watchdog_ms = 400;
  std::string err;
  ProcessFault f;
  ASSERT_TRUE(tsem::parse_process_fault("hang@3#1", &f, &err)) << err;
  s.faults.emplace_back(0, f);

  const FleetReport r = must_run(s);
  ASSERT_EQ(r.jobs.size(), 1u);
  const auto& out = r.jobs[0];
  ASSERT_TRUE(out.completed) << out.failure;
  EXPECT_EQ(out.hang_kills, 1);
  EXPECT_EQ(r.hang_kills, 1);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(count_events(r, "hang_kill"), 1);
  // Hang fired before step 3; the step-2 checkpoint carries attempt 2.
  EXPECT_EQ(out.result.resumed_from_step, 2);
  const auto base = baseline_digests(s, "fleet_t_hang_base");
  EXPECT_EQ(out.result.digest, base.at(0));
}

TEST(Fleet, RetryExhaustionQuarantinesWhileFleetCompletes) {
  SweepSpec s = base_sweep("quar", "fleet_t_quar");
  s.reynolds = {10.0, 20.0, 30.0, 40.0};
  s.fleet.max_attempts = 2;
  std::string err;
  ProcessFault f;
  ASSERT_TRUE(tsem::parse_process_fault("kill@2#0", &f, &err)) << err;
  s.faults.emplace_back(1, f);  // dies on EVERY attempt

  const FleetReport r = must_run(s);
  ASSERT_EQ(r.jobs.size(), 4u);
  EXPECT_EQ(r.completed, 3);
  EXPECT_EQ(r.quarantined, 1);
  EXPECT_EQ(r.retries, 1);  // one reschedule, then the cap
  EXPECT_EQ(count_events(r, "quarantine"), 1);

  const auto& bad = r.jobs[1];
  EXPECT_FALSE(bad.completed);
  EXPECT_TRUE(bad.quarantined);
  EXPECT_EQ(bad.attempts, 2);
  // The quarantine report captures the exit detail and the worker log.
  EXPECT_NE(bad.failure.find("injected kill"), std::string::npos)
      << bad.failure;
  EXPECT_NE(bad.failure.find("log tail"), std::string::npos);
  EXPECT_NE(bad.failure.find("[worker]"), std::string::npos);
  for (int i : {0, 2, 3}) EXPECT_TRUE(r.jobs[i].completed);
}

TEST(Fleet, PreemptionRoundRobinsAndStaysBitIdentical) {
  SweepSpec s = base_sweep("preempt", "fleet_t_preempt");
  s.reynolds = {10.0, 20.0, 30.0};
  s.base.steps = 8;
  s.fleet.concurrency = 1;  // forces the queue to share one slot
  s.fleet.quantum_steps = 2;
  ScopedEnv pace("TSEM_FLEET_STEP_SLEEP_US", "3000");

  const FleetReport r = must_run(s);
  EXPECT_EQ(r.completed, 3);
  EXPECT_EQ(r.quarantined, 0);
  EXPECT_EQ(r.retries, 0);  // preemption must not consume attempts
  EXPECT_GE(r.preemptions, 3);
  EXPECT_EQ(count_events(r, "preempt"), r.preemptions);
  bool any_resumed = false;
  for (const auto& out : r.jobs) {
    ASSERT_TRUE(out.completed) << out.spec.name << ": " << out.failure;
    EXPECT_EQ(out.attempts, 1);
    // Every fork is either the single attempt or a preemption relaunch.
    EXPECT_EQ(out.launches, 1 + out.preemptions);
    any_resumed |= out.result.resumed_from_step > 0;
  }
  EXPECT_TRUE(any_resumed);

  const auto base = baseline_digests(s, "fleet_t_preempt_base");
  for (const auto& out : r.jobs)
    EXPECT_EQ(out.result.digest, base.at(out.spec.index)) << out.spec.name;
}

// ---- Report schema --------------------------------------------------

TEST(Fleet, ReportSchemaRoundTripsAsBenchJson) {
  SweepSpec s = base_sweep("report", "fleet_t_report");
  s.reynolds = {10.0, 20.0};
  s.fleet.max_attempts = 1;
  std::string err;
  ProcessFault f;
  ASSERT_TRUE(tsem::parse_process_fault("kill@2#0", &f, &err)) << err;
  s.faults.emplace_back(1, f);  // one quarantine, so both shapes appear
  const FleetReport r = must_run(s);
  ASSERT_EQ(r.completed, 1);
  ASSERT_EQ(r.quarantined, 1);

  const Json doc = r.to_json("ensemble");
  Json back;
  ASSERT_TRUE(Json::parse(doc.dump(2), &back, &err)) << err;
  ASSERT_TRUE(back.is_object());
  EXPECT_EQ(back.find("schema")->as_string(), "terasem-bench-1");
  EXPECT_EQ(back.find("name")->as_string(), "ensemble");

  const Json* meta = back.find("meta");
  ASSERT_TRUE(meta && meta->is_object());
  EXPECT_EQ(meta->find("sweep")->as_string(), "report");
  EXPECT_EQ(meta->find("jobs")->as_int(), 2);
  EXPECT_EQ(meta->find("completed")->as_int(), 1);
  EXPECT_EQ(meta->find("quarantined")->as_int(), 1);
  const Json* events = meta->find("events");
  ASSERT_TRUE(events && events->is_array());
  EXPECT_EQ(static_cast<int>(events->items().size()),
            static_cast<int>(r.events.size()));
  ASSERT_TRUE(meta->find("worker_counters") &&
              meta->find("worker_counters")->is_object());

  const Json* cases = back.find("cases");
  ASSERT_TRUE(cases && cases->is_array());
  ASSERT_EQ(cases->items().size(), 2u);
  for (const Json& c : cases->items()) {
    ASSERT_TRUE(c.find("name") && c.find("completed") && c.find("attempts"));
    if (c.find("completed")->as_bool()) {
      ASSERT_TRUE(c.find("digest"));
      EXPECT_EQ(c.find("digest")->as_string().size(), 8u);
    } else {
      ASSERT_TRUE(c.find("failure"));
    }
  }

  // write_bench_json honors $TSEM_BENCH_DIR and emits a parseable file.
  ScopedEnv dir("TSEM_BENCH_DIR", s.fleet.workdir);
  const std::string path = r.write_bench_json("ensemble_test");
  ASSERT_FALSE(path.empty());
  Json from_disk;
  Json::ParseError perr;
  ASSERT_TRUE(Json::parse_file(path, &from_disk, &perr)) << perr.to_string();
  EXPECT_EQ(from_disk.find("schema")->as_string(), "terasem-bench-1");
  std::remove(path.c_str());
}

// ---- End-to-end fault drill (ISSUE acceptance criterion) ------------
//
// A 16-job sweep under seeded worker kills, one injected hang, one torn
// checkpoint write, and one always-crashing job, with preemptive
// scheduling on: every non-quarantined job must finish bit-identical to
// a fault-free run of the same specs, and the report must account for
// every retry, preemption, and quarantine.

TEST(Fleet, EndToEndFaultDrill) {
  SweepSpec s = base_sweep("drill", "fleet_t_drill");
  s.reynolds = {15.0, 20.0, 25.0, 30.0};
  s.order = {3, 4};
  s.dt = {0.008, 0.01};
  s.base.steps = 8;
  s.fleet.concurrency = 4;
  s.fleet.quantum_steps = 3;
  s.fleet.watchdog_ms = 600;
  ASSERT_EQ(tsem::fleet::expand_sweep(s).size(), 16u);

  // Seeded, deterministic fault plan: 3 kills from the injector, then a
  // hang, a torn checkpoint, and a quarantine case on jobs the kill plan
  // left alone.
  tsem::FaultInjector inj(2024);
  s.faults = inj.plan_worker_kills(16, 3, 6);
  std::set<int> taken;
  for (const auto& [job, fault] : s.faults) taken.insert(job);
  std::vector<int> free_jobs;
  for (int j = 0; j < 16 && free_jobs.size() < 3; ++j)
    if (!taken.count(j)) free_jobs.push_back(j);
  ASSERT_EQ(free_jobs.size(), 3u);
  std::string err;
  ProcessFault hang, torn, always;
  ASSERT_TRUE(tsem::parse_process_fault("hang@2#1", &hang, &err));
  ASSERT_TRUE(tsem::parse_process_fault("torn@4#1", &torn, &err));
  ASSERT_TRUE(tsem::parse_process_fault("kill@1#0", &always, &err));
  s.faults.emplace_back(free_jobs[0], hang);
  s.faults.emplace_back(free_jobs[1], torn);
  s.faults.emplace_back(free_jobs[2], always);

  ScopedEnv pace("TSEM_FLEET_STEP_SLEEP_US", "2000");
  const FleetReport r = must_run(s);

  // Terminal accounting: 15 complete, the always-crasher quarantined.
  EXPECT_EQ(r.completed, 15);
  EXPECT_EQ(r.quarantined, 1);
  EXPECT_TRUE(r.jobs[free_jobs[2]].quarantined);
  EXPECT_EQ(r.jobs[free_jobs[2]].attempts, s.fleet.max_attempts);
  EXPECT_FALSE(r.jobs[free_jobs[2]].failure.empty());

  // Every injected fault burned exactly the attempts it was scripted to:
  // 3 kills + 1 hang + 1 torn (one retry each) + 2 retries before the
  // quarantine cap.
  EXPECT_EQ(r.retries, 3 + 1 + 1 + (s.fleet.max_attempts - 1));
  EXPECT_EQ(r.hang_kills, 1);
  EXPECT_GE(r.preemptions, 1);  // quantum 3 with a 4-wide pool, 16 jobs

  // The report records every incident: event counts match the totals.
  EXPECT_EQ(count_events(r, "retry"), r.retries);
  EXPECT_EQ(count_events(r, "preempt"), r.preemptions);
  EXPECT_EQ(count_events(r, "hang_kill"), r.hang_kills);
  EXPECT_EQ(count_events(r, "quarantine"), 1);
  EXPECT_EQ(count_events(r, "complete"), 15);
  EXPECT_EQ(count_events(r, "crash"),
            3 + 1 + s.fleet.max_attempts);  // kills + torn + always-crasher
  int launches = 0;
  for (const auto& out : r.jobs) launches += out.launches;
  EXPECT_EQ(count_events(r, "launch"), launches);

  // Bit-identity: every non-quarantined job's final state digest matches
  // a fault-free run of the same spec.
  const auto base = baseline_digests(s, "fleet_t_drill_base");
  for (const auto& out : r.jobs) {
    if (out.quarantined) continue;
    ASSERT_TRUE(out.completed) << out.spec.name << ": " << out.failure;
    EXPECT_EQ(out.result.steps_done, out.spec.steps);
    EXPECT_EQ(out.result.digest, base.at(out.spec.index)) << out.spec.name;
  }
}

// ---- Thread budget after fork ----------------------------------------
//
// A forked worker inherits the supervisor's whole OpenMP team; without a
// budget, concurrency x team threads oversubscribe the cores and spinning
// barriers starve the heartbeat watchdog.

TEST(FleetProc, ThreadBudgetSharesCoresAndNeverExceedsInheritedTeam) {
  using tsem::fleet::thread_budget;
  EXPECT_EQ(thread_budget(8, 4, 4), 1);
  EXPECT_EQ(thread_budget(8, 4, 2), 2);
  EXPECT_EQ(thread_budget(8, 16, 3), 5);
  EXPECT_EQ(thread_budget(2, 16, 2), 2);  // never above the inherited team
  EXPECT_EQ(thread_budget(4, 4, 8), 1);   // more workers than cores
  EXPECT_EQ(thread_budget(1, 1, 1), 1);
  EXPECT_GE(tsem::fleet::host_cores(), 1);
}

TEST(Fleet, OversubscribedDefaultDrillBudgetsEveryWorker) {
#ifdef _OPENMP
  // The supervisor's team is deliberately 2 x cores: every worker must
  // still run on its share, max(1, cores / concurrency), and no heartbeat
  // may go silent under the 600 ms watchdog.
  const int cores = tsem::fleet::host_cores();
  const int saved = omp_get_max_threads();
  omp_set_num_threads(2 * cores);
  SweepSpec s = base_sweep("budget", "fleet_t_budget");
  s.reynolds = {15.0, 20.0, 25.0, 30.0};
  s.order = {3, 4};
  s.base.steps = 8;
  s.fleet.concurrency = 4;
  s.fleet.watchdog_ms = 600;
  ScopedEnv pace("TSEM_FLEET_STEP_SLEEP_US", "2000");
  const FleetReport r = must_run(s);
  omp_set_num_threads(saved);

  EXPECT_EQ(r.completed, 8);
  EXPECT_EQ(r.quarantined, 0);
  EXPECT_EQ(r.hang_kills, 0);
  const int budget = std::max(1, cores / s.fleet.concurrency);
  for (const auto& out : r.jobs) {
    ASSERT_TRUE(out.completed) << out.spec.name << ": " << out.failure;
    EXPECT_EQ(out.result.omp_threads, budget) << out.spec.name;
  }
#else
  GTEST_SKIP() << "compiled without OpenMP";
#endif
}

// ---- Retry backoff (bounded, UB-free) -------------------------------

TEST(FleetBackoff, BackoffClampsShiftAndSaturatesAtCap) {
  tsem::fleet::FleetOptions opt;
  opt.backoff_base_ms = 10;
  opt.backoff_max_ms = 30000;
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 1), 10);
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 2), 20);
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 5), 160);
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 12), 20480);
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 13), 30000);  // saturated
  // The old expression shifted by attempt-1 directly: UB at attempt 32
  // and beyond.  The clamped form must stay exact and capped forever.
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 31), 30000);
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 32), 30000);
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 40), 30000);
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 1000000), 30000);
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 0), 10);   // defensive clamp
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, -3), 10);

  opt.backoff_max_ms = 0;  // cap of zero means "no delay ever"
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 4), 0);
  opt.backoff_base_ms = 0;  // disabled backoff stays disabled
  opt.backoff_max_ms = 30000;
  EXPECT_EQ(tsem::fleet::retry_backoff_ms(opt, 7), 0);
}

TEST(Fleet, FortyAttemptLadderStaysBoundedAndQuarantines) {
  SweepSpec s = base_sweep("ladder", "fleet_t_ladder");
  s.base.steps = 2;
  s.fleet.max_attempts = 40;  // would be 2^39 ms at attempt 40 unclamped
  s.fleet.backoff_base_ms = 1;
  s.fleet.backoff_max_ms = 4;
  std::string err;
  ProcessFault f;
  ASSERT_TRUE(tsem::parse_process_fault("kill@1#0", &f, &err)) << err;
  s.faults.emplace_back(0, f);

  const auto t0 = std::chrono::steady_clock::now();
  const FleetReport r = must_run(s);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_TRUE(r.jobs[0].quarantined);
  EXPECT_EQ(r.jobs[0].attempts, 40);
  EXPECT_EQ(r.retries, 39);
  EXPECT_EQ(count_events(r, "retry"), 39);
  // Every scheduled delay obeys the cap: 1, 2, 4, then 4ms forever.
  int capped = 0;
  for (const FleetEvent& e : r.events) {
    if (e.type != "retry") continue;
    const auto pos = e.detail.find("backoff ");
    ASSERT_NE(pos, std::string::npos) << e.detail;
    const int ms = std::atoi(e.detail.c_str() + pos + 8);
    EXPECT_GE(ms, 1);
    EXPECT_LE(ms, 4);
    capped += ms == 4;
  }
  EXPECT_EQ(capped, 37);
  // 39 retries at <= 4ms backoff each: the whole ladder is sub-minute by
  // a wide margin (an unclamped shift would wedge it for days).
  EXPECT_LT(wall, 60.0);
  const Json doc = r.to_json("ladder");
  EXPECT_EQ(doc.find("meta")->find("backoff_max_ms")->as_int(), 4);
}

// ---- Supervisor-death drill (SIGPIPE orphan exit) --------------------

TEST(FleetWorker, OrphanedWorkerExitsCleanlyWhenSupervisorPipeCloses) {
  const std::string workdir = "fleet_t_orphan";
  ::mkdir(workdir.c_str(), 0777);
  JobSpec job;
  job.name = "orphan";
  job.index = 0;
  job.steps = 400;  // far more steps than the pipe will stay open for
  job.checkpoint_every = 0;
  ScopedEnv pace("TSEM_FLEET_STEP_SLEEP_US", "2000");

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    tsem::fleet::worker_main(job, workdir, fds[1], 1);  // never returns
  }
  ::close(fds[1]);
  // Play supervisor long enough to hear the worker alive, then die: the
  // read end closes and the next heartbeat write raises EPIPE (SIGPIPE
  // is ignored in worker_main), which the worker maps to a clean
  // kExitOrphaned exit instead of dying silently mid-step.
  char c;
  ASSERT_GT(tsem::fleet::xread(fds[0], &c, 1), 0);
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(tsem::fleet::xwaitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << tsem::fleet::wait_status_str(status);
  EXPECT_EQ(WEXITSTATUS(status), tsem::fleet::kExitOrphaned)
      << tsem::fleet::wait_status_str(status);
}

// ---- EINTR hardening -------------------------------------------------

namespace eintr {
void on_alarm(int) {}  // exists only to interrupt syscalls

// Deliver SIGALRM every 2ms with SA_RESTART OFF, so every long syscall
// in scope keeps returning EINTR.
struct ScopedStorm {
  struct sigaction old_sa {};
  itimerval old_it {};
  ScopedStorm() {
    struct sigaction sa {};
    sa.sa_handler = on_alarm;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: the whole point
    sigaction(SIGALRM, &sa, &old_sa);
    itimerval it{};
    it.it_interval.tv_usec = 2000;
    it.it_value.tv_usec = 2000;
    setitimer(ITIMER_REAL, &it, &old_it);
  }
  ~ScopedStorm() {
    setitimer(ITIMER_REAL, &old_it, nullptr);
    sigaction(SIGALRM, &old_sa, nullptr);
  }
};
}  // namespace eintr

TEST(FleetProc, XpollHonorsTimeoutUnderEintrStorm) {
  eintr::ScopedStorm storm;
  const auto t0 = std::chrono::steady_clock::now();
  // No fds: a plain ::poll would return EINTR after ~2ms; xpoll must
  // re-arm with the remaining window and sleep out the full timeout.
  const int rc = tsem::fleet::xpoll(nullptr, 0, 150);
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(rc, 0);
  EXPECT_GE(ms, 120.0);
}

TEST(Fleet, SupervisorLoopSurvivesEintrStorm) {
  // The supervisor's poll / drain / waitpid path runs entirely under the
  // interrupt storm; with bare syscalls this run flakes with spurious
  // failures (EINTR from poll) or misread heartbeats (truncated drains).
  eintr::ScopedStorm storm;
  SweepSpec s = base_sweep("eintr", "fleet_t_eintr");
  s.reynolds = {10.0, 20.0};
  ScopedEnv pace("TSEM_FLEET_STEP_SLEEP_US", "1000");
  const FleetReport r = must_run(s);
  EXPECT_EQ(r.completed, 2);
  EXPECT_EQ(r.quarantined, 0);
  for (const auto& out : r.jobs)
    EXPECT_TRUE(out.completed) << out.spec.name << ": " << out.failure;
}

// ---- Setup-cache drills ---------------------------------------------
//
// The in-process protocol tests (torn CRC rejection, claim races, slot
// disabling) live in test_setup_cache.cpp; here the whole fleet runs the
// cache under injected publish/attach faults with the answers checked
// bit for bit against a cache-off twin.

TEST(FleetCache, DrillSurvivesTornPublishAndAttachFaultsBitIdentically) {
  SweepSpec s = base_sweep("cachedrill", "fleet_t_cachedrill");
  s.reynolds = {10.0, 15.0, 20.0, 25.0};
  s.order = {4, 3};  // two distinct shape keys in flight at once
  s.fleet.concurrency = 4;
  s.fleet.cache = true;
  ProcessFault tornpub, cachefail;
  std::string err;
  // Job 0: first builder of the order-4 key publishes a torn entry (the
  // word flips Ready but half the payload is missing) and dies; the next
  // reader must reject it by CRC, evict the ENTRY, and rebuild clean.
  ASSERT_TRUE(tsem::parse_process_fault("tornpub@1#1", &tornpub, &err)) << err;
  // Job 3: its first attach aborts as if the entry decoded corrupt; the
  // supervisor owes it a cold relaunch that costs no retry-ladder attempt.
  ASSERT_TRUE(tsem::parse_process_fault("cachefail@1#1", &cachefail, &err))
      << err;
  s.faults.emplace_back(0, tornpub);
  s.faults.emplace_back(3, cachefail);

  const FleetReport r = must_run(s);
  EXPECT_EQ(r.completed, 8);
  EXPECT_EQ(r.quarantined, 0);
  EXPECT_GE(r.cache_hits, 2);
  EXPECT_GE(r.cache_publishes, 2);  // both keys end up published clean
  // The torn entry was quarantined (worker-side CRC rejection bumps the
  // shared evictions counter) and at least one job took the free cold
  // lane, which the supervisor logs as a cache_cold_retry event.
  EXPECT_GE(r.cache_evictions, 1);
  EXPECT_GE(r.cold_retries, 1);
  EXPECT_GE(count_events(r, "cache_cold_retry"), 1);

  // A poisoned cache must cost wall time, never an answer: every job's
  // digest matches a fault-free cache-OFF twin bit for bit.
  SweepSpec off = s;
  off.fleet.cache = false;
  const auto ref = baseline_digests(off, "fleet_t_cachedrill_off");
  for (const auto& out : r.jobs) {
    ASSERT_TRUE(out.completed) << out.spec.name << ": " << out.failure;
    ASSERT_EQ(ref.count(out.spec.index), 1u);
    EXPECT_EQ(out.result.digest, ref.at(out.spec.index))
        << out.spec.name << ": cache-hit state diverged from cold state";
  }
}

TEST(FleetCache, CorruptAttachRelaunchesColdWithoutBurningAnAttempt) {
  SweepSpec s = base_sweep("cachefree", "fleet_t_cachefree");
  s.fleet.concurrency = 1;
  s.fleet.cache = true;
  ProcessFault f;
  std::string err;
  ASSERT_TRUE(tsem::parse_process_fault("cachefail@1#1", &f, &err)) << err;
  s.faults.emplace_back(0, f);

  const FleetReport r = must_run(s);
  ASSERT_EQ(r.jobs.size(), 1u);
  const auto& out = r.jobs[0];
  ASSERT_TRUE(out.completed) << out.failure;
  // kExitCacheFailed is not a crash: the relaunch is free (attempts
  // stays 1) but it did fork twice, and exactly once via the cold lane.
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.launches, 2);
  EXPECT_EQ(r.cold_retries, 1);
  EXPECT_EQ(r.retries, 0);

  SweepSpec off = s;
  off.fleet.cache = false;
  const auto ref = baseline_digests(off, "fleet_t_cachefree_off");
  EXPECT_EQ(out.result.digest, ref.at(0));
}

// ---- Measured-time scheduler ----------------------------------------

TEST(FleetSched, SjfLaunchesShortJobsFirstAndPriorityLanesDominate) {
  // 2 reynolds x orders {5, 3}: jobs 0,2 are order 5 (prior 125*steps),
  // jobs 1,3 are order 3 (prior 27*steps).  Cache off and concurrency 1
  // so launch order is exactly the scheduler's choice.
  SweepSpec s = base_sweep("sjf", "fleet_t_sjf");
  s.reynolds = {10.0, 20.0};
  s.order = {5, 3};
  s.fleet.concurrency = 1;
  s.fleet.cache = false;
  s.fleet.scheduler = tsem::fleet::FleetOptions::Scheduler::Sjf;

  const FleetReport r = must_run(s);
  EXPECT_EQ(r.completed, 4);
  std::vector<int> order;
  for (const FleetEvent& e : r.events)
    if (e.type == "launch") order.push_back(e.job);
  // Under the prior the order-3 jobs go first (tie on the key broken by
  // index); once job 1 completes, its measured rate keeps job 3 ahead of
  // the unmeasured order-5 prior (which calibrates ~4.6x larger).
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2}));

  // A priority lane beats every estimate: flag the LONGEST job urgent
  // and it launches first, with the rest still shortest-first.
  SweepSpec p = s;
  p.fleet.workdir = "fleet_t_sjf_prio";
  p.priorities.emplace_back(2, 1);
  const FleetReport rp = must_run(p);
  EXPECT_EQ(rp.completed, 4);
  std::vector<int> porder;
  for (const FleetEvent& e : rp.events)
    if (e.type == "launch") porder.push_back(e.job);
  ASSERT_EQ(porder.size(), 4u);
  EXPECT_EQ(porder[0], 2);
  // Within the default lane the order-3 job still beats the remaining
  // order-5 job (its prior calibrates ~4.6x shorter).  Jobs 3 vs 0 then
  // compare two MEASURED keys — real wall times, not asserted here.
  EXPECT_LT(std::find(porder.begin(), porder.end(), 1),
            std::find(porder.begin(), porder.end(), 0));

  // Scheduling policy reorders launches, never answers: Fifo twin runs
  // 0,1,2,3 and lands on identical digests.
  SweepSpec q = s;
  q.fleet.workdir = "fleet_t_sjf_fifo";
  q.fleet.scheduler = tsem::fleet::FleetOptions::Scheduler::Fifo;
  const FleetReport rq = must_run(q);
  std::vector<int> forder;
  for (const FleetEvent& e : rq.events)
    if (e.type == "launch") forder.push_back(e.job);
  EXPECT_EQ(forder, (std::vector<int>{0, 1, 2, 3}));
  std::map<int, std::string> sjf_digest, fifo_digest;
  for (const auto& out : r.jobs)
    if (out.completed) sjf_digest[out.spec.index] = out.result.digest;
  for (const auto& out : rq.jobs)
    if (out.completed) fifo_digest[out.spec.index] = out.result.digest;
  EXPECT_EQ(sjf_digest, fifo_digest);
}

}  // namespace
