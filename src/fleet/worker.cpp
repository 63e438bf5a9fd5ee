#include "fleet/worker.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "fleet/proc.hpp"
#include "fleet/setup_cache.hpp"
#include "io/binfile.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "ns/navier_stokes.hpp"
#include "obs/metrics.hpp"
#include "resilience/checkpoint.hpp"
#include "solver/setup_bundle.hpp"

namespace tsem::fleet {
namespace {

// Heartbeat lines are tiny (<< PIPE_BUF), so each write is atomic and the
// supervisor never sees an interleaved or torn line.  Returns false when
// the supervisor end of the pipe is gone (EPIPE): with SIGPIPE ignored
// the worker survives the write and can classify itself as orphaned
// instead of dying silently from the signal.
bool beat(int fd, const char* tag, int a, int b = INT32_MIN) {
  if (fd < 0) return true;
  errno = 0;
  int rc;
  if (b == INT32_MIN)
    rc = ::dprintf(fd, "%s %d\n", tag, a);
  else
    rc = ::dprintf(fd, "%s %d %d\n", tag, a, b);
  return !(rc < 0 && errno == EPIPE);
}

// The supervisor closed its read end (it exited or crashed mid-run).
// Continuing would burn CPU producing results nobody will collect, so
// exit with the dedicated orphan code — distinct from a crash so a
// post-mortem of the workdir logs shows "supervisor died", not "worker
// bug".
[[noreturn]] void orphan_exit(int step) {
  std::printf("[worker] heartbeat pipe closed (supervisor gone) at step %d; "
              "exiting as orphan\n", step);
  std::fflush(stdout);
  ::_exit(kExitOrphaned);
}

bool fault_fires(const ProcessFault& f, ProcessFault::Kind kind, int step,
                 int attempt, bool at_or_past = false) {
  if (f.kind != kind) return false;
  if (f.attempt != 0 && f.attempt != attempt) return false;
  return at_or_past ? step >= f.step : step == f.step;
}

// The cache faults fire during setup, before any step exists; only the
// kind and attempt gate them (the parsed step is round-trip baggage).
bool setup_fault_fires(const ProcessFault& f, ProcessFault::Kind kind,
                       int attempt) {
  if (f.kind != kind) return false;
  return f.attempt == 0 || f.attempt == attempt;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Space make_space(const JobSpec& job) {
  auto spec = box_spec_2d(linspace(0.0, 2.0 * M_PI, job.mesh_k),
                          linspace(0.0, 2.0 * M_PI, job.mesh_k));
  spec.periodic_x = spec.periodic_y = true;
  return Space(build_mesh(spec, job.order));
}

void init_taylor_green(NavierStokes& ns, const Space& s) {
  const auto& m = s.mesh();
  for (std::size_t i = 0; i < s.nlocal(); ++i) {
    ns.u(0)[i] = std::sin(m.x[i]) * std::cos(m.y[i]);
    ns.u(1)[i] = -std::cos(m.x[i]) * std::sin(m.y[i]);
  }
}

std::string digest_hex(std::uint32_t d) {
  char buf[12];
  std::snprintf(buf, sizeof buf, "%08x", d);
  return buf;
}

bool get_req_int(const obs::Json& o, const char* key, int* out) {
  const obs::Json* v = o.find(key);
  if (!v || !v->is_number()) return false;
  *out = static_cast<int>(v->as_int());
  return true;
}

bool get_req_double(const obs::Json& o, const char* key, double* out) {
  const obs::Json* v = o.find(key);
  if (!v || !v->is_number()) return false;
  *out = v->as_double();
  return true;
}

}  // namespace

JobPaths job_paths(const std::string& workdir, int index) {
  const std::string stem = workdir + "/job_" + std::to_string(index);
  return JobPaths{stem + ".ckpt", stem + ".result.json", stem + ".log"};
}

void worker_main(const JobSpec& job, const std::string& workdir,
                 int heartbeat_fd, int attempt, SetupCache* cache,
                 bool allow_cache) {
  // Without this, a supervisor death turns every worker's next dprintf
  // into a fatal SIGPIPE — the workers die silently with no log line and
  // the failure reads as a worker crash.  Ignore the signal so the write
  // fails visibly with EPIPE instead.
  ignore_sigpipe();
  const JobPaths paths = job_paths(workdir, job.index);
  // The log is the job's captured failure report: append across attempts
  // so a quarantine shows the whole incident history, not just the last.
  std::freopen(paths.log.c_str(), "a", stdout);
  std::freopen(paths.log.c_str(), "a", stderr);
  // The forked child inherits the parent's process-wide registry; reset
  // so the result's counters are this attempt's own.
  obs::MetricsRegistry::instance().reset();

  ProcessFault fault = job.fault;
  if (fault.kind == ProcessFault::Kind::None)
    fault = process_fault_from_env();

  std::printf("[worker] job %d '%s' attempt %d pid %d fault %s cache %s\n",
              job.index, job.name.c_str(), attempt,
              static_cast<int>(::getpid()),
              format_process_fault(fault).c_str(),
              cache ? (allow_cache ? "on" : "cold") : "off");
  std::fflush(stdout);

  const auto t_setup0 = std::chrono::steady_clock::now();

  // ---- setup-cache attach / claim (DESIGN.md "Setup cache") ----
  const char* cache_tag = cache ? (allow_cache ? "miss" : "cold") : "off";
  int publish_slot = -1;
  SetupBundle imported, recorded;
  bool importing = false, recording = false;
  if (cache != nullptr && allow_cache) {
    if (setup_fault_fires(fault, ProcessFault::Kind::CacheFail, attempt)) {
      std::printf("[worker] injected cache failure at lookup\n");
      std::fflush(stdout);
      ::_exit(kExitCacheFailed);
    }
    const SetupKey key = setup_key_for(job);
    SetupCache::Lookup lk = cache->lookup(key);
    switch (lk.outcome) {
      case SetupCache::Outcome::Hit: {
        // Zero-copy attach: decode straight out of the shared arena (the
        // one copy of each section lands in the bundle's own vectors),
        // then revalidate the seqlock generation — only a stable entry
        // is trusted.
        const bool decoded =
            decode_setup_bundle(lk.data, lk.size, &imported);
        if (!cache->confirm(lk)) {
          // The entry was evicted/republished while we read it; what we
          // decoded may be torn.  The new entry is somebody else's
          // problem — just build cold without recording.
          imported = SetupBundle{};
          std::printf("[worker] cache entry '%s' changed mid-read; "
                      "building cold\n",
                      key.text.c_str());
          std::fflush(stdout);
        } else if (decoded) {
          importing = true;
          cache_tag = "hit";
          obs::count("fleet/cache/hits");
        } else {
          // CRC passed but the framing is wrong — a version skew or a
          // serializer bug, not bit rot.  Same policy: evict the entry,
          // relaunch the job cold.
          cache->evict(lk.slot);
          obs::count("fleet/cache/evictions");
          std::printf("[worker] cache entry '%s' undecodable; evicted\n",
                      key.text.c_str());
          std::fflush(stdout);
          ::_exit(kExitCacheFailed);
        }
        break;
      }
      case SetupCache::Outcome::Corrupt:
        obs::count("fleet/cache/evictions");
        std::printf("[worker] cache entry '%s' failed CRC; evicted\n",
                    key.text.c_str());
        std::fflush(stdout);
        ::_exit(kExitCacheFailed);
      case SetupCache::Outcome::Claimed:
        recording = true;
        publish_slot = lk.slot;
        obs::count("fleet/cache/misses");
        break;
      case SetupCache::Outcome::Miss:
        obs::count("fleet/cache/misses");
        break;
    }
  }

  Space space = [&] {
    if (importing && !imported.mesh.empty()) {
      Mesh m;
      if (deserialize_mesh(imported.mesh, &m)) {
        // Replay the C0 connectivity too when its section validates
        // against this mesh; otherwise rebuild just that (same bits).
        if (!imported.gs.empty()) {
          ByteReader r(imported.gs);
          GatherScatter g;
          if (g.deserialize(r) && r.exhausted() &&
              g.nlocal() == m.nlocal())
            return Space(std::move(m), std::move(g));
        }
        return Space(std::move(m));
      }
    }
    return make_space(job);
  }();
  NsOptions opt;
  opt.dt = job.dt;
  opt.viscosity = 1.0 / job.reynolds;
  opt.torder = 2;
  opt.proj_len = 8;
  opt.dealias = job.dealias;
  opt.setup_import = importing ? &imported : nullptr;
  opt.setup_record = recording ? &recorded : nullptr;
  NavierStokes ns(space, 0u, opt);
  init_taylor_green(ns, space);

  if (recording) {
    serialize_mesh(space.mesh(), &recorded.mesh);
    {
      ByteWriter w;
      space.gs().serialize(w);
      recorded.gs = w.take();
    }
    const std::vector<std::uint8_t> blob = encode_setup_bundle(recorded);
    const bool torn = setup_fault_fires(
        fault, ProcessFault::Kind::TornPublish, attempt);
    if (cache->publish(publish_slot, blob, torn)) {
      obs::count("fleet/cache/publishes");
      if (torn) {
        // The slot now reads Ready with a full-payload CRC over a
        // half-written payload — the torn entry the next attach must
        // reject by checksum.  Die like a mid-copy crash.
        std::printf("[worker] injected torn cache publish\n");
        std::fflush(stdout);
        ::_exit(kExitInjectedTornPublish);
      }
    } else {
      obs::count("fleet/cache/publish_failures");
      std::printf("[worker] cache publish failed (entry disabled)\n");
      std::fflush(stdout);
    }
  }

  int start_step = 0;
  if (::access(paths.checkpoint.c_str(), F_OK) == 0) {
    NsState st;
    std::string rerr;
    if (load_checkpoint(paths.checkpoint, &st, &rerr) &&
        ns.import_state(st, &rerr)) {
      start_step = st.step;
      std::printf("[worker] resumed from checkpoint at step %d\n",
                  start_step);
    } else {
      // Second line of defense: a checkpoint that slipped past the atomic
      // write (e.g. bytes corrupted at rest) fails its CRC here and the
      // job cold-starts — deterministic integration reproduces the same
      // final state, only the saved work is lost.
      std::printf("[worker] checkpoint rejected (%s); cold start\n",
                  rerr.c_str());
    }
    std::fflush(stdout);
  }
  const double setup_seconds = seconds_since(t_setup0);
  if (!beat(heartbeat_fd, "A", attempt, start_step)) orphan_exit(start_step);
  const auto t_steps0 = std::chrono::steady_clock::now();

  // Test pacing seam: the fleet tests stretch these tiny canonical jobs
  // past the supervisor's poll tick so preemption/watchdog behavior is
  // exercised deterministically instead of racing worker speed.
  int step_sleep_us = 0;
  if (const char* pace = std::getenv("TSEM_FLEET_STEP_SLEEP_US"))
    step_sleep_us = std::atoi(pace);

  int recovered_steps = 0;
  for (int n = start_step + 1; n <= job.steps; ++n) {
    if (fault_fires(fault, ProcessFault::Kind::KillWorker, n, attempt)) {
      std::printf("[worker] injected kill before step %d\n", n);
      std::fflush(stdout);
      ::_exit(kExitInjectedKill);
    }
    if (fault_fires(fault, ProcessFault::Kind::Hang, n, attempt)) {
      std::printf("[worker] injected hang before step %d\n", n);
      std::fflush(stdout);
      for (;;) ::sleep(1000);  // no heartbeats: watchdog food
    }

    const StepStats st = ns.step();
    if (st.failed) {
      std::printf("[worker] step %d failed: resilience ladder exhausted\n",
                  n);
      std::fflush(stdout);
      ::_exit(kExitStepFailed);
    }
    if (st.recovered) ++recovered_steps;
    if (!beat(heartbeat_fd, "S", n)) orphan_exit(n);
    if (step_sleep_us > 0) ::usleep(static_cast<useconds_t>(step_sleep_us));

    if (job.checkpoint_every > 0 && n % job.checkpoint_every == 0) {
      if (fault_fires(fault, ProcessFault::Kind::TornCheckpoint, n, attempt,
                      /*at_or_past=*/true)) {
        // Die mid-checkpoint-write: a partial temp file is all that ever
        // exists, because the real writer only renames a complete,
        // fsync'ed file into place.  The previous good checkpoint (and
        // therefore resumability) survives this by construction.
        std::printf("[worker] injected torn checkpoint write at step %d\n",
                    n);
        std::fflush(stdout);
        std::FILE* f = std::fopen((paths.checkpoint + ".tmp").c_str(), "wb");
        if (f) {
          std::fputs("TSEMCKPT torn mid-write", f);
          std::fclose(f);
        }
        ::_exit(kExitInjectedTorn);
      }
      std::string cerr_;
      if (save_checkpoint(ns, paths.checkpoint, &cerr_)) {
        if (!beat(heartbeat_fd, "C", n)) orphan_exit(n);
      } else {
        // A failed checkpoint write is not fatal to the attempt; the job
        // just has a longer replay window if it is later killed.
        std::printf("[worker] checkpoint write failed: %s\n", cerr_.c_str());
        std::fflush(stdout);
      }
    }
  }

  obs::Json result = obs::Json::object();
  result["schema"] = "terasem-fleet-job-1";
  result["name"] = job.name;
  result["index"] = job.index;
  result["attempt"] = attempt;
  result["steps_done"] = job.steps;
  result["resumed_from_step"] = start_step;
  result["final_time"] = ns.time();
  result["digest"] = digest_hex(ns.state_digest());
  result["kinetic_energy"] = ns.kinetic_energy();
  result["divergence"] = ns.divergence_norm();
  result["recovered_steps"] = recovered_steps;
  result["setup_seconds"] = setup_seconds;
  result["step_seconds"] = seconds_since(t_steps0);
  result["cache"] = cache_tag;
#ifdef _OPENMP
  result["omp_threads"] = omp_get_max_threads();
#else
  result["omp_threads"] = 1;
#endif
  const obs::Json snap = obs::MetricsRegistry::instance().snapshot();
  if (const obs::Json* counters = snap.find("counters"))
    result["counters"] = *counters;
  else
    result["counters"] = obs::Json::object();

  const std::string text = result.dump(2);
  std::string werr;
  if (!write_file_atomic(paths.result, text.data(), text.size(), &werr)) {
    std::printf("[worker] result write failed: %s\n", werr.c_str());
    std::fflush(stdout);
    ::_exit(kExitResultFailed);
  }
  ::_exit(kExitOk);
}

bool read_job_result(const std::string& path, JobResult* out,
                     std::string* err) {
  obs::Json doc;
  obs::Json::ParseError perr;
  if (!obs::Json::parse_file(path, &doc, &perr)) {
    if (err) *err = perr.to_string();
    return false;
  }
  auto fail = [&](const std::string& what) {
    if (err) *err = path + ": " + what;
    return false;
  };
  if (!doc.is_object()) return fail("result is not an object");
  const obs::Json* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "terasem-fleet-job-1")
    return fail("missing or wrong result schema");

  JobResult r;
  const obs::Json* name = doc.find("name");
  const obs::Json* digest = doc.find("digest");
  if (!name || !name->is_string() || !digest || !digest->is_string())
    return fail("missing name/digest");
  r.name = name->as_string();
  r.digest = digest->as_string();
  if (!get_req_int(doc, "index", &r.index) ||
      !get_req_int(doc, "attempt", &r.attempt) ||
      !get_req_int(doc, "steps_done", &r.steps_done) ||
      !get_req_int(doc, "resumed_from_step", &r.resumed_from_step) ||
      !get_req_int(doc, "recovered_steps", &r.recovered_steps) ||
      !get_req_int(doc, "omp_threads", &r.omp_threads) ||
      !get_req_double(doc, "final_time", &r.final_time) ||
      !get_req_double(doc, "kinetic_energy", &r.kinetic_energy) ||
      !get_req_double(doc, "divergence", &r.divergence) ||
      !get_req_double(doc, "setup_seconds", &r.setup_seconds) ||
      !get_req_double(doc, "step_seconds", &r.step_seconds))
    return fail("missing numeric result fields");
  const obs::Json* cache = doc.find("cache");
  if (!cache || !cache->is_string()) return fail("missing cache field");
  r.cache = cache->as_string();
  if (const obs::Json* counters = doc.find("counters"))
    r.counters = *counters;
  *out = std::move(r);
  return true;
}

}  // namespace tsem::fleet
