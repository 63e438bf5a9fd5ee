// Crash-isolated ensemble worker: the body of one forked job process.
//
// The supervisor (supervisor.hpp) forks, and the child calls worker_main,
// which NEVER returns — it _exit()s so a worker can never fall back into
// the supervisor's code or flush its inherited stdio buffers twice.  The
// worker owns exactly one job attempt:
//
//   1. redirect stdout/stderr to the job's log file (the captured failure
//      report a quarantined job keeps);
//   2. build the discretization and solver for its JobSpec;
//   3. resume from the job's last good checkpoint when one exists and
//      validates (torn or corrupt checkpoints are rejected by the io
//      layer; the worker then falls back to the freshest earlier state —
//      ultimately a cold start, which reproduces the same final state
//      because the integrator is deterministic);
//   4. step to completion, writing a heartbeat line after every step and
//      an atomic checkpoint every checkpoint_every steps;
//   5. write the job result JSON atomically and _exit(0).
//
// Heartbeat protocol (newline-delimited ASCII over the supervisor pipe):
//   "A <attempt> <resume_step>"  worker alive, resumed from resume_step
//   "S <step>"                   step completed
//   "C <step>"                   checkpoint durable at step
//
// Injected process faults (resilience/fault_injector.hpp) fire here:
// KillWorker/Hang before computing the fault's step, TornCheckpoint at
// the first checkpoint write at or past it — each only on the matching
// attempt, so the retry ladder is exercised deterministically.
#pragma once

#include <cstdint>
#include <string>

#include "fleet/spec.hpp"
#include "obs/json.hpp"

namespace tsem::fleet {

/// Filesystem layout of one job inside the fleet workdir (keyed by the
/// stable job index, not the name, so paths never contain sweep values).
struct JobPaths {
  std::string checkpoint;  ///< <workdir>/job_<index>.ckpt
  std::string result;      ///< <workdir>/job_<index>.result.json
  std::string log;         ///< <workdir>/job_<index>.log
};
JobPaths job_paths(const std::string& workdir, int index);

/// Worker exit codes the supervisor maps to incident details.
enum WorkerExit : int {
  kExitOk = 0,
  kExitSetupFailed = 65,    ///< mesh/solver construction threw
  kExitStepFailed = 66,     ///< resilience ladder exhausted inside a step
  kExitResultFailed = 67,   ///< could not write the result file
  kExitOrphaned = 68,       ///< heartbeat pipe EPIPE: supervisor died
  kExitInjectedKill = 70,   ///< ProcessFault::KillWorker fired
  kExitInjectedTorn = 71,   ///< ProcessFault::TornCheckpoint fired
  /// Setup-cache incident: a Ready entry failed its CRC (torn publish)
  /// or structural decode at attach.  The worker EVICTED the entry
  /// before exiting; the supervisor relaunches the job cold without
  /// consuming a retry attempt — quarantine the entry, never the job.
  kExitCacheFailed = 72,
  kExitInjectedTornPublish = 73,  ///< ProcessFault::TornPublish fired
};

class SetupCache;  // fleet/setup_cache.hpp

/// Run one job attempt in the current (forked) process and _exit.
/// `heartbeat_fd` is the write end of the supervisor pipe (-1 for a
/// standalone run, e.g. driven by $TSEM_FLEET_FAULT from a shell).
/// `cache` is the supervisor's pre-fork shared setup cache (nullptr =
/// disabled); `allow_cache` is cleared on a cold relaunch after a
/// kExitCacheFailed incident so a poisoned entry cannot refire.
[[noreturn]] void worker_main(const JobSpec& job, const std::string& workdir,
                              int heartbeat_fd, int attempt,
                              SetupCache* cache = nullptr,
                              bool allow_cache = true);

/// Parsed job result file (schema "terasem-fleet-job-1").
struct JobResult {
  std::string name;
  int index = 0;
  int attempt = 0;
  int steps_done = 0;
  int resumed_from_step = 0;  ///< 0 = cold start
  double final_time = 0.0;
  std::string digest;         ///< 8-hex-digit NavierStokes::state_digest
  double kinetic_energy = 0.0;
  double divergence = 0.0;
  int recovered_steps = 0;    ///< steps accepted via the resilience ladder
  /// Wall split: everything before the first step (mesh, solver setup,
  /// checkpoint load — the part the setup cache elides) vs the stepping
  /// loop itself.
  double setup_seconds = 0.0;
  double step_seconds = 0.0;
  /// Cache disposition of this attempt: "hit" (attached to a published
  /// entry), "miss" (built cold; includes the publisher), "cold"
  /// (supervisor forced cache off after an incident), "off" (cache
  /// disabled).
  std::string cache = "off";
  /// OpenMP team the attempt ran with: the supervisor's per-worker
  /// budget (fleet/proc.hpp apply_thread_budget).
  int omp_threads = 1;
  obs::Json counters;         ///< worker-side obs counter snapshot
};

/// Read and validate a worker-written result file with the hardened JSON
/// parser; a partial file left by a killed worker is reported as an
/// error, never UB.
bool read_job_result(const std::string& path, JobResult* out,
                     std::string* err);

}  // namespace tsem::fleet
