// Declarative ensemble case specs and parameter-sweep expansion.
//
// The fleet engine (src/fleet/supervisor.hpp) consumes one JSON document
// describing a family of Navier-Stokes runs — a base case plus sweep axes
// (Reynolds number, mesh resolution, polynomial order, dt, step count) —
// and expands it into a deterministic job queue.  Expansion is a plain
// cartesian product in a FIXED axis order (reynolds, mesh_k, order, dt,
// steps), so the same spec always yields the same job list in the same
// order with the same names: job index i is a stable identity that fault
// plans, checkpoints, and reports key on.
//
// Spec document shape (all sweep axes optional; absent = base value):
//
//   {
//     "name": "re_sweep",
//     "case": { "mesh_k": 2, "order": 4, "dt": 0.01, "steps": 6,
//               "reynolds": 20.0, "checkpoint_every": 2,
//               "dealias": false, "priority": 0 },
//     "sweep": { "reynolds": [10, 20], "order": [3, 4] },
//     "fleet": { "concurrency": 4, "watchdog_ms": 2000,
//                "max_attempts": 3, "backoff_base_ms": 10,
//                "quantum_steps": 0, "cache": true, "cache_entry_kb": 0,
//                "scheduler": "sjf" },
//     "faults": [ { "job": 3, "fault": "kill@5" } ],
//     "priorities": [ { "job": 7, "priority": 2 } ]
//   }
//
// "faults" is the spec-driven activation seam for the process-level
// FaultInjector kinds (resilience/fault_injector.hpp): each entry pins a
// ProcessFault onto one expanded job index, which is how the fleet tests
// drive worker crashes, hangs, and torn checkpoint writes end to end.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "resilience/fault_injector.hpp"

namespace tsem::fleet {

/// One fully-instantiated ensemble member: a 2D Taylor-Green box run
/// (periodic [0,2pi]^2, mesh_k x mesh_k elements) at the given
/// discretization.  The physics is deliberately canonical — the fleet
/// layer is about *running* many cases, and Taylor-Green gives every job
/// a deterministic, digest-comparable final state.
struct JobSpec {
  std::string name;         ///< "<sweep>/<axis values>" (unique, stable)
  int index = 0;            ///< position in the expanded queue
  int mesh_k = 2;           ///< elements per side of the periodic box
  int order = 4;            ///< polynomial order N
  double dt = 0.01;
  int steps = 6;            ///< total steps the job must complete
  double reynolds = 20.0;   ///< viscosity = 1/Re
  int checkpoint_every = 2; ///< checkpoint cadence in steps (0 = never)
  /// Over-integrate convection on the 3/2 fine grid (NsOptions::dealias);
  /// part of the setup-cache shape key — the interpolation matrices are
  /// cached artifacts.
  bool dealias = false;
  /// Scheduler lane: higher-priority jobs dispatch before lower ones
  /// regardless of their run-time estimate (Sjf orders within a lane).
  int priority = 0;
  ProcessFault fault;       ///< injected process fault (tests; default none)
};

/// Supervisor policy knobs (see supervisor.hpp for the state machine).
struct FleetOptions {
  int concurrency = 2;       ///< max simultaneously forked workers
  int watchdog_ms = 4000;    ///< heartbeat silence before SIGKILL
  int max_attempts = 3;      ///< crash/hang attempts before quarantine
  int backoff_base_ms = 10;  ///< retry n delays base * 2^(n-1) ms
  int backoff_max_ms = 30000;  ///< ceiling on any single retry delay
  /// Preempt a running job once it has completed this many steps in the
  /// current attempt AND written a checkpoint (durable progress), when
  /// other jobs are waiting.  0 disables preemption.
  int quantum_steps = 0;
  int poll_ms = 5;           ///< supervisor event-loop tick
  std::string workdir = "fleet_work";  ///< checkpoints/results/logs
  /// Shape-keyed shared setup cache (fleet/setup_cache.hpp): the first
  /// worker per (mesh, order, ISA) key publishes its setup
  /// artifacts into a MAP_SHARED arena; later workers attach and skip
  /// straight to time-stepping.  $TSEM_FLEET_CACHE=0/1 overrides.
  bool cache = true;
  /// Per-entry arena capacity override in KiB (0 = analytic estimate).
  int cache_entry_kb = 0;
  /// Dispatch order: Fifo = expanded queue order; Sjf = shortest job
  /// first inside each priority lane, using measured per-key step times
  /// once available and a steps * order^3 prior before that.  Ties (and
  /// uniform sweeps under the prior) degrade to queue order, so Sjf is a
  /// safe default.
  enum class Scheduler { Fifo, Sjf };
  Scheduler scheduler = Scheduler::Sjf;
};

/// Parsed sweep document: base case + axes + fleet policy + fault plan.
struct SweepSpec {
  std::string name = "sweep";
  JobSpec base;
  FleetOptions fleet;
  // Sweep axes; an empty axis means "use the base value".
  std::vector<double> reynolds;
  std::vector<int> mesh_k;
  std::vector<int> order;
  std::vector<double> dt;
  std::vector<int> steps;
  // Spec-driven fault plan: (expanded job index, fault).
  std::vector<std::pair<int, ProcessFault>> faults;
  // Spec-driven priority lanes: (expanded job index, priority), applied
  // by index like the fault plan; out-of-range entries are ignored.
  std::vector<std::pair<int, int>> priorities;
};

/// Retry delay for the n-th attempt (attempt >= 1 is the attempt that
/// just failed): backoff_base_ms * 2^(attempt-1), with the shift clamped
/// and the product saturated at backoff_max_ms.  Well-defined for ANY
/// attempt — the naive `base * (1 << (attempt - 1))` is UB past
/// attempt 31 and overflows int long before a max_attempts = 40 ladder
/// finishes.
int retry_backoff_ms(const FleetOptions& opt, int attempt);

/// Parse a sweep document (already-parsed JSON).  Unknown keys are
/// rejected — a typo'd axis name must not silently run the wrong sweep.
/// Returns false with *err on any structural defect.
bool parse_sweep(const obs::Json& doc, SweepSpec* out, std::string* err);

/// Convenience: text -> Json (hardened parser) -> parse_sweep.
bool parse_sweep_text(std::string_view text, SweepSpec* out,
                      std::string* err);

/// Deterministic cartesian expansion (axis order: reynolds, mesh_k,
/// order, dt, steps) with the spec's fault plan applied by job index.
/// Fault entries whose index is out of range are ignored (the plan may
/// have been written for a larger sweep).
std::vector<JobSpec> expand_sweep(const SweepSpec& spec);

}  // namespace tsem::fleet
