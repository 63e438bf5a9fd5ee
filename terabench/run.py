#!/usr/bin/env python3
"""terasem benchmark: build the driver, run one workload (or all three)
each in a fresh process, check its outputs and print every metric.

    python3 terabench/run.py --workload hairpin3d --seed 1 --seconds 20 --trace 0
    python3 terabench/run.py                      # all workloads, trace 0

Run from the repository root.  The last line of stdout is one JSON object
with exactly the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  A traced run also makes an untraced run of the same
workload and reports the difference as the tracing overhead.  Full records
(samples, quartiles, provenance, spans) go to .bench_out/.

Exit status: 0 when every output check passed, 1 when a check failed (the
result line is still printed), 2 when the benchmark could not build or run
(no result line).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("hairpin3d", "fleet_sweep", "exec_ranks")
# The end-to-end time each workload's tracing overhead is judged on.
PRIMARY = {"hairpin3d": "solve_s", "fleet_sweep": "makespan_s",
           "exec_ranks": "exec_step_s"}
# Every run must exit within 180 s of starting, build time aside.
DEADLINE_S = 170.0
# Workloads whose untraced repetitions each get a fresh process: the mxm
# tuner picks kernels by timing once per process, so one process would
# sample one choice however many repetitions it ran.
PROCESS_PER_REPETITION = {"hairpin3d"}


class BenchError(Exception):
    """The benchmark itself could not build or run."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (path, e))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure once, then bring the driver up to date; build output goes
    to stderr so stdout stays the result stream."""
    bdir = build_dir()
    steps = []
    # A failed configure leaves a cache but no build system behind.
    if not ((bdir / "Makefile").exists() or (bdir / "build.ninja").exists()):
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "terabench_driver", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    exe = bdir / "terabench_driver"
    if not exe.exists():
        raise BenchError("driver binary missing after build: %s" % exe)
    return exe


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode == 0 and len(lines) == 2 and \
            Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown (not a git checkout)"


def run_driver(exe, workload, seed, seconds, trace, outdir, deadline):
    """One workload in a fresh process; returns its raw record.  The
    driver runs in its own session so a timeout kills its forked workers
    and ranks too."""
    cmd = [str(exe), workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0",
           "--outdir", str(outdir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s driver exceeded the run deadline" % workload)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("%s driver exited with %d" % (workload,
                                                       proc.returncode))
    lines = [ln for ln in out.splitlines() if ln.startswith("{")]
    if not lines:
        raise BenchError("%s driver printed no record" % workload)
    return json.loads(lines[-1])


def merge_records(acc, rec):
    """Fold one repetition's record into the run's: samples concatenate,
    counts add, the first process's inputs and provenance stand (later
    ones differ only in the tuner's kernel choices, which are kept)."""
    if acc is None:
        rec["provenance"]["mxm_selections"] = [
            rec["provenance"]["mxm_selections"]]
        return rec
    for k, v in rec["samples"].items():
        acc["samples"].setdefault(k, []).extend(v)
    acc["attempted"] += rec["attempted"]
    acc["failed"] += rec["failed"]
    acc["failed_checks"] += rec["failed_checks"]
    acc["provenance"]["mxm_selections"].append(
        rec["provenance"]["mxm_selections"])
    return acc


def layer_values(rec, layer_units):
    """Per-layer metrics: the driver's direct values, plus medians (and the
    step-time tail) of its per-layer samples.  A layer the workload never
    calls reports 0 and is listed as not exercised."""
    vals = {k: v for k, v in rec["layers"].items() if k in layer_units}
    for name, sample in rec["samples"].items():
        if name == "ns.step_ms":
            s = stats.summarize(sample)
            vals["ns.step_ms_p50"] = s["median"]
            vals["ns.step_ms_count"] = s["count"]
            if "tail" in s:
                vals["ns.step_ms_tail"] = s["tail"]
                vals["ns.step_ms_tail_pct"] = s["tail_pct"]
        elif name in layer_units:
            vals[name] = stats.median(sample)
    missing = sorted(set(layer_units) - set(vals))
    for name in missing:
        vals[name] = 0.0
    return vals, missing


def run_workload(exe, workload, seed, seconds, trace, e2e_units,
                 layer_units, deadline):
    outdir = ROOT / ".bench_out" / workload
    outdir.mkdir(parents=True, exist_ok=True)
    if workload in PROCESS_PER_REPETITION:
        plain = None
        t_end = time.time() + seconds
        while plain is None or time.time() < t_end:
            rec = run_driver(exe, workload, seed, 1e-3, False, outdir,
                             deadline)
            plain = merge_records(plain, rec)
    else:
        plain = run_driver(exe, workload, seed, seconds, False, outdir,
                           deadline)
    traced = run_driver(exe, workload, seed, seconds, True, outdir,
                        deadline) if trace else None

    summaries = {k: stats.summarize(v) for k, v in plain["samples"].items()}
    e2e = {}
    missing_e2e = []
    for name in e2e_units:
        if name in summaries:
            e2e[name] = summaries[name]["median"]
        else:
            missing_e2e.append(name)
    checks = list(plain["failed_checks"])
    if missing_e2e:
        checks.append("workload reported no %s" % ", ".join(missing_e2e))
    attempted, failed = plain["attempted"], plain["failed"]

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "git_commit": git_commit(),
        "inputs": plain["inputs"], "provenance": plain["provenance"],
        "summaries": summaries, "end_to_end": e2e,
        "failed_checks": checks,
    }
    metrics = {k: (v, e2e_units[k]) for k, v in e2e.items()}
    if traced is not None:
        layers, missing = layer_values(traced, layer_units)
        t_sum = {k: stats.summarize(v) for k, v in traced["samples"].items()}
        key = PRIMARY[workload]
        if key in t_sum and key in e2e:
            over = t_sum[key]["median"] - e2e[key]
            layers["trace.overhead_s"] = over
            layers["trace.overhead_share"] = over / e2e[key]
            missing = [m for m in missing if not m.startswith("trace.")]
        record["traced"] = {
            "summaries": t_sum, "layers": layers, "not_exercised": missing,
            "spans_file": traced.get("spans_file"),
            "provenance": traced["provenance"],
            "failed_checks": traced["failed_checks"],
        }
        checks += traced["failed_checks"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = {k: (layers.get(k, 0.0), u) for k, u in layer_units.items()}
    correct = not checks and attempted >= 1
    result = stats.make_result(correct, attempted, failed, metrics)
    path = outdir / ("report-seed%d-trace%d.json" % (seed, int(trace)))
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result, record, path


def print_table(workload, result, record, path):
    print("== %s  (seed %d, %s)" % (workload, record["seed"],
                                   "traced" if record["trace"] else
                                   "untraced"))
    for name, m in result["metrics"].items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  attempted %d  failed %d  correct %s" %
          (result["attempted"], result["failed"], result["correct"]))
    for c in record["failed_checks"][:10]:
        print("  CHECK FAILED: %s" % c)
    print("  record: %s" % path.relative_to(ROOT))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        e2e_units, layer_units = load_spec()
        exe = build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for w in names:
            deadline = time.time() + DEADLINE_S
            res, rec, path = run_workload(exe, w, args.seed, args.seconds,
                                          bool(args.trace), e2e_units,
                                          layer_units, deadline)
            print_table(w, res, rec, path)
            problems = stats.validate_result(
                res, layer_units if args.trace else e2e_units)
            # A failed workload may lack a metric (no session finished);
            # its result still prints, with correct false.
            if problems and res["correct"]:
                raise BenchError("result schema: %s" % "; ".join(problems))
            results.append((w, res))
    except BenchError as e:
        print("terabench: %s" % e, file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "workloads": {w: r for w, r in results}}
    sys.stdout.flush()
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
