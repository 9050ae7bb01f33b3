#!/usr/bin/env python3
"""The benchmark of record for pdtfe (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the program from this checkout's sources (Release, under
.bench_build/), generates the workload's inputs from --seed, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the workload
runs once to warm up, then repeatedly, each time in a fresh process, until
--seconds have passed (at least MIN_REPS times); each metric is the median
over those repetitions. --trace 1 makes one traced pass instead and reports
the per-layer metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing beside the sources

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "work")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")

MIN_REPS = 3
BUILD_TIMEOUT_S = 840
STEP_TIMEOUT_S = 150
# A run must end within 180 s: stop repeating once another repetition of
# the last one's length would cross this.
RUN_BUDGET_S = 140
LAYER_SPANS = {
    "nbody.read": "nbody.read_s", "nbody.fof": "nbody.fof_s",
    "gather": "gather.s", "delaunay": "delaunay.s", "density": "density.s",
    "hull": "hull.s", "geom_table": "geom_table.s",
    "coef_table": "coef_table.s", "march": "march.s", "audit": "audit.s",
    "commit": "commit.s", "schedule.comm_list": None, "des.simulate": None,
}


class BenchError(Exception):
    pass


def say(msg):
    print(msg, flush=True)


def run_cmd(cmd, timeout, log_path=None):
    """Run cmd to completion (killed and reaped on timeout); return stdout."""
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, timeout=timeout, text=True)
    if log_path is not None:
        with open(log_path, "a") as f:
            f.write(out.stdout)
    if out.returncode != 0:
        tail = "\n".join(out.stdout.splitlines()[-30:])
        raise BenchError("%s exited %d:\n%s" % (os.path.basename(cmd[0]),
                                                out.returncode, tail))
    return out.stdout


def last_json(text):
    lines = [ln for ln in text.splitlines() if ln.startswith("{")]
    if not lines:
        raise BenchError("no JSON result in output:\n" + text[-2000:])
    return json.loads(lines[-1])


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    start = time.monotonic()
    run_cmd(["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, log)
    left = BUILD_TIMEOUT_S - (time.monotonic() - start)
    run_cmd(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
             "perfbench_harness"], max(left, 1), log)


def host_stanza():
    h = last_json(run_cmd([HARNESS, "host"], STEP_TIMEOUT_S))
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    h.update({
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": sha,
        "omp_env": {k: v for k, v in os.environ.items()
                    if k.startswith("OMP_")},
    })
    if not h.get("optimized"):
        raise BenchError("refusing to time a %s build (flags: %s)"
                         % (h.get("build_type"), h.get("cxx_flags")))
    return h


def harness(args, timeout=STEP_TIMEOUT_S):
    return last_json(run_cmd([HARNESS] + args, timeout))


# ---- pipeline workloads -----------------------------------------------------


def make_snapshot(work, seed):
    path = os.path.join(work, "snap.bin")
    with open(path, "wb") as f:
        f.write(workloads.halo_snapshot(seed))
    return path


def fresh_dir(work, name):
    path = os.path.join(work, name)
    if os.path.exists(path):
        shutil.rmtree(path)
    return path


def pipeline_rep(name, work, snap, tag):
    """One end-to-end repetition in a fresh process, with its gate."""
    w = workloads.PIPELINE[name]
    args = (["pipeline", "--in", snap] + workloads.pipeline_args(name)
            + ["--report", os.path.join(work, "report-" + tag)])
    ckpt = None
    if w.get("durable"):
        # A reused directory would replay every item and read as a speed-up.
        ckpt = fresh_dir(work, "ckpt-" + tag)
        args += ["--checkpoint-dir", ckpt]
    try:
        r = harness(args)
    finally:
        if ckpt is not None:
            shutil.rmtree(ckpt, ignore_errors=True)
    # Problems void the whole repetition; otherwise failed fields count.
    problems = []
    if w.get("durable"):
        if r["items_replayed"]:
            problems.append("%d item(s) replayed from a checkpoint"
                            % r["items_replayed"])
        if r["journal_records"] != r["fields"]:
            problems.append("%d journal record(s) for %d field(s)"
                            % (r["journal_records"], r["fields"]))
    r["problems"] = problems
    r["attempted"] = r["fields"]
    return r


def measure_pipeline(name, seed, seconds, work):
    snap = make_snapshot(work, seed)
    start = time.monotonic()
    warm = pipeline_rep(name, work, snap, "warmup")
    say("warmup " + json.dumps(rep_line(warm)))
    reps = []
    t0 = time.monotonic()
    while True:
        r = pipeline_rep(name, work, snap, str(len(reps)))
        # Checksums must repeat bitwise for one seed.
        if r["field_sums"] != warm["field_sums"] or \
                r["channel_sums"] != warm["channel_sums"]:
            r["problems"].append("checksums differ from the warm-up run")
        r["failed"] = r["attempted"] if r["problems"] else r["fields_failed"]
        reps.append(r)
        say("rep %d %s" % (len(reps), json.dumps(rep_line(r))))
        now = time.monotonic()
        if len(reps) >= MIN_REPS and (
                now - t0 >= seconds
                or now - start + (now - t0) / len(reps) > RUN_BUDGET_S):
            break
    return summarize_reps(reps)


def rep_line(r):
    keys = ("wall_s", "setup_s", "read_s", "fof_s", "batch_s", "peak_rss_mb",
            "items_shipped", "busy_max_s", "busy_mean_s", "balance_gain",
            "fields", "fields_failed", "worst_mass_rel_err")
    return {k: r[k] for k in keys if k in r}


def summarize_reps(reps):
    """Gate outcome and per-metric samples of the measured repetitions. A
    repetition with a failure is not a fast run: its times are left out."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for i, r in enumerate(reps):
        for p in r["problems"]:
            say("GATE rep %d: %s" % (i + 1, p))
        if r["failed"]:
            say("GATE rep %d: %d of %d failed" % (i + 1, r["failed"],
                                                  r["attempted"]))
    good = [r for r in reps if not r["failed"]] or reps
    values = {k: [r[k] for r in good]
              for k in ("wall_s", "setup_s", "batch_s", "peak_rss_mb",
                        "balance_gain")}
    values["fields_ok_frac"] = [1.0 - failed / attempted]
    return failed == 0, attempted, failed, values


def trace_pipeline(name, seed, work):
    w = workloads.PIPELINE[name]
    snap = make_snapshot(work, seed)
    trace_path = os.path.join(work, "trace.json")
    args = (["pipeline-trace", "--in", snap, "--trace-out", trace_path]
            + workloads.pipeline_args(name))
    if w.get("durable"):
        args += ["--checkpoint-dir", fresh_dir(work, "ckpt-trace"),
                 "--journal-dir", fresh_dir(work, "journal-trace")]
    r = harness(args)
    c = r["counters"]
    by_name = spans.self_time_by_name(spans.load_spans(trace_path))
    m = dict(c)
    layer_sum = 0.0
    for span_name, metric in LAYER_SPANS.items():
        if span_name in by_name:
            layer_sum += by_name[span_name]
            if metric is not None:
                m[metric] = by_name[span_name]
    items = max(c["gather.items"], 1.0)
    inserts = max(c["delaunay.points_inserted"], 1.0)
    m["gather.particles_per_item"] = c["gather.particles"] / items
    m["delaunay.inserts_per_s"] = c["delaunay.points_inserted"] / max(
        m.get("delaunay.s", 0.0), 1e-12)
    m["delaunay.walk_steps_per_insert"] = c["delaunay.walk_steps"] / inserts
    m["delaunay.conflict_cells_per_insert"] = (c["delaunay.conflict_cells"]
                                               / inserts)
    m["delaunay.cells_created_per_insert"] = (c["delaunay.cells_created"]
                                              / inserts)
    m["coef_table.builds_per_item"] = c["coef_table.builds"] / items
    m["march.crossings_per_s"] = c["march.crossings"] / max(
        m.get("march.s", 0.0), 1e-12)
    m["march.crossings_per_ray"] = c["march.crossings"] / max(
        c["march.rays"], 1.0)
    m["engine.imbalance"] = c["engine.busy_max_s"] / max(
        c["engine.busy_mean_s"], 1e-12)
    m["trace.other_s"] = r["replay_wall_s"] - layer_sum
    m["trace.parallel_speedup"] = r["replay_batch_s"] / r["batch_s"]
    say("trace %s" % json.dumps({
        "replay_wall_s": r["replay_wall_s"],
        "replay_batch_s": r["replay_batch_s"], "batch_s": r["batch_s"],
        "other_share": m["trace.other_s"] / r["replay_wall_s"],
        "self_s": by_name}))

    problems = []
    if not r["gate_crossings"]:
        problems.append("replay march.crossings %g != run's %g"
                        % (c["march.crossings"], r["run.tetra_crossings"]))
    if not r["gate_walk_steps"]:
        problems.append("replay delaunay.walk_steps %g != run's %g"
                        % (c["delaunay.walk_steps"], r["run.walk_steps"]))
    if not r["gate_field_sums"]:
        problems.append("replay grids differ from the run's")
    if r["run.items_replayed"]:
        problems.append("the run replayed items from a checkpoint")
    if c["audit.violations"]:
        problems.append("%d audit violation(s)" % c["audit.violations"])
    if w.get("durable") and c["commit.records"] != w["fields"]:
        problems.append("commit.records %g != %d fields"
                        % (c["commit.records"], w["fields"]))
    if not r["trace_written"]:
        problems.append("trace file not written")
    for p in problems:
        say("GATE trace: " + p)
    fields = w["fields"]
    return not problems, fields, fields if problems else 0, m


# ---- scheduling workload ----------------------------------------------------


def make_costs(name, work, seed):
    w = workloads.SCHEDULE[name]
    path = os.path.join(work, "costs.bin")
    harness(["schedule-input", "--seed", str(seed), "--items",
             str(w["items"]), "--ranks", str(w["ranks"]), "--out", path])
    return path


def measure_schedule(name, seed, seconds, work):
    costs = make_costs(name, work, seed)
    result = os.path.join(work, "des.json")
    start = time.monotonic()
    warm = harness(["schedule", "--costs", costs, "--result", result])
    say("warmup " + json.dumps(warm))
    reps = []
    t0 = time.monotonic()
    while True:
        r = harness(["schedule", "--costs", costs, "--result", result])
        r["problems"] = []
        if not r["consistent"]:
            r["problems"].append("DES result violates its invariants")
        # The DES is deterministic: one seed, one outcome.
        if (r["balance_gain"], r["makespan_balanced"], r["shipped_work"]) != \
                (warm["balance_gain"], warm["makespan_balanced"],
                 warm["shipped_work"]):
            r["problems"].append("DES outcome differs from the warm-up run")
        r["attempted"] = r["items"]
        r["failed"] = r["items"] if r["problems"] else 0
        reps.append(r)
        say("rep %d %s" % (len(reps), json.dumps(r)))
        now = time.monotonic()
        if len(reps) >= MIN_REPS and (
                now - t0 >= seconds
                or now - start + (now - t0) / len(reps) > RUN_BUDGET_S):
            break
    return summarize_reps(reps)


def trace_schedule(name, seed, work):
    costs = make_costs(name, work, seed)
    trace_path = os.path.join(work, "trace.json")
    r = harness(["schedule-trace", "--costs", costs, "--trace-out",
                 trace_path])
    by_name = spans.self_time_by_name(spans.load_spans(trace_path))
    m = dict(r["counters"])
    layer_sum = sum(v for k, v in by_name.items() if k in LAYER_SPANS)
    m["trace.other_s"] = r["replay_wall_s"] - layer_sum
    say("trace %s" % json.dumps({"replay_wall_s": r["replay_wall_s"],
                                 "self_s": by_name}))
    ok = r["consistent"] and r["trace_written"]
    if not ok:
        say("GATE trace: DES result violates its invariants")
    items = workloads.SCHEDULE[name]["items"]
    return ok, items, 0 if ok else items, m


# ---- entry point ------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec = load_spec()
    build()
    say("host " + json.dumps(host_stanza()))
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (a.workload, a.seed),
                            dir=WORK_ROOT)
    try:
        pipeline = a.workload in workloads.PIPELINE
        if a.trace:
            fn = trace_pipeline if pipeline else trace_schedule
            correct, attempted, failed, values = fn(a.workload, a.seed, work)
            wanted = spec["per_layer"]
            # A layer this workload never runs reads 0.
            metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                   "unit": m["unit"]} for m in wanted}
        else:
            fn = measure_pipeline if pipeline else measure_schedule
            correct, attempted, failed, values = fn(a.workload, a.seed,
                                                    a.seconds, work)
            metrics = {}
            for m in spec["end_to_end"]:
                v = values[m["name"]]
                say("summary %s %s" % (m["name"],
                                       json.dumps(stats.summarize(v))))
                metrics[m["name"]] = {"value": statistics.median(v),
                                      "unit": m["unit"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
