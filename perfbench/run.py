"""Benchmark runner for cantor-measure.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload, one fresh process each
    python3 perfbench/run.py --workload NAME --smoke  # tiny corpus, one pass

One client in one process runs the workload's operations in a closed
loop: the next operation starts only after the previous one returned and
was checked.  Passes over the operation list repeat until S seconds have
passed; times are medians over passes.  CLI operations go through
cantor_measure.cli.main in-process, with stdout captured.

--trace 0 prints the end-to-end metrics.  --trace 1 spends the first half
of the time untraced and the second half traced, and prints the per-layer
metrics, including the tracing overhead.  The last line of stdout is one
JSON object {correct, attempted, failed, metrics}; a fuller record with
provenance goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 9

def load_package():
    """Import cantor_measure from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "cantor_measure", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, SRC)
    import cantor_measure

    if not os.path.abspath(cantor_measure.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported cantor_measure from {cantor_measure.__file__}, not {SRC}")
    return cantor_measure


def argv_key(argv) -> str:
    return hashlib.sha256(json.dumps(list(argv)).encode()).hexdigest()[:24]


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# calibration
#
# Other tenants of the machine slow it down by up to 1.7x for tens of
# seconds at a time, which moves a run's median pass time by more than any
# sensible bound.  A short fixed interpreter-bound loop, run between
# operations, slows down in step, so every reported time is rescaled to a
# reference speed: an operation's calibrated seconds are its wall seconds
# times CAL_REF_S over the mean time of the loops just before and after it.
# CAL_REF_S is about the loop's usual time on the 2-core Xeon box this was
# written on, so calibrated seconds read close to wall seconds there.  Raw
# wall times go to the result file as well.

CAL_REF_S = 0.0039
# a long operation is calibrated by the median of more loops on each side,
# about CAL_SHARE of its duration (for the loops before it, its duration in
# the previous pass), at most 16
CAL_SHARE = 0.04


def calibration() -> float:
    """Seconds for a fixed interpreter-bound loop that touches nothing of
    the package."""
    t = time.perf_counter()
    acc: dict = {}
    for i in range(2000):
        key = (i % 61, i & 3)
        acc[key] = acc.get(key, 0) + (i * i >> 3) % 11
        "".join(("0", "1")[(i >> b) & 1] for b in range(4))
    return time.perf_counter() - t


def calibrate(loops: int) -> float:
    return statistics.median(calibration() for _ in range(loops))


# fresh interpreter: time to import the package and its CLI
SETUP_PROBE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cantor_measure, cantor_measure.cli
print(repr(time.perf_counter() - t))
"""


def measure_setup(runs: int) -> tuple[float, float]:
    """Median import time over fresh interpreters, (calibrated, wall); each
    child is calibrated by loops in this process just before and after it."""
    scaled, wall = [], []
    for _ in range(runs):
        before = calibrate(5)
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        after = calibrate(5)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {done.stderr.strip()}")
        took = float(done.stdout)
        wall.append(took)
        scaled.append(took * 2 * CAL_REF_S / (before + after))
    return statistics.median(scaled), statistics.median(wall)


# ---------------------------------------------------------------------------
# passes

class McClock:
    """Wall time and trials inside mc_integral and sampled_average, from a
    wrapper per call (not per trial), so it stays on in untraced runs."""

    def __init__(self, package):
        self.seconds = 0.0
        self.trials = 0
        self._undo = []
        for name in ("mc_integral", "sampled_average"):
            fn = getattr(package.sampling, name)
            tracer.rebind(package.__name__, fn, self._timed(fn, name), self._undo)

    def uninstall(self) -> None:
        tracer.restore(self._undo)

    def _timed(self, fn, name):
        def timed(*args, **kw):
            t = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                self.seconds += time.perf_counter() - t
                self.trials += tracer.mc_trials(name, args, kw)

        return timed

    def read(self) -> tuple[int, float]:
        out = (self.trials, self.seconds)
        self.trials, self.seconds = 0, 0.0
        return out


class Runner:
    def __init__(self, ops, digests):
        self.ops = ops
        self.digests = digests
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outputs: dict[int, str] = {}  # op index -> digest of CLI report, first pass
        self.op_seq = 0
        self.cal_loops = [1] * len(ops)

    def run_pass(self, clock: McClock | None, compare_outputs: bool = False) -> dict:
        """One pass over the operations.  Times are calibrated seconds;
        wall_s is the raw total."""
        verb_s: Counter = Counter()
        total = wall = mc_s = 0.0
        mc_trials = 0
        tr = self.tracer
        loops = self.cal_loops

        def boundary(k: int) -> float:
            """Calibration between operations k-1 and k."""
            return calibrate(max(loops[k - 1] if k > 0 else 1, loops[k] if k < len(loops) else 1))

        cal = boundary(0)
        for k, op in enumerate(self.ops):
            self.attempted += 1
            if tr:
                tr.op = self.op_seq
                tr.enabled = True
            self.op_seq += 1
            t = time.perf_counter()
            try:
                out = op.call()
                problem = None
            except Exception as e:  # an unexpected exception is a failed operation
                out, problem = None, f"raised {type(e).__name__}: {e}"
            dt = time.perf_counter() - t
            if tr:
                tr.enabled = False
            loops[k] = max(1, min(16, round(CAL_SHARE * dt / CAL_REF_S)))
            cal_next = boundary(k + 1)
            scale = 2 * CAL_REF_S / (cal + cal_next)
            cal = cal_next
            wall += dt
            total += dt * scale
            verb_s[op.verb] += dt * scale
            if clock:
                trials, seconds = clock.read()
                mc_trials += trials
                mc_s += seconds * scale
            if problem is None:
                problem = self.check(k, op, out, compare_outputs)
                if tr and op.argv is not None:
                    tr.counts["cli.bytes_out"] += len(out[1].encode())
            if problem:
                self.failed += 1
                if len(self.failures) < 20:
                    args = " ".join(op.argv[1:])[:100] if op.argv else ""
                    self.failures.append(f"{op.verb} {args}: {problem}")
        return {"run_s": total, "wall_s": wall, "verbs": dict(verb_s),
                "mc_trials": mc_trials, "mc_s": mc_s}

    def check(self, k, op, out, compare_outputs) -> str | None:
        if op.argv is not None and out is not None:
            digest = report_digest(out[1])
            want = self.digests.get(argv_key(op.argv))
            if want is None:
                return "no recorded digest for this report"
            if digest != want:
                return "report bytes differ from the recorded digest"
            if compare_outputs and self.outputs.get(k) != digest:
                return "traced report differs from the untraced one"
            self.outputs.setdefault(k, digest)
        return op.check(out)


def run_for(runner: Runner, clock: McClock | None, seconds: float, tr=None,
            snapshots: list | None = None, **kw) -> list[dict]:
    """Passes until `seconds` have gone by, at least one."""
    passes = []
    end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < end:
        if tr:
            tr.reset()
        passes.append(runner.run_pass(clock, **kw))
        if tr:
            snapshots.append(tr.snapshot())
    return passes


def median_of(items, get) -> float:
    return statistics.median(get(x) for x in items)


def end_to_end(passes, runner, setup_s) -> dict:
    import workloads

    m = {
        "setup_s": setup_s,
        "run_s": median_of(passes, lambda p: p["run_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    for verb, name in workloads.VERB_METRICS.items():
        m[name] = median_of(passes, lambda p: p["verbs"].get(verb, 0.0))
    # a throughput over the whole run: one long capture-gate call per item
    # makes per-pass rates too coarse to take a median of
    mc_s = sum(p["mc_s"] for p in passes)
    m["mc_trials_per_s"] = sum(p["mc_trials"] for p in passes) / mc_s if mc_s else 0.0
    return m


def per_layer(untraced, traced, snaps) -> dict:
    first = snaps[0]
    counts, maxima = first["counts"], first["maxima"]

    def t(key):
        """Median over traced passes, calibrated with the pass's own scale."""
        return statistics.median(s["times"].get(key, 0) / 1e9 * p["run_s"] / p["wall_s"]
                                 for s, p in zip(snaps, traced))

    def c(key):
        return counts.get(key, 0)

    trials = c("sampling.trials")
    m = {
        "stepfn.tables_built": c("stepfn.tables_built"),
        "stepfn.cells_built": c("stepfn.cells_built"),
        "stepfn.max_table_cells": maxima.get("stepfn.max_table_cells", 0),
        "stepfn.apply_s": t("stepfn.apply"),
        "stepfn.from_char_s": t("stepfn.from_char"),
        "stepfn.l1_norm_calls": c("stepfn.l1_norm.calls"),
        "measure.build_s": t("measure.build"),
        "measure.verify_s": t("measure.verify"),
        "measure.measure_of_code_s": t("measure.measure_of_code"),
        "measure.assemble_s": t("measure.assemble"),
        "space.normalize_calls": c("space.normalize.calls"),
        "space.normalize_gens_in": c("space.normalize_gens_in"),
        "space.normalize_gens_out": c("space.normalize_gens_out"),
        "space.normalize_s": t("space.normalize"),
        "space.clopen_ops_s": t("space.clopen_ops"),
        "space.bits_read": c("space.bits_read"),
        "sampling.trials": trials,
        "sampling.captured": c("sampling.captured"),
        "sampling.mc_s": t("sampling.mc"),
        "sampling.bits_per_trial": c("sampling.bits") / trials if trials else 0.0,
        "names.terms_materialized": c("names.terms_materialized"),
        "names.bad_set_stages": c("names.bad_set.calls"),
        "names.bad_set_s": t("names.bad_set"),
        "names.value_at_calls": c("names.value_at.calls"),
        "names.value_at_s": t("names.value_at"),
        "names.equal_calls": c("names.equal.calls"),
        "gdelta.stage_calls": c("gdelta.stage_calls"),
        "gdelta.stage_s": t("gdelta.stage"),
        "gdelta.min_headroom_log2": tracer.headroom_log2(first["min_headroom"]),
        "codes.shape_s": t("codes.shape"),
        "codes.eval_s": t("codes.eval"),
        "codes.membership_table_cells": c("codes.membership_table_cells"),
        "decoration.decorate_s": t("decoration.decorate"),
        "decoration.check_s": t("decoration.check"),
        "decoration.points_checked": c("decoration.points_checked"),
        "dsl.parse_s": t("dsl.parse"),
        "dsl.parse_calls": c("dsl.parse.calls"),
        "cli.emit_s": t("cli.emit"),
        "cli.bytes_out": c("cli.bytes_out"),
    }
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = t(f"{layer}.self")
    m["trace.overhead_frac"] = (median_of(traced, lambda p: p["run_s"])
                                / median_of(untraced, lambda p: p["run_s"]) - 1)
    return m


# ---------------------------------------------------------------------------
# provenance

def provenance(args, runner, passes) -> dict:
    head = None
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(git, ref[5:])) as fh:
                ref = fh.read().strip()
        head = ref
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "cantor_measure")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": head,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "ops_per_pass": len(runner.ops),
        "ops_by_verb": dict(Counter(op.verb for op in runner.ops)),
        "passes": len(passes),
        "attempted": runner.attempted,
        "failed": runner.failed,
    }


# ---------------------------------------------------------------------------

def run_workload(args) -> dict:
    package = load_package()
    import workloads

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {names}")
    ops = workloads.WORKLOADS[args.workload].ops(args.seed, smoke=args.smoke)
    runner = Runner(ops, load_digests())
    setup_s, setup_wall_s = measure_setup(1 if args.smoke else SETUP_RUNS)
    clock = McClock(package)
    seconds = 0 if args.smoke else args.seconds
    record = {}
    if not args.trace:
        passes = run_for(runner, clock, seconds)
        metrics = end_to_end(passes, runner, setup_s)
        wanted = spec["end_to_end"]
    else:
        untraced = run_for(runner, clock, seconds / 2)
        clock.uninstall()
        tr = tracer.Tracer(package.__name__)
        tr.install()
        runner.tracer = tr
        snaps = []
        traced = run_for(runner, None, seconds / 2, tr=tr, snapshots=snaps, compare_outputs=True)
        tr.uninstall()
        passes = untraced + traced
        if any(s["counts"] != snaps[0]["counts"] for s in snaps):
            runner.failed += 1
            runner.failures.append("traced passes disagree on their counts")
        metrics = per_layer(untraced, traced, snaps)
        wanted = spec["per_layer"]
        record["spans_file"] = write_spans(args, tr)
    units = {m["name"]: m["unit"] for m in wanted}
    missing = set(units) ^ set(metrics)
    if missing:
        sys.exit(f"perfbench: metrics and BENCHMARK.json disagree on {sorted(missing)}")
    out = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update(provenance=provenance(args, runner, passes), result=out, failures=runner.failures,
                  passes=passes, setup_wall_s=setup_wall_s, cal_ref_s=CAL_REF_S,
                  wall_median_run_s=median_of(passes, lambda p: p["wall_s"]))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return out


def write_spans(args, tr) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json.gz")
    with gzip.open(path, "wt") as fh:
        json.dump(tr.spans(), fh)
    return os.path.relpath(path, ROOT)


def run_all(args) -> int:
    """Each workload in its own fresh process; a table, then one JSON line
    with every metric prefixed by its workload."""
    spec = load_spec()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        res = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            print(f"{w['name']:<14} {name:<28} {m['value']:>14.6g} {m['unit']}")
            merged["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cantor-measure benchmark")
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny corpus, one pass")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    out = run_workload(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
