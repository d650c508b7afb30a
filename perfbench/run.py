"""augsill benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 35 --trace 0

Workloads (perfbench/workloads.py holds the exact command lines):

- ``grid``: ``compare`` over vanderpol and toggleswitch, all five families,
  N=20, 200 epochs, one seed, 2 workers (12 cells). The ROADMAP headline: it
  does most of the SGD work, re-simulates the RK4 ensembles per cell and is
  the only workload with parallel cells.
- ``pursuit``: per system, ``simulate`` training and holdout data, ``fit``
  by matching pursuit (N=15, 486 candidates) and by least squares (N=20),
  and ``evaluate`` both. Per-candidate least squares and the CSV round trip;
  no SGD, so it is the bypass for every training change.
- ``theory``: ``closure`` and ``expectation`` at their defaults. Few
  logistic calls on large arrays, Halton sampling and scalar quadrature; no
  trainer, solver or systems work. ``closure`` keeps its default seed 0,
  the configuration criterion 4 gates (see workloads.py).

The loop is closed with one client: each command starts when the previous
one returns. Each pass of a workload runs in a fresh interpreter; passes
repeat while another one fits in ``--seconds`` (at least one runs). BLAS is
pinned to one thread so that grid's 2 workers stay within 2 cores.
``--seed`` feeds every ``--seed``/``--seeds`` of the commands but closure's
(default 0).

With ``--trace 0`` the result holds the end-to-end metrics, medians over the
passes: ``wall_s`` and ``cpu_s`` of the commands (CPU includes the reaped
pool workers), ``peak_rss_mb`` and ``setup_s`` (interpreter start to augsill
imported and inputs laid out; at least eleven samples, from the passes and
from set-up-only interpreters).

Two more end-to-end figures are printed on their own lines but are not
result metrics. ``error_rate`` is ``failed/attempted`` over every command
run, carried by the result's ``attempted`` and ``failed``; it is 0 on a
healthy tree. ``holdout_err`` (see workloads.py) is deterministic for a
seed but moves by up to 3x from seed to seed, so no bound on its spread
across seeds would hold; the traced run reports it as
``quality.holdout_err``. An operation fails when its command exits non-zero
or raises, when its check fails, or when one of its CSV artifacts differs
from the first run of the same source tree with the same workload and seed.

With ``--trace 1`` traced and untraced passes alternate for ``--seconds``
(at least one traced pass between two untraced ones). The result holds the
per-layer metrics (perfbench/tracing.py), medians over the traced passes,
plus ``cli.pool_utilization`` (``cpu_s`` over workers x ``wall_s``) from the
untraced passes and the tracing overhead, median traced minus median
untraced ``wall_s``. Every pass runs the workload as it is measured, grid
with its 2 workers; the workers' spans are merged into their pass's.

The last line of stdout is the JSON result; the lines before it give each
metric with its sample count and the environment. Pass directories, logs,
spans and the determinism record go under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PKG = os.path.join(ROOT, "src", "augsill")
RUNS = os.path.join(ROOT, ".perfbench_runs")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = "1"
SETUP_SAMPLES = 11
# A run must end within 180 s; leave room to stop and report.
RUN_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchmarkError(Exception):
    pass


def _source_hash():
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PKG)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(SRC_PKG, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts child interpreters for one benchmark run and collects results."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.dir = os.path.join(RUNS, f"{workload}-seed{seed}-pid{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        self.count = 0

    def child(self, workers, trace=False, setup_only=False):
        """Run child.py once; returns its result with setup_s and duration added."""
        self.count += 1
        tag = f"{self.count:02d}"
        result_path = os.path.join(self.dir, f"result{tag}.json")
        pass_dir = os.path.join(self.dir, f"pass{tag}")
        cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workers", str(workers), "--dir", pass_dir, "--result", result_path]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        with open(os.path.join(self.dir, f"log{tag}.txt"), "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - t0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise BenchmarkError(f"pass {tag} ran past the {RUN_LIMIT_S:.0f} s limit")
            finally:
                try:  # workers left behind by a crashed pass
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            duration = time.perf_counter() - t0
        if code != 0:
            raise BenchmarkError(f"pass {tag} exited with code {code}; see {log.name}")
        with open(result_path) as fh:
            result = json.load(fh)
        if not trace and all(op["error"] is None for op in result.get("operations", ())):
            shutil.rmtree(pass_dir)  # keep spans and the outputs of failed commands only
        result["setup_s"] = result["ready"] - t0
        result["duration_s"] = duration
        return result


def _failures(passes, record_path, key):
    """Count failed operations; fold CSV mismatches against the first run in."""
    try:
        with open(record_path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {}
    first = passes[0]["operations"]
    if key not in record and all(op["error"] is None for op in first):
        record[key] = {op["name"]: op["csv"] for op in first}
    reference = record.get(key)
    failed, messages = 0, []
    for i, p in enumerate(passes):
        for op in p["operations"]:
            error = op["error"]
            if error is None and reference is not None and op["csv"] != reference.get(op["name"]):
                error = "CSV artifacts differ from the first run of this source tree"
            if error is not None:
                failed += 1
                messages.append(f"pass {i + 1} {op['name']}: {error}")
    tmp = record_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    os.replace(tmp, record_path)
    return failed, messages


def measure(runner, workers, seconds):
    """Untraced passes for ``seconds``, then set-up-only samples up to SETUP_SAMPLES."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.child(workers))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["duration_s"] > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child(workers, setup_only=True)["setup_s"])
    metrics = {name: statistics.median(p[name] for p in passes)
               for name, _ in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setups)
    samples = {name: len(passes) for name, _ in END_TO_END}
    samples["setup_s"] = len(setups)
    return passes, metrics, samples


def trace(runner, workers, seconds):
    """Untraced and traced passes in turn, all as the workload runs.

    The passes go untraced, traced, untraced, ... and end untraced, while
    another traced and untraced pair fits in ``seconds`` (at least one pair
    runs). Every traced pass has an untraced one either side, which cancels a
    machine that speeds up or slows down steadily; each layer metric is the
    median over the traced passes (``median_low``, so counts stay whole).
    """
    start = time.perf_counter()
    plain, traced = [runner.child(workers)], []
    while True:
        traced.append(runner.child(workers, trace=True))
        plain.append(runner.child(workers))
        elapsed = time.perf_counter() - start
        if elapsed + traced[-1]["duration_s"] + plain[-1]["duration_s"] > seconds:
            break
    layers = {name: statistics.median_low(t["layers"][name] for t in traced)
              for name in traced[0]["layers"]}
    layers["cli.pool_utilization"] = statistics.median(
        p["cpu_s"] / (workers * p["wall_s"]) for p in plain)
    layers["setup.import_s"] = statistics.median(p["import_s"] for p in plain + traced)
    layers["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    holdout = [p["holdout_err"] for p in plain + traced if p["holdout_err"] is not None]
    # Deterministic for a seed; 0 only when no pass got that far, which the
    # failed operations already report.
    layers["quality.holdout_err"] = holdout[0] if holdout else 0.0
    return plain + traced, layers, len(traced)


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_utilization", "_err")):
        return "1"
    return "bytes" if name.endswith("_bytes") else "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed fed to every --seed/--seeds but closure's (default 0)")
    p.add_argument("--seconds", type=int, default=35,
                   help="measure for this long; at least one pass runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC_PKG, "cli.py")):
        print(f"error: no augsill sources under {SRC_PKG}", file=sys.stderr)
        return 2

    workers = WORKLOADS[args.workload][2]
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            passes, metrics, n_traced = trace(runner, workers, args.seconds)
        else:
            passes, metrics, samples = measure(runner, workers, args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    source = _source_hash()
    failed, messages = _failures(passes, os.path.join(RUNS, "csv_hashes.json"),
                                 f"{source}/{args.workload}/seed{args.seed}")
    attempted = sum(len(p["operations"]) for p in passes)
    environment = dict(passes[0]["environment"], nproc=os.cpu_count(),
                       blas_threads=int(BLAS_THREADS), git_commit=_git_commit(),
                       source_sha256=source, seed=args.seed, workers=workers)

    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    for m in messages:
        print(f"failed: {m}")
    print(f"{args.workload} error_rate: {failed / attempted:.6g} ({failed}/{attempted} operations)")
    if args.trace:
        print(f"{args.workload} {n_traced} traced pass(es) ran with {workers} worker(s), "
              f"the untraced configuration; tracing overhead "
              f"{metrics['trace.overhead_s']:.3f} s")
        units = {name: _layer_unit(name) for name in metrics}
        for name in sorted(metrics):
            print(f"{args.workload} {name}: {metrics[name]!r} {units[name]}")
    else:
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"{args.workload} {name}: median {metrics[name]!r} {unit} "
                  f"(n={samples[name]})")
        holdout = [p["holdout_err"] for p in passes if p["holdout_err"] is not None]
        if holdout:
            print(f"{args.workload} holdout_err: median {statistics.median(holdout)!r} "
                  f"(n={len(holdout)}; deterministic per seed, not a bounded metric)")

    with open(os.path.join(runner.dir, "summary.json"), "w") as fh:
        json.dump({"environment": environment, "metrics": metrics, "passes": passes,
                   "attempted": attempted, "failed": failed, "failures": messages},
                  fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
