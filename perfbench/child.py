"""One pass of one workload, in a fresh interpreter started by run.py.

Imports augsill from the checkout's ``src``, lays out the pass directory,
then runs the workload's commands one after another through
``augsill.cli.main``. Timing and resource use cover the commands only; the
checks, artifact hashes and quality figure are computed afterwards. The
result goes to a JSON file, because the commands themselves print to stdout.

``--setup-only`` stops once the inputs are ready, which is how run.py takes
extra set-up samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _cpu_seconds():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _csv_hashes(out):
    hashes = {}
    for dirpath, _, names in os.walk(out):
        for name in sorted(names):
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    hashes[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    t_import = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import augsill.cli

    if os.path.dirname(os.path.abspath(augsill.__file__)) != os.path.join(SRC, "augsill"):
        sys.exit(f"augsill imported from {augsill.__file__}, not from {SRC}")
    import_s = time.perf_counter() - t_import
    from workloads import WORKLOADS

    operations, quality, _ = WORKLOADS[args.workload]
    shutil.rmtree(args.dir, ignore_errors=True)
    os.makedirs(args.dir)
    ops = operations(args.seed, args.dir, args.workers)
    ready = time.perf_counter()

    result = {"ready": ready, "import_s": import_s}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(spool_dir=args.dir)
        tracer.install()

    codes = []
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    for op in ops:
        try:
            codes.append(augsill.cli.main(op.argv))
        except Exception:  # a raised command is a failed operation, not a crash
            codes.append(traceback.format_exc(limit=3))
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.freeze()
        if args.workers > 1 and tracer.merge_workers() != args.workers:
            sys.exit("traced pool workers did not all write their spans; "
                     "tracing them needs the fork start method")

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Largest reaped worker times the pool size: an upper bound on the
    # workers' simultaneous footprint (pages shared after fork count twice).
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_mb = (self_kb + (args.workers * worker_kb if args.workers > 1 else 0)) / 1024.0

    op_results = []
    for op, code in zip(ops, codes):
        error = None
        if code != 0:
            error = f"exit code {code}" if isinstance(code, int) else code
        else:
            try:
                op.check(op.out)
            except Exception as exc:  # any failing check is a failed operation
                error = f"check failed: {exc!r}"
        op_results.append({"name": op.name, "error": error,
                           "csv": _csv_hashes(op.out)})

    holdout = None
    if all(r["error"] is None for r in op_results):
        holdout = quality(args.dir)

    result.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_mb,
        "holdout_err": holdout,
        "operations": op_results,
        "environment": _environment(),
    })
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(os.path.join(args.dir, "spans.npz"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
