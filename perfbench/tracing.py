"""Span tracing of augsill's public functions, from outside the package.

``Tracer.install`` wraps every public module-level function of each layer
module (and ``scipy.integrate.quad`` as the expectation module calls it) and
points every reference inside the ``augsill`` modules at the wrapper. A span
is (name, start, end, parent, depth); spans live in flat arrays in memory and
are written out once, by ``write``. Work counts are taken at the same
boundaries, from the arguments and results of the wrapped calls.

Pool workers forked while tracing (``compare --workers 2``) inherit the
wrappers. Each writes the spans it adds to the spool directory when it exits,
and ``merge_workers`` appends them to the parent's spans: a worker's
outermost spans become children of the span that was open when it forked.
The clock is the system-wide monotonic clock, so the processes' times agree.

``layer_metrics`` reduces the spans to the benchmark's per-layer metrics.
A layer's self time is the time its spans cover minus the time covered by
their child spans, so every traced second lands in exactly one layer. Group
times (``dictionaries.lift_s`` and the like) count only the outermost span of
the group, so nested calls such as ``lift`` -> ``lift_many`` count once.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import math
import os
import sys
import time
from array import array
from collections import defaultdict
from multiprocessing import util as mp_util

import numpy as np

_FIELDS = ("name_id", "parent", "depth", "start", "end")
_DTYPES = (np.int32, np.int32, np.int32, np.float64, np.float64)
LAYERS = ("dictionaries", "systems", "solver", "trainer", "closure", "expectation", "cli")

# metric -> functions whose outermost spans it times (inclusive); the matching
# ``*_calls``/``ensembles``/... count metrics below count the same spans.
GROUP_TIMES = {
    "dictionaries.logistic_s": ("dictionaries.stable_logistic", "dictionaries.stable_rbf"),
    "dictionaries.member_eval_s": ("dictionaries.member_values_packed",
                                   "dictionaries.member_sensitivities_packed"),
    "dictionaries.lift_s": ("dictionaries.lift_many", "dictionaries.lift"),
    "systems.rk4_s": ("systems.simulate_ensemble", "systems.integrate"),
    "systems.csv_write_s": ("systems.write_ensemble", "systems.trajectory_to_csv"),
    "systems.csv_read_s": ("systems.read_ensemble", "systems.trajectory_from_csv"),
    "solver.fit_k_s": ("solver.fit_k",),
    "solver.n_step_error_s": ("solver.n_step_error",),
    "solver.dmd_s": ("solver.dmd_baseline",),
    "closure.sweep_s": ("closure.sweep_config",),
    "closure.bound_check_s": ("closure.expectation_bound_check",),
    "closure.explosion_s": ("closure.polynomial_explosion_demo", "closure.explosion_growth"),
    "expectation.quad_s": ("expectation.quad",),
    "expectation.mc_s": ("expectation.monte_carlo_expectation",),
}
GROUP_CALLS = {
    "dictionaries.logistic_calls": "dictionaries.logistic_s",
    "dictionaries.member_eval_calls": "dictionaries.member_eval_s",
    "dictionaries.lift_calls": "dictionaries.lift_s",
    "systems.ensembles": ("systems.simulate_ensemble",),
    "solver.fit_k_calls": "solver.fit_k_s",
    "closure.sweeps": "closure.sweep_s",
    "expectation.quad_calls": "expectation.quad_s",
    "cli.commands": ("cli.main",),
}
# metric -> function whose own spans' self time it sums
SELF_TIMES = {
    "trainer.sgd_self_s": "trainer.sgd_fit",
    "trainer.pursuit_self_s": "trainer.matching_pursuit_fit",
}
COUNTS = (
    "dictionaries.logistic_elems", "dictionaries.member_eval_rows",
    "systems.rk4_substeps", "systems.csv_bytes",
    "trainer.sgd_epochs", "trainer.sgd_minibatches",
    "trainer.pursuit_rounds", "trainer.pursuit_candidates_scored",
    "closure.points_evaluated",
)


# -- work counters: (counts, args, kwargs, result) -> None -------------------------------


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return arguments


def _counters():
    from augsill import closure, dictionaries, systems, trainer

    def logistic(c, args, kwargs, result):
        c["dictionaries.logistic_elems"] += np.size(result)

    def member_eval(c, args, kwargs, result):
        c["dictionaries.member_eval_rows"] += len(args[4] if len(args) > 4 else kwargs["Y"])

    def substeps(dt, max_substep):
        # Same substep rule as systems' RK4 integrator: the fewest substeps <= max_substep.
        return max(1, math.ceil(dt / max_substep - 1e-12))

    ens_args = _bound(systems.simulate_ensemble)

    def ensemble(c, args, kwargs, result):
        a = ens_args(args, kwargs)
        c["systems.rk4_substeps"] += (a["n_trajectories"] * a["steps"]
                                      * substeps(a["dt"], a["max_substep"]))

    int_args = _bound(systems.integrate)

    def integrate(c, args, kwargs, result):
        a = int_args(args, kwargs)
        c["systems.rk4_substeps"] += a["steps"] * substeps(a["dt"], a["max_substep"])

    def csv_file(path_index):
        def count(c, args, kwargs, result):
            path = args[path_index] if len(args) > path_index else kwargs["path"]
            c["systems.csv_bytes"] += os.path.getsize(path)
        return count

    sgd_args = _bound(trainer.sgd_fit)

    def sgd(c, args, kwargs, result):
        a = sgd_args(args, kwargs)
        cfg = a["cfg"] if a["cfg"] is not None else trainer.TrainConfig()
        if dictionaries.Family(a["family"]) in dictionaries.TRAINABLE_FAMILIES or cfg.descend_k:
            c["trainer.sgd_epochs"] += cfg.epochs
            c["trainer.sgd_minibatches"] += cfg.epochs * math.ceil(
                a["dataset"].n_rows / cfg.batch_size)

    mp_args = _bound(trainer.matching_pursuit_fit)

    def pursuit(c, args, kwargs, result):
        a = mp_args(args, kwargs)
        n, size = a["n_members"], a["pool"].size
        c["trainer.pursuit_rounds"] += n
        # Round r scores every candidate not yet chosen: size - r of them.
        c["trainer.pursuit_candidates_scored"] += n * size - n * (n - 1) // 2

    def sweep(c, args, kwargs, result):
        c["closure.points_evaluated"] += result.n_points * len(result.alpha_scales)

    return {
        "dictionaries.stable_logistic": logistic,
        "dictionaries.member_values_packed": member_eval,
        "dictionaries.member_sensitivities_packed": member_eval,
        "systems.simulate_ensemble": ensemble,
        "systems.integrate": integrate,
        "systems.trajectory_to_csv": csv_file(1),
        "systems.trajectory_from_csv": csv_file(0),
        "trainer.sgd_fit": sgd,
        "trainer.matching_pursuit_fit": pursuit,
        "closure.sweep_config": sweep,
    }


class Tracer:
    """Collects spans of wrapped calls in memory, one thread per process."""

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.depth = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._frozen = None
        self._fork_base = None
        self._fork_counts = None
        self._workers = []  # (name_id, parent, depth, start, end) per worker

    def wrap(self, name, fn, counter=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, depth = self.name_id, self.parent, self.depth
        start, end, stack, counts = self.start, self.end, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            depth.append(len(stack) - 1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of every layer module in place."""
        import augsill.cli  # noqa: F401  (loads every layer module)

        counters = _counters()
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"augsill.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, counters.get(name))
        quad = importlib.import_module("augsill.expectation").quad
        wrapped[id(quad)] = self.wrap("expectation.quad", quad)
        for modname, mod in list(sys.modules.items()):
            if modname != "augsill" and not modname.startswith("augsill."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    # Dispatch tables built at import, such as expectation's
                    # scalar forms, hold the functions themselves.
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]
        mp_util.register_after_fork(self, Tracer._forked)

    def _forked(self):
        # Runs in a freshly forked multiprocessing child: keep what this
        # process adds and write it out when the process exits.
        self._fork_base = len(self.start)
        self._fork_counts = dict(self.counts)
        mp_util.Finalize(None, self._write_worker, exitpriority=100)

    def _write_worker(self):
        base = self._fork_base
        counts = {k: v - self._fork_counts.get(k, 0) for k, v in self.counts.items()}
        np.savez(os.path.join(self.spool_dir, f"worker-{os.getpid()}.npz"),
                 base=base, counts=json.dumps(counts),
                 **{k: v[base:] for k, v in zip(_FIELDS, self._local_arrays(len(self.start)))})

    def merge_workers(self):
        """Append the spans that exited pool workers wrote; returns how many workers."""
        offset = self._frozen
        paths = sorted(glob.glob(os.path.join(self.spool_dir, "worker-*.npz")))
        for path in paths:
            with np.load(path) as data:
                base = int(data["base"])
                parent = data["parent"]
                # Parents at or past the fork point are the worker's own spans.
                parent = np.where(parent >= base, parent - base + offset, parent)
                fields = dict(data.items(), parent=parent.astype(np.int32))
                for k, v in json.loads(str(data["counts"])).items():
                    self.counts[k] += v
            self._workers.append(tuple(fields[k] for k in _FIELDS))
            offset += len(fields["start"])
            os.remove(path)
        return len(paths)

    def freeze(self):
        """End the traced region; later spans are ignored by the metrics."""
        self._frozen = len(self.start)

    def _local_arrays(self, n):
        # Copies: a live view would stop the span buffers from growing.
        return tuple(np.frombuffer(getattr(self, field), dtype=dtype)[:n].copy()
                     for field, dtype in zip(_FIELDS, _DTYPES))

    def arrays(self):
        """(name_id, parent, depth, start, end): this process's spans, then workers'."""
        parts = [self._local_arrays(self._frozen)] + self._workers
        return tuple(np.concatenate(col) for col in zip(*parts))

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            **dict(zip(_FIELDS, self.arrays())))

    def _self_times(self, parent, start, end):
        """Duration minus the part of it that child spans cover."""
        dur = end - start
        n_local = self._frozen
        idx = np.arange(len(dur))
        # Children in the parent's own process run one at a time: sum them.
        same = (parent >= 0) & ((idx < n_local) | (parent >= n_local))
        covered = np.bincount(parent[same], weights=dur[same], minlength=len(dur))
        # Worker roots under a parent-process span overlap: take their union.
        cross = np.flatnonzero((idx >= n_local) & (parent >= 0) & (parent < n_local))
        for p in np.unique(parent[cross]):
            kids = cross[parent[cross] == p]
            order = np.argsort(start[kids])
            reach = start[p]
            for lo, hi in zip(start[kids][order], end[kids][order]):
                lo, hi = max(lo, reach), min(hi, end[p])
                if hi > lo:
                    covered[p] += hi - lo
                    reach = hi
        return dur - covered

    def layer_metrics(self):
        """Per-layer metrics from the spans and counts of the traced region."""
        name_id, parent, depth, start, end = self.arrays()
        dur = end - start
        self_time = self._self_times(parent, start, end)
        ids = {name: i for i, name in enumerate(self.names)}

        def member(names):
            wanted = np.array([ids[n] for n in names if n in ids], dtype=np.int32)
            return np.isin(name_id, wanted)

        def outermost(mask):
            # A span is outermost in its group when no ancestor is in the group.
            covered = np.zeros(len(mask), dtype=bool)
            for d in range(1, int(depth.max(initial=0)) + 1):
                at = depth == d
                p = parent[at]
                covered[at] = mask[p] | covered[p]
            return mask & ~covered

        out = {}
        groups = {}
        for metric, names in GROUP_TIMES.items():
            groups[metric] = outermost(member(names))
            out[metric] = float(dur[groups[metric]].sum())
        for metric, source in GROUP_CALLS.items():
            mask = groups[source] if isinstance(source, str) else member(source)
            out[metric] = int(mask.sum())
        for metric, name in SELF_TIMES.items():
            out[metric] = float(self_time[member([name])].sum())
        for metric in COUNTS:
            out[metric] = int(self.counts[metric])
        scored = out["trainer.pursuit_candidates_scored"]
        out["trainer.pursuit_useful_ratio"] = (
            out["trainer.pursuit_rounds"] / scored if scored else 0.0)
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = float(self_time[member(
                [n for n in self.names if n.startswith(prefix)])].sum())
        out["trace.spans"] = int(len(dur))
        return out
