"""Command-line front end: simulate, fit, evaluate, closure, expectation, compare.

Every subcommand is seeded explicitly and writes CSV artifacts plus an
effective_config.ini echo of the options it actually ran with, so a rerun
with the same flags reproduces every output byte for byte. Options can come
from an INI config file (section per subcommand) with command-line flags
taking precedence. Exit codes: 0 success, 1 usage, 2 data or domain error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import functools
import glob
import os
import sys
import warnings
from concurrent.futures import Future, ProcessPoolExecutor

import numpy
import scipy

from .closure import (
    DEFAULT_ALPHA_SCALES,
    THEOREM_NAMES,
    expectation_bound_check,
    explosion_growth,
    polynomial_explosion_demo,
    theorem_suite,
    write_closure_csv,
    write_rate_csv,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    nonnegative_float,
    positive_float,
    positive_int,
    read_text,
)
from .expectation import expectation_table, write_expectation_csv
from .dictionaries import POLYNOMIAL_FAMILIES, TRAINABLE_FAMILIES, Family, Kind
from .solver import (
    dmd_baseline,
    fit_k,
    frobenius_residual,
    load_model,
    n_step_error,
    save_model,
)
from .systems import (
    Mode,
    SystemId,
    SystemSpec,
    build_snapshot_dataset,
    read_ensemble,
    simulate_ensemble,
    simulate_ensembles,
    write_csv,
    write_ensemble,
)
from .trainer import PursuitPool, initial_dictionary, matching_pursuit_fit, varpro_fit

_FAMILY_NAMES = tuple(f.value for f in Family)
# Candidate kinds matching pursuit draws from, per dictionary family.
_PURSUIT_KINDS = {
    Family.SILL: (Kind.LOGISTIC,),
    Family.AUGSILL: (Kind.LOGISTIC, Kind.RBF),
}
# Families each fit method can train; lstsq fits every family.
_METHOD_FAMILIES = {"varpro": TRAINABLE_FAMILIES, "pursuit": tuple(_PURSUIT_KINDS)}
_SYSTEM_NAMES = tuple(s.value for s in SystemId)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError (exit 1) where argparse would exit 2.

    argparse only splits argv: the namespace holds the text of just the dests
    argv sets. _resolve parses that text, and a config key's, with .options,
    dest -> (flag, parse, built-in default, required); parse checks choices.
    """

    def __init__(self, **kwargs):
        self.options = {}
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def add_argument(self, *args, parse=str, choices=None, default=None, required=False, **kwargs):
        if choices is not None:
            kwargs["metavar"] = "{" + ",".join(choices) + "}"
            parse = functools.partial(_choice, choices)
        action = super().add_argument(*args, **kwargs)
        if default is not argparse.SUPPRESS:  # --help sets no dest
            self.options[action.dest] = (action.option_strings[0], parse, default, required)
        return action

    def error(self, message):
        raise UsageError(message)


# -- small value parsers ------------------------------------------------------------


def _seed(text):
    value = int(text)
    if value < 0:
        raise ValueError(f"seed {text!r} is negative")
    return value


def _choice(choices, text):
    if text not in choices:
        raise ValueError(f"{text!r} is not one of {', '.join(choices)}")
    return text


def _boolean(text):
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"{text!r} is not a boolean")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _list_of(parse, names=None):
    """Parse function of a comma-separated list of parse() values, one at
    least and none twice; with names given, of names from it or 'all' alone."""

    def parse_list(text):
        items = tuple(parse(v.strip()) for v in text.split(",") if v.strip())
        if not items:
            raise ValueError(f"{text!r} lists no values")
        repeats = [v for i, v in enumerate(items) if v in items[:i]]
        if repeats:
            raise ValueError(f"{text!r} lists {repeats[0]!r} twice")
        if names is not None and items != ("all",) and not set(items) <= set(names):
            raise ValueError(f"{text!r} is not all or a list from {', '.join(names)}")
        return items

    return parse_list


def _fmt_value(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ",".join(_fmt_value(x) for x in v)
    return str(v)


def _emit_config(args, unused=()):
    """Write the effective option set beside the command's outputs, leaving
    out the dests in unused (options the run did not read)."""
    os.makedirs(args.out, exist_ok=True)
    cp = configparser.ConfigParser()
    skip = {"func", "config", "command", *unused}
    cp[args.command] = {  # % doubled: _read_config reads it back interpolated
        k: _fmt_value(v).replace("%", "%%")
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }
    with open(os.path.join(args.out, "effective_config.ini"), "w") as fh:
        cp.write(fh)


def _r(x):
    return repr(float(x))


# -- subcommand handlers --------------------------------------------------------------


def _cmd_simulate(args):
    spec = SystemSpec(SystemId(args.system))
    trajs = simulate_ensemble(
        spec, args.n_traj, args.dt, args.steps, args.seed
    )
    _emit_config(args)
    paths = write_ensemble(trajs, args.out, args.seed, args.derivatives)
    print(f"simulate: wrote {len(paths)} trajectories to {args.out}")
    return 0


def _cmd_fit(args):
    family = Family(args.family)
    allowed = _METHOD_FAMILIES.get(args.method)
    if allowed is not None and family not in allowed:
        names = [f.value for f in allowed]
        raise UsageError(
            f"--method {args.method} needs --family {', '.join(names[:-1])} or "
            f"{names[-1]}, not {family.value}"
        )
    trajs = read_ensemble(args.data)
    dataset = build_snapshot_dataset(trajs, Mode(args.mode))
    _emit_config(args, _foreign_fit_options(args.method))
    log_path = os.path.join(args.out, "training_log.csv")
    model_path = os.path.join(args.out, "model.ini")

    if args.method == "lstsq":
        d = initial_dictionary(dataset, family, args.n_members, args.seed)
        model = fit_k(dataset, d, args.ridge)
        loss = frobenius_residual(model, dataset) / dataset.n_rows
        write_csv(log_path, ["epoch", "loss", "five_step_error"],
                  [["0", _r(loss), _r(n_step_error(model, trajs, 5))]])
    elif args.method == "varpro":
        model, losses = varpro_fit(dataset, family, args.n_members, args.epochs,
                                   args.seed, args.ridge)
        # Row i holds the loss after L-BFGS iteration i, and the last row
        # also scores the returned model. A run that stops before its first
        # iteration returns the starting dictionary: one row 0, loss empty.
        rows = [[str(i), _r(v), ""] for i, v in enumerate(losses, 1)] or [["0", "", ""]]
        rows[-1][2] = _r(n_step_error(model, trajs, 5))
        write_csv(log_path, ["epoch", "loss", "five_step_error"], rows)
    else:  # pursuit
        pool = PursuitPool.for_data(
            dataset.inputs, args.pool_points, args.pool_steepness, _PURSUIT_KINDS[family]
        )
        model, trace = matching_pursuit_fit(dataset, pool, args.n_members, args.ridge)
        write_csv(log_path, ["step", "objective"],
                  [[str(i), _r(v)] for i, v in enumerate(trace)])

    save_model(model, model_path)
    print(f"fit: wrote {model_path} and {log_path}")
    return 0


def _cmd_evaluate(args):
    model = load_model(args.model)
    trajs = read_ensemble(args.data)
    err = n_step_error(model, trajs, args.n_steps)
    _emit_config(args)
    report = os.path.join(args.out, "report.csv")
    write_csv(
        report,
        ["system", "dictionary", "N", "n_steps", "error", "seed"],
        [[
            trajs[0].system.id.value,
            model.dictionary.family.value,
            str(model.dictionary.n_members),
            str(args.n_steps),
            _r(err),
            str(trajs[0].seed_provenance),
        ]],
    )
    print(f"evaluate: {args.n_steps}-step error {err:.6e} -> {report}")
    return 0


def _cmd_closure(args):
    theorems = THEOREM_NAMES if args.theorems == ("all",) else args.theorems
    _emit_config(args)
    reports = theorem_suite(
        theorems,
        n_configs=args.configs,
        alpha_scales=args.alpha_scales,
        seed=args.seed,
        n_points=args.points,
        gap=args.gap,
    )
    write_closure_csv(reports, os.path.join(args.out, "closure_report.csv"))
    write_rate_csv(reports, os.path.join(args.out, "rate_fits.csv"))

    exp_rows, rate_rows = [], []
    for degree in args.degrees:
        rows = polynomial_explosion_demo(degree, args.explosion_y)
        exp_rows += [[str(degree), _r(r.y), _r(r.residual_at_y), _r(r.residual_sup)]
                     for r in rows]
        fit = explosion_growth(rows)
        rate_rows.append([str(degree), _r(fit.slope), _r(fit.r_squared)])
    write_csv(os.path.join(args.out, "explosion.csv"),
              ["degree", "y", "residual_at_y", "residual_sup"], exp_rows)
    write_csv(os.path.join(args.out, "explosion_rates.csv"),
              ["degree", "exponent", "r_squared"], rate_rows)

    bc_rows = []
    for m in (1, 2, 3):
        c = expectation_bound_check(m, args.mc_samples, args.mc_seed)
        bc_rows.append([
            str(m),
            _r(c.mean_logistic_product), _r(c.bound_logistic),
            _r(c.mean_rbf_product), _r(c.bound_rbf),
            _r(c.mean_limit_product), _r(c.bound_limit),
            str(c.all_within).lower(),
        ])
    write_csv(
        os.path.join(args.out, "bound_check.csv"),
        ["m", "mean_logistic", "bound_logistic", "mean_rbf", "bound_rbf",
         "mean_limit", "bound_limit", "within"],
        bc_rows,
    )
    print(f"closure: wrote {len(reports)} sweep configs to {args.out}")
    return 0


def _cmd_expectation(args):
    _emit_config(args)
    rows = expectation_table(args.a_values, args.mc_samples, args.seed)
    path = os.path.join(args.out, "expectation.csv")
    write_expectation_csv(rows, path)
    print(f"expectation: wrote {len(rows)} rows to {path}")
    return 0


def _compare_cell(max_iter, n_steps, cell):
    """One grid cell: fit on the training pairs, score on the holdout
    trajectories. Shaped families train by variable projection, at most
    max_iter L-BFGS iterations from the cell's seed. Pure and picklable."""
    system, family, n_members, seed, dataset, holdout = cell
    if family == "dmd":
        model = dmd_baseline(dataset)
    elif Family(family) in POLYNOMIAL_FAMILIES:
        model = fit_k(dataset, initial_dictionary(dataset, family, n_members))
    else:
        model, _ = varpro_fit(dataset, family, n_members, max_iter, seed=seed)
    err = n_step_error(model, holdout, n_steps)
    return [system, family, str(n_members), str(n_steps), _r(err), str(seed)]


# Thread-count setters of the OpenBLAS builds bundled with numpy and scipy
# wheels (plain, scipy-prefixed, and scipy-prefixed 64-bit-integer builds).
_BLAS_THREAD_SETTERS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _one_blas_thread():
    """Pool-worker initializer: run the bundled OpenBLAS on one thread.

    Forked workers inherit the parent's BLAS thread count, so with as many
    workers as cores every worker's idle BLAS threads spin against the other
    workers; that doubled the wall time of the 2-worker comparison grid on 2
    cores. The grid's matrices (at most 2000 x 23) gain nothing from BLAS
    threads, and results are identical either way. A BLAS found elsewhere is
    left as it is.
    """
    for pkg in (numpy, scipy):
        site = os.path.dirname(os.path.dirname(pkg.__file__))
        for path in glob.glob(os.path.join(site, pkg.__name__ + ".libs", "*openblas*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for name in _BLAS_THREAD_SETTERS:
                setter = getattr(lib, name, None)
                if setter is not None:
                    setter(1)


def _run_now(fn, *args):
    """A finished Future holding fn(*args): ProcessPoolExecutor.submit for a
    single worker, which is the calling process."""
    future = Future()
    future.set_result(fn(*args))
    return future


def _cmd_compare(args):
    systems = _SYSTEM_NAMES if args.systems == ("all",) else args.systems
    families = _FAMILY_NAMES if args.families == ("all",) else args.families
    _emit_config(args)
    # Each (system, seed) has a training ensemble at seed 2*seed and a holdout
    # ensemble at 2*seed+1, simulated once and shared by the system's cells.
    # A system's ensembles are one RK4 batch, and its cells are submitted as
    # soon as that batch returns, so they train while later systems simulate.
    ens_seeds = [s for seed in args.seeds for s in (2 * seed, 2 * seed + 1)]
    # A forked pool starts all its workers at once: no more than there are tasks.
    tasks = len(systems) * (1 + (len(args.dims) * len(families) + 1) * len(args.seeds))
    workers = min(args.workers, tasks)
    pool = (ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread)
            if workers > 1 else None)
    submit = pool.submit if pool is not None else _run_now
    cell = functools.partial(_compare_cell, args.epochs, args.n_steps)
    with pool or contextlib.nullcontext():
        sims = [submit(simulate_ensembles, SystemSpec(SystemId(system)), args.n_traj,
                       args.dt, args.steps, ens_seeds) for system in systems]
        cells = []
        for system, sim in zip(systems, sims):
            ensembles = iter(sim.result())
            data = {}  # seed -> (training pairs, holdout trajectories)
            for seed in args.seeds:
                train, holdout = next(ensembles), next(ensembles)
                data[seed] = (build_snapshot_dataset(train, Mode.DISCRETE_PAIRS), holdout)
            for n_members in args.dims:
                for family in families:
                    for seed in args.seeds:
                        cells.append(submit(cell, (system, family, n_members, seed,
                                                   *data[seed])))
            for seed in args.seeds:
                cells.append(submit(cell, (system, "dmd", 0, seed, *data[seed])))
        rows = [c.result() for c in cells]
    path = os.path.join(args.out, "summary.csv")
    write_csv(path, ["system", "dictionary", "N", "n_steps", "error", "seed"], rows)
    print(f"compare: wrote {len(rows)} rows to {path}")
    return 0


# -- parser construction ------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="augsill", description=__doc__)
    parser.add_argument("--config", help="INI file with a section per subcommand")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("simulate", help="integrate a benchmark system ensemble")
    p.add_argument("--system", required=True, choices=_SYSTEM_NAMES)
    p.add_argument("--n-traj", parse=positive_int, default=10)
    p.add_argument("--dt", parse=positive_float, default=0.05)
    p.add_argument("--steps", parse=positive_int, default=200)
    p.add_argument("--seed", parse=_seed, default=0)
    p.add_argument("--derivatives", action="store_const", const="true", parse=_boolean,
                   default=False, help="include central-difference derivative columns")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a lifted linear model to simulated data")
    p.add_argument("--data", required=True, help="directory written by simulate")
    p.add_argument("--family", required=True, choices=_FAMILY_NAMES)
    p.add_argument("--n-members", parse=positive_int, default=10)
    p.add_argument("--mode", choices=[m.value for m in Mode], default="discrete")
    p.add_argument("--method", choices=("lstsq", "varpro", "pursuit"), default="lstsq")
    p.add_argument("--ridge", parse=nonnegative_float, default=None,
                   help="ridge of the K solves, frozen for all of a varpro run; by "
                        "default the adaptive 1e-8 * sigma_max^2 of the (initial) "
                        "lifted inputs for lstsq and varpro, and 0 for pursuit")
    p.add_argument("--epochs", parse=positive_int, default=1000,
                   help="iteration cap of the variable-projection training")
    p.add_argument("--seed", parse=_seed, default=0)
    p.add_argument("--pool-points", parse=positive_int, default=9)
    p.add_argument("--pool-steepness", parse=_list_of(positive_float), default=(1.0, 3.0, 10.0))
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("evaluate", help="n-step prediction error of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n-steps", parse=positive_int, default=5)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("closure", help="steep-limit sweeps, blow-up demo, bound checks")
    p.add_argument("--theorems", parse=_list_of(str, THEOREM_NAMES), default=("all",))
    p.add_argument("--configs", parse=positive_int, default=50)
    p.add_argument("--points", parse=positive_int, default=10_000)
    p.add_argument("--gap", parse=positive_float, default=0.2)
    p.add_argument("--seed", parse=_seed, default=0)
    p.add_argument("--alpha-scales", parse=_list_of(positive_float), default=DEFAULT_ALPHA_SCALES)
    p.add_argument("--degrees", parse=_list_of(positive_int), default=(1, 2, 3))
    p.add_argument("--explosion-y", parse=_list_of(float),
                   default=(32.0, 64.0, 128.0, 256.0, 512.0))
    p.add_argument("--mc-samples", parse=positive_int, default=100_000)
    p.add_argument("--mc-seed", parse=_seed, default=2)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("expectation", help="scalar-member expectation table")
    p.add_argument("--a-values", parse=_list_of(positive_float), default=(0.5, 1.0, 2.0, 5.0))
    p.add_argument("--mc-samples", parse=positive_int, default=100_000)
    p.add_argument("--seed", parse=_seed, default=0)
    p.set_defaults(func=_cmd_expectation)

    p = sub.add_parser("compare", help="dictionary-comparison grid with a DMD baseline")
    p.add_argument("--systems", parse=_list_of(str, _SYSTEM_NAMES), default=("all",))
    p.add_argument("--families", parse=_list_of(str, _FAMILY_NAMES), default=("all",))
    p.add_argument("--dims", parse=_list_of(positive_int), default=(5, 10, 20))
    p.add_argument("--seeds", parse=_list_of(_seed), default=(0, 1, 2))
    p.add_argument("--epochs", parse=positive_int, default=1000,
                   help="iteration cap of the variable-projection training")
    p.add_argument("--n-traj", parse=positive_int, default=10)
    p.add_argument("--dt", parse=positive_float, default=0.05)
    p.add_argument("--steps", parse=positive_int, default=200)
    p.add_argument("--n-steps", parse=positive_int, default=5)
    p.add_argument("--workers", parse=positive_int, default=1)
    p.set_defaults(func=_cmd_compare)

    for p in sub.choices.values():
        p.add_argument("--out", required=True, help="output directory")
    return parser, sub.choices


def _read_config(path, command):
    """The subcommand's own section, then [DEFAULT], of an INI file, each if
    present. [DEFAULT] reads as an ordinary section, so the own section holds
    only the keys written under its header."""
    cp = configparser.ConfigParser(default_section="")
    try:
        cp.read_string(read_text(path), path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: not a valid INI file: {exc}") from None
    return [cp[name] for name in (command, "DEFAULT") if cp.has_section(name)]


def _resolve(parser, sub_map, argv):
    """Parse argv once and fill in each option it leaves out: from the
    subcommand's own section of the --config file, else from the file's
    [DEFAULT] section, else from the option's built-in default.

    An own-section key that names no option of the subcommand is a
    ConfigError; [DEFAULT] keys may serve other subcommands and are not
    checked. Returns (args, given): the dests that argv or the own section set.
    """
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("a subcommand is required (see --help)")
    options = sub_map[args.command].options
    given = set(options) & set(vars(args))
    for dest, (flag, parse, _, _) in options.items():
        if dest in given:
            try:
                setattr(args, dest, parse(getattr(args, dest)))
            except ValueError as exc:
                raise UsageError(f"argument {flag}: {exc}") from None
    path = getattr(args, "config", None)
    for section in [] if path is None else _read_config(path, args.command):
        own = section.name == args.command
        for key in section:
            dest = key.replace("-", "_")
            if dest not in options:
                if own:
                    raise ConfigError(f"{path}: [{args.command}] sets unknown option {key}")
            elif not hasattr(args, dest):
                try:
                    setattr(args, dest, options[dest][1](section[key]))
                except (ValueError, configparser.Error) as exc:
                    raise ConfigError(f"{path}: malformed [{section.name}] {key}: {exc}") from None
                if own:
                    given.add(dest)
    missing = []
    for dest, (flag, _, default, required) in options.items():
        if not hasattr(args, dest):
            if required:
                missing.append(flag)
            setattr(args, dest, default)
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return args, given


def _foreign_fit_options(method):
    """{dest: method} of the fit options that only another method reads."""
    owners = {"epochs": "varpro", "pool_points": "pursuit", "pool_steepness": "pursuit"}
    return {dest: owner for dest, owner in owners.items() if owner != method}


def _reject_foreign_fit_options(args, given):
    """Giving fit an option that its method does not read is a usage error."""
    for dest, owner in _foreign_fit_options(args.method).items():
        if dest in given:
            raise UsageError(f"--{dest.replace('_', '-')} applies only to "
                             f"--method {owner}, not --method {args.method}")


def main(argv=None):
    parser, sub_map = build_parser()
    with warnings.catch_warnings():
        # One line per warning: the message, not the file and source line.
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            args, given = _resolve(parser, sub_map, argv)
            if args.command == "fit":
                _reject_foreign_fit_options(args, given)
            return args.func(args) or 0
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        # MemoryError: a size too large to allocate, such as --steps 10**15.
        except (DomainError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
