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
import ctypes
import glob
import os
import sys
from concurrent.futures import ProcessPoolExecutor

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
from .errors import ConfigError, DomainError, NumericalError
from .expectation import expectation_table, write_expectation_csv
from .dictionaries import Family, Kind
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
    write_csv,
    write_ensemble,
)
from .trainer import (
    PursuitPool,
    TrainConfig,
    initial_dictionary,
    matching_pursuit_fit,
    sgd_fit,
)

FIVE_STEP_LOG_CADENCE = 50

_FAMILY_NAMES = tuple(f.value for f in Family)
# Candidate kinds matching pursuit draws from, per dictionary family.
_PURSUIT_KINDS = {
    Family.SILL: (Kind.LOGISTIC,),
    Family.AUGSILL: (Kind.LOGISTIC, Kind.RBF),
}
_SYSTEM_NAMES = tuple(s.value for s in SystemId)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse maps usage problems to exit code 2; we want 1, so raise."""

    def error(self, message):
        raise UsageError(message)


# -- small value parsers ------------------------------------------------------------


def _int_list(text):
    return tuple(int(v) for v in str(text).split(",") if v != "")


def _float_list(text):
    return tuple(float(v) for v in str(text).split(",") if v != "")


def _str_list(text):
    return tuple(v.strip() for v in str(text).split(",") if v.strip())


def _fmt_value(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ",".join(_fmt_value(x) for x in v)
    return str(v)


def _emit_config(args):
    """Write the effective option set beside the command's outputs."""
    os.makedirs(args.out, exist_ok=True)
    cp = configparser.ConfigParser()
    skip = {"func", "config", "command"}
    cp[args.command] = {
        k: _fmt_value(v)
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
    if args.method == "pursuit" and family not in _PURSUIT_KINDS:
        raise UsageError(
            f"--method pursuit needs --family sill or augsill, not {family.value}"
        )
    trajs = read_ensemble(args.data)
    dataset = build_snapshot_dataset(trajs, Mode(args.mode))
    _emit_config(args)
    log_path = os.path.join(args.out, "training_log.csv")
    model_path = os.path.join(args.out, "model.ini")

    if args.method == "lstsq":
        d = initial_dictionary(dataset, family, args.n_members, args.seed)
        model = fit_k(dataset, d, args.ridge)
        loss = frobenius_residual(model, dataset) / dataset.n_rows
        write_csv(log_path, ["epoch", "loss", "five_step_error"],
                  [["0", _r(loss), _r(n_step_error(model, trajs, 5))]])
    elif args.method == "sgd":
        cfg = TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.lr,
            lr_decay=args.lr_decay,
            seed=args.seed,
            refit_k_every=args.refit_every,
            descend_k=args.descend_k,
            ridge=args.ridge,
        )
        rows = []

        def log(epoch, loss, snapshot):
            # 5-step error is sampled on a fixed cadence; loss every epoch.
            if (epoch + 1) % FIVE_STEP_LOG_CADENCE == 0:
                rows.append([str(epoch), _r(loss),
                             _r(n_step_error(snapshot, trajs, 5))])
            else:
                rows.append([str(epoch), _r(loss), ""])

        model, _ = sgd_fit(dataset, family, args.n_members, cfg, epoch_callback=log)
        write_csv(log_path, ["epoch", "loss", "five_step_error"], rows)
    elif args.method == "pursuit":
        pool = PursuitPool.for_data(
            dataset.inputs, args.pool_points, args.pool_steepness, _PURSUIT_KINDS[family]
        )
        model, trace = matching_pursuit_fit(
            dataset, pool, args.n_members, args.ridge if args.ridge else 0.0
        )
        write_csv(log_path, ["step", "objective"],
                  [[str(i), _r(v)] for i, v in enumerate(trace)])
    else:
        raise ConfigError(f"unknown fit method {args.method!r}")

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
    for t in theorems:
        if t not in THEOREM_NAMES:
            raise ConfigError(f"unknown theorem sweep {t!r}")
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
    rows = expectation_table(
        args.a_values, args.quad_points, args.mc_samples, args.seed
    )
    path = os.path.join(args.out, "expectation.csv")
    write_expectation_csv(rows, path)
    print(f"expectation: wrote {len(rows)} rows to {path}")
    return 0


def _compare_cell(payload):
    """One grid cell: simulate, fit, evaluate. Pure and picklable."""
    (system, family, n_members, seed, n_traj, dt, steps,
     epochs, batch_size, lr, refit_every, n_steps) = payload
    spec = SystemSpec(SystemId(system))
    train = simulate_ensemble(spec, n_traj, dt, steps, seed=2 * seed)
    holdout = simulate_ensemble(spec, n_traj, dt, steps, seed=2 * seed + 1)
    dataset = build_snapshot_dataset(train, Mode.DISCRETE_PAIRS)
    if family == "dmd":
        model = dmd_baseline(dataset)
        n_col = 0
    else:
        cfg = TrainConfig(
            epochs=epochs, batch_size=batch_size, learning_rate=lr,
            seed=seed, refit_k_every=refit_every,
        )
        model, _ = sgd_fit(dataset, Family(family), n_members, cfg)
        n_col = n_members
    err = n_step_error(model, holdout, n_steps)
    return [system, family, str(n_col), str(n_steps), _r(err), str(seed)]


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


def _cmd_compare(args):
    systems = _SYSTEM_NAMES if args.systems == ("all",) else args.systems
    families = _FAMILY_NAMES if args.families == ("all",) else args.families
    for s in systems:
        if s not in _SYSTEM_NAMES:
            raise ConfigError(f"unknown system {s!r}")
    for f in families:
        if f not in _FAMILY_NAMES:
            raise ConfigError(f"unknown dictionary family {f!r}")
    _emit_config(args)
    cells = []
    for system in systems:
        for n_members in args.dims:
            for family in families:
                for seed in args.seeds:
                    cells.append((system, family, n_members, seed,
                                  args.n_traj, args.dt, args.steps, args.epochs,
                                  args.batch_size, args.lr, args.refit_every,
                                  args.n_steps))
        for seed in args.seeds:
            cells.append((system, "dmd", 0, seed,
                          args.n_traj, args.dt, args.steps, args.epochs,
                          args.batch_size, args.lr, args.refit_every,
                          args.n_steps))
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers,
                                 initializer=_one_blas_thread) as pool:
            rows = list(pool.map(_compare_cell, cells))
    else:
        rows = [_compare_cell(c) for c in cells]
    path = os.path.join(args.out, "summary.csv")
    write_csv(path, ["system", "dictionary", "N", "n_steps", "error", "seed"], rows)
    print(f"compare: wrote {len(rows)} rows to {path}")
    return 0


# -- parser construction ------------------------------------------------------------


def _add_out(p):
    p.add_argument("--out", required=True, help="output directory")


def build_parser():
    parser = _Parser(prog="augsill", description=__doc__)
    parser.add_argument("--config", help="INI file with a section per subcommand")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub_map = {}

    p = sub.add_parser("simulate", help="integrate a benchmark system ensemble")
    p.add_argument("--system", required=True, choices=_SYSTEM_NAMES)
    p.add_argument("--n-traj", type=int, default=10)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--derivatives", action="store_true",
                   help="include central-difference derivative columns")
    _add_out(p)
    p.set_defaults(func=_cmd_simulate)
    sub_map["simulate"] = p

    p = sub.add_parser("fit", help="fit a lifted linear model to simulated data")
    p.add_argument("--data", required=True, help="directory written by simulate")
    p.add_argument("--family", required=True, choices=_FAMILY_NAMES)
    p.add_argument("--n-members", type=int, default=10)
    p.add_argument("--mode", choices=[m.value for m in Mode], default="discrete")
    p.add_argument("--method", choices=("lstsq", "sgd", "pursuit"), default="lstsq")
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--lr-decay", type=float, default=0.999)
    p.add_argument("--refit-every", type=int, default=10)
    p.add_argument("--descend-k", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool-points", type=int, default=9)
    p.add_argument("--pool-steepness", type=_float_list, default=(1.0, 3.0, 10.0))
    _add_out(p)
    p.set_defaults(func=_cmd_fit)
    sub_map["fit"] = p

    p = sub.add_parser("evaluate", help="n-step prediction error of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n-steps", type=int, default=5)
    _add_out(p)
    p.set_defaults(func=_cmd_evaluate)
    sub_map["evaluate"] = p

    p = sub.add_parser("closure", help="steep-limit sweeps, blow-up demo, bound checks")
    p.add_argument("--theorems", type=_str_list, default=("all",))
    p.add_argument("--configs", type=int, default=50)
    p.add_argument("--points", type=int, default=10_000)
    p.add_argument("--gap", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha-scales", type=_float_list, default=DEFAULT_ALPHA_SCALES)
    p.add_argument("--degrees", type=_int_list, default=(1, 2, 3))
    p.add_argument("--explosion-y", type=_float_list,
                   default=(32.0, 64.0, 128.0, 256.0, 512.0))
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.add_argument("--mc-seed", type=int, default=2)
    _add_out(p)
    p.set_defaults(func=_cmd_closure)
    sub_map["closure"] = p

    p = sub.add_parser("expectation", help="scalar-member expectation table")
    p.add_argument("--a-values", type=_float_list, default=(0.5, 1.0, 2.0, 5.0))
    p.add_argument("--quad-points", type=int, default=200)
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=_cmd_expectation)
    sub_map["expectation"] = p

    p = sub.add_parser("compare", help="dictionary-comparison grid with a DMD baseline")
    p.add_argument("--systems", type=_str_list, default=("all",))
    p.add_argument("--families", type=_str_list, default=("all",))
    p.add_argument("--dims", type=_int_list, default=(5, 10, 20))
    p.add_argument("--seeds", type=_int_list, default=(0, 1, 2))
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--n-traj", type=int, default=10)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--refit-every", type=int, default=10)
    p.add_argument("--n-steps", type=int, default=5)
    p.add_argument("--workers", type=int, default=1)
    _add_out(p)
    p.set_defaults(func=_cmd_compare)
    sub_map["compare"] = p

    return parser, sub_map


def _overlay_config(argv, sub_map):
    """Apply config-file values as subcommand defaults before parsing.

    Explicit command-line flags still win because they override defaults.
    """
    cfg_path, command = None, None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            cfg_path = argv[i + 1] if i + 1 < len(argv) else None
            i += 2
            continue
        if tok.startswith("--config="):
            cfg_path = tok.split("=", 1)[1]
            i += 1
            continue
        if not tok.startswith("-") and command is None:
            command = tok
        i += 1
    if cfg_path is None:
        return
    cp = configparser.ConfigParser()
    try:
        if not cp.read(cfg_path):
            raise ConfigError(f"cannot read config file {cfg_path}")
    except configparser.Error as exc:
        raise ConfigError(f"{cfg_path}: not a valid INI file: {exc}") from None
    if command is None or command not in sub_map or command not in cp:
        return
    section = cp[command]
    parser = sub_map[command]
    for action in parser._actions:
        for key in (action.dest, action.dest.replace("_", "-")):
            if key in section:
                try:
                    raw = section[key]
                    if isinstance(action, argparse._StoreTrueAction):
                        action.default = section.getboolean(key)
                    elif action.type is not None:
                        action.default = action.type(raw)
                    else:
                        action.default = raw
                except (ValueError, configparser.Error) as exc:
                    raise ConfigError(
                        f"{cfg_path}: malformed [{command}] {key}: {exc}"
                    ) from None
                if action.choices is not None and action.default not in action.choices:
                    raise ConfigError(
                        f"{cfg_path}: [{command}] {key} must be one of "
                        f"{', '.join(map(str, action.choices))}"
                    )
                action.required = False
                break


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub_map = build_parser()
    try:
        _overlay_config(argv, sub_map)
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        return args.func(args) or 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
