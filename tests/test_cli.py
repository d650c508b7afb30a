import filecmp
import os
import pathlib
import random
import shlex
import subprocess
import sys
import warnings

import pytest

from augsill import cli
from augsill.cli import main
from augsill.dictionaries import Family
from augsill.errors import IllConditionedWarning
from augsill.solver import fit_k, load_model
from augsill.systems import Mode, build_snapshot_dataset, read_ensemble


def run(*argv):
    return main(list(argv))


def simulate_small(out, system="vanderpol", seed=0, extra=()):
    return run(
        "simulate", "--system", system, "--n-traj", "3", "--dt", "0.05",
        "--steps", "30", "--seed", str(seed), "--out", str(out), *extra
    )


def scale_states(data, factor):
    """Multiply the states of every trajectory CSV under data by factor."""
    for path in data.glob("traj_*.csv"):
        header, *rows = path.read_text().splitlines()
        cells = (row.split(",") for row in rows)
        path.write_text("\n".join([header, *(",".join([t, *(repr(float(v) * factor) for v in x)])
                                            for t, *x in cells)]) + "\n")


def csv_files(root):
    found = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            if n.endswith(".csv"):
                rel = os.path.relpath(os.path.join(dirpath, n), root)
                found[rel] = os.path.join(dirpath, n)
    return found


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run() == 1
    assert run("frobnicate") == 1
    assert run("simulate", "--system", "vanderpol") == 1  # --out missing
    assert run("simulate", "--system", "nosuch", "--out", "x") == 1
    # A count below 1 is a bad flag value.
    for value in ("-1", "0"):
        assert run("compare", "--workers", value, "--out", "x") == 1
    assert run("compare", "--epochs", "0", "--out", "x") == 1
    for flag, value in (("--epochs", "0"), ("--n-members", "0")):
        assert run("fit", "--data", "x", "--family", "sill", "--method", "varpro",
                   flag, value, "--out", "x") == 1, (flag, value)
    # fit trains by variable projection: SGD and its options are gone.
    for argv in (("--method", "sgd"), ("--method", "varpro", "--lr", "0.1"),
                 ("--method", "varpro", "--batch-size", "32")):
        assert run("fit", "--data", "x", "--family", "sill", *argv, "--out", "x") == 1, argv
    # Impossible closure runs: no configurations, centres not separated, a
    # blow-up degree below 1.
    for flag, value in (("--configs", "0"), ("--configs", "-2"), ("--gap", "-0.5"),
                        ("--gap", "0"), ("--gap", "inf"), ("--degrees", "1,0")):
        assert run("closure", "--theorems", "loglog", flag, value, "--out", "x") == 1, (
            flag, value)
    # Trajectory, step and dimension counts below 1; time steps not finite and > 0.
    bad_values = {
        "simulate": (("--n-traj", "0"), ("--steps", "0"), ("--dt", "nan"), ("--dt", "-1")),
        "compare": (("--dims", "0"), ("--dims", "-2"), ("--dims", "5,0"), ("--n-traj", "0"),
                    ("--steps", "0"), ("--n-steps", "0"), ("--dt", "0")),
        "evaluate": (("--n-steps", "0"),),
    }
    required = {"simulate": ("--system", "vanderpol"), "compare": (),
                "evaluate": ("--model", "x", "--data", "x")}
    for command, cases in bad_values.items():
        for flag, value in cases:
            assert run(command, *required[command], flag, value, "--out", "x") == 1, (
                command, flag, value)
    # Unknown names in a list flag, counts below 1, steepness scales or
    # interval half-widths that are not finite and > 0, and a list that names
    # one parsed value twice (it would repeat the work and the rows).
    for argv in (
            ("compare", "--systems", "bogus"), ("compare", "--systems", "vanderpol,bogus"),
            ("compare", "--systems", "all,vanderpol"), ("compare", "--families", "bogus"),
            ("compare", "--families", "dmd"), ("closure", "--theorems", "bogus"),
            ("closure", "--mc-samples", "0"), ("expectation", "--mc-samples", "0"),
            ("closure", "--alpha-scales=-1,1,2,5,10"),
            ("closure", "--alpha-scales", "0,1,2,5,10"), ("closure", "--alpha-scales", "1,nan"),
            ("expectation", "--a-values", "0"), ("expectation", "--a-values=-1"),
            ("expectation", "--a-values", "1,inf"),
            ("compare", "--systems", "duffing,duffing"), ("compare", "--seeds", "0,0"),
            ("compare", "--families", "sill,augsill,sill"), ("compare", "--dims", "5,10,5"),
            ("closure", "--theorems", "loglog,loglog"), ("closure", "--degrees", "1,1"),
            ("closure", "--alpha-scales", "1,2,5,10,1.0"), ("expectation", "--a-values", "1,1")):
        assert run(*argv, "--out", "x") == 1, argv
    for value in ("0", "-1,3", "1,nan", "3,1,3"):
        assert run("fit", "--data", "x", "--family", "sill", "--method", "pursuit",
                   "--pool-steepness", value, "--out", "x") == 1, value
    # A ridge that is not finite and >= 0, for every method that reads it.
    for value in ("-1", "-1e-300", "nan", "inf", "-inf", "1,2"):
        for method in ("lstsq", "varpro", "pursuit"):
            assert run("fit", "--data", "x", "--family", "sill", "--method", method,
                       "--ridge", value, "--out", "x") == 1, (method, value)
    # Counts >= 1 that the library's minimums turn down stay domain errors.
    assert run("expectation", "--mc-samples", "10", "--out", str(tmp_path / "e")) == 2
    # The same value from a config file is a data error that names the key.
    for command, line, key in (("simulate", "n-traj = 0", "n-traj"),
                               ("compare", "systems = bogus", "systems"),
                               ("closure", "theorems = all,bogus", "theorems"),
                               ("closure", "alpha-scales = 0,1,2,5,10", "alpha-scales"),
                               ("compare", "seeds = 0,0", "seeds"),
                               ("closure", "theorems = loglog,loglog", "theorems"),
                               ("expectation", "a-values = 1,1.0", "a-values"),
                               ("fit", "ridge = -1", "ridge"),
                               ("fit", "ridge = nan", "ridge"),
                               ("fit", "method = sgd", "method"),
                               ("fit", "lr = 0.1", "lr"),
                               ("fit", "batch-size = 32", "batch-size")):
        config = tmp_path / "bad.ini"
        config.write_text(f"[{command}]\n{line}\n")
        capsys.readouterr()
        extra = ("--system", "vanderpol") if command == "simulate" else ()
        assert run("--config", str(config), command, *extra,
                   "--out", str(tmp_path / "x")) == 2, line
        assert key in capsys.readouterr().err, line


@pytest.mark.parametrize("command, flag, value, reason", [
    ("compare", "--seeds", "0,0", "'0,0' lists 0 twice"),
    ("closure", "--alpha-scales", "1,nan", "'nan' is not finite"),
    ("compare", "--dims", "3,x", "invalid literal for int() with base 10: 'x'"),
    ("closure", "--theorems", "loglog,nope",
     "'loglog,nope' is not all or a list from loglog, logrbf_overlap, logrbf_disjoint, rbfrbf"),
    ("simulate", "--system", "nosuch",
     "'nosuch' is not one of vanderpol, duffing, predatorprey, toggleswitch"),
], ids=("seeds", "alpha-scales", "dims", "theorems", "system"))
def test_flag_and_config_key_give_one_reason(tmp_path, capsys, command, flag, value, reason):
    """A bad value gives the parser's own reason whether a flag or a config
    key holds it: exit 1 for the flag, exit 2 naming the file and key."""
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert run(command, flag, value, "--out", out) == 1
    assert capsys.readouterr().err == f"usage error: argument {flag}: {reason}\n"
    config = tmp_path / "bad.ini"
    config.write_text(f"[{command}]\n{flag[2:]} = {value}\n")
    assert run("--config", str(config), command, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: malformed [{command}] {flag[2:]}: {reason}\n")


def test_readme_command_examples_parse():
    """Every augsill line of README's command-line block resolves, so a
    renamed or removed option fails here rather than leaving the docs stale."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("augsill ")]
    parser, sub_map = cli.build_parser()
    commands = set()
    for argv in examples:
        args, given = cli._resolve(parser, sub_map, argv)
        if args.command == "fit":
            cli._reject_foreign_fit_options(args, given)
        commands.add(args.command)
    assert commands == set(sub_map)


def test_simulate_artifacts(tmp_path):
    out = tmp_path / "sim"
    assert simulate_small(out) == 0
    names = sorted(os.listdir(out))
    assert "metadata.ini" in names
    assert "effective_config.ini" in names
    assert [n for n in names if n.startswith("traj_")] == [
        "traj_0000.csv", "traj_0001.csv", "traj_0002.csv",
    ]
    header = (out / "traj_0000.csv").read_text().split("\n")[0]
    assert header.split(",")[0] == "t"


def test_fit_and_evaluate_roundtrip(tmp_path):
    data = tmp_path / "data"
    fit = tmp_path / "fit"
    ev = tmp_path / "eval"
    assert simulate_small(data) == 0
    assert run(
        "fit", "--data", str(data), "--family", "sill", "--n-members", "4",
        "--method", "lstsq", "--seed", "0", "--out", str(fit)
    ) == 0
    assert sorted(os.listdir(fit)) == [
        "effective_config.ini", "model.ini", "model.k.csv", "training_log.csv",
    ]
    log = (fit / "training_log.csv").read_text().strip().split("\n")
    assert log[0] == "epoch,loss,five_step_error"
    assert len(log) == 2

    assert run(
        "evaluate", "--model", str(fit / "model.ini"), "--data", str(data),
        "--n-steps", "3", "--out", str(ev)
    ) == 0
    lines = (ev / "report.csv").read_text().strip().split("\n")
    assert lines[0] == "system,dictionary,N,n_steps,error,seed"
    row = lines[1].split(",")
    assert row[0] == "vanderpol"
    assert row[1] == "sill"
    assert row[2] == "4"
    assert row[3] == "3"
    assert float(row[4]) >= 0.0


def test_fit_varpro_logs_every_iteration(tmp_path):
    data = tmp_path / "data"
    fit = tmp_path / "fit"
    assert simulate_small(data, system="toggleswitch") == 0
    assert run(
        "fit", "--data", str(data), "--family", "augsill", "--n-members", "4",
        "--method", "varpro", "--epochs", "12", "--seed", "1", "--ridge", "1e-6",
        "--out", str(fit)
    ) == 0
    log = [r.split(",") for r in (fit / "training_log.csv").read_text().splitlines()]
    assert log[0] == ["epoch", "loss", "five_step_error"]
    # Row i: the loss after L-BFGS iteration i; the last row scores the model.
    assert 2 <= len(log) <= 13
    assert [r[0] for r in log[1:]] == [str(i) for i in range(1, len(log))]
    losses = [float(r[1]) for r in log[1:]]
    assert all(b <= a for a, b in zip(losses, losses[1:])) and losses[-1] > 0
    assert all(r[2] == "" for r in log[1:-1]) and float(log[-1][2]) >= 0
    # --ridge is the ridge frozen for the run: K is the closed-form fit over
    # the trained dictionary at that ridge.
    model = load_model(str(fit / "model.ini"))
    dataset = build_snapshot_dataset(read_ensemble(str(data)), Mode.DISCRETE_PAIRS)
    assert model.K.tobytes() == fit_k(dataset, model.dictionary, 1e-6).K.tobytes()


def test_fit_varpro_that_stops_at_once_logs_its_start(tmp_path):
    # Trajectories resting at vanderpol's equilibrium: L-BFGS-B stops before
    # its first iteration and fit returns the starting dictionary, logged as
    # row 0 with no loss and the model's 5-step error.
    data = tmp_path / "data"
    assert simulate_small(data) == 0
    scale_states(data, 0.0)
    fit = tmp_path / "fit"
    assert run("fit", "--data", str(data), "--family", "sill", "--n-members", "3",
               "--method", "varpro", "--out", str(fit)) == 0
    assert (fit / "training_log.csv").read_text() == "epoch,loss,five_step_error\n0,,0.0\n"


def test_fit_pursuit_writes_objective_trace(tmp_path):
    data = tmp_path / "data"
    fit = tmp_path / "fit"
    assert simulate_small(data) == 0
    assert run(
        "fit", "--data", str(data), "--family", "sill", "--n-members", "3",
        "--method", "pursuit", "--pool-points", "4",
        "--pool-steepness", "1,5", "--out", str(fit)
    ) == 0
    log = (fit / "training_log.csv").read_text().strip().split("\n")
    assert log[0] == "step,objective"
    assert len(log) == 4
    vals = [float(r.split(",")[1]) for r in log[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_fit_pursuit_follows_family(tmp_path, capsys):
    data = tmp_path / "data"
    assert simulate_small(data) == 0

    def pursuit(family):
        out = tmp_path / family
        code = run("fit", "--data", str(data), "--family", family, "--n-members", "3",
                   "--method", "pursuit", "--pool-points", "4",
                   "--pool-steepness", "1,5", "--out", str(out))
        return code, out

    code, out = pursuit("sill")
    assert code == 0
    d = load_model(str(out / "model.ini")).dictionary
    assert (d.family, d.n_rbf) == (Family.SILL, 0)
    # The same data and pool picks an RBF member once RBF candidates are allowed.
    code, out = pursuit("augsill")
    assert code == 0
    d = load_model(str(out / "model.ini")).dictionary
    assert d.family == Family.AUGSILL and d.n_rbf > 0
    for family in ("summedrbf", "legendre", "hermite"):
        code, out = pursuit(family)
        assert code == 1
        assert not out.exists()
    assert "usage error" in capsys.readouterr().err


def test_fit_varpro_rejects_polynomial_families(tmp_path, capsys):
    # Polynomial dictionaries have no shapes for varpro to train; --method
    # lstsq fits them.
    data = tmp_path / "data"
    assert simulate_small(data) == 0
    for family in ("legendre", "hermite"):
        out = tmp_path / family
        capsys.readouterr()
        assert run("fit", "--data", str(data), "--family", family, "--n-members", "3",
                   "--method", "varpro", "--epochs", "2", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err
        assert not (out / "model.ini").exists()


def test_fit_rejects_options_of_other_methods(tmp_path, capsys):
    data = tmp_path / "data"
    assert simulate_small(data) == 0
    fit = ("fit", "--data", str(data), "--family", "sill", "--n-members", "2")
    cases = (("lstsq", "--epochs", "5"), ("pursuit", "--epochs", "5"),
             ("lstsq", "--pool-points", "3"), ("varpro", "--pool-points", "3"),
             ("varpro", "--pool-steepness", "1,5"))
    for i, (method, flag, value) in enumerate(cases):
        key = flag[2:]
        config = tmp_path / f"run{i}.ini"
        config.write_text(f"[fit]\nmethod = {method}\n{key} = {value}\n")
        for route, argv in (
            ("flag", (*fit, "--method", method, flag, value)),
            ("file", ("--config", str(config), *fit)),
        ):
            out = tmp_path / f"{route}{i}"
            capsys.readouterr()
            assert run(*argv, "--out", str(out)) == 1, (route, method, flag)
            err = capsys.readouterr().err
            assert "usage error" in err and flag in err and "Traceback" not in err
            assert not out.exists()
    # An option inherited from [DEFAULT] is not given to fit.
    shared = tmp_path / "shared.ini"
    shared.write_text("[DEFAULT]\nepochs = 5\n[fit]\nmethod = lstsq\n")
    out = tmp_path / "shared"
    assert run("--config", str(shared), *fit, "--out", str(out)) == 0
    # ... but one that fit's own section sets as well is.
    both = tmp_path / "both.ini"
    both.write_text("[DEFAULT]\nepochs = 5\n[fit]\nmethod = lstsq\nepochs = 5\n")
    capsys.readouterr()
    assert run("--config", str(both), *fit, "--out", str(tmp_path / "both")) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--epochs" in err and "Traceback" not in err
    # The echo of a fit leaves out what its method does not read, so it reruns.
    echo = (out / "effective_config.ini").read_text()
    assert "epochs" not in echo and "pool_points" not in echo
    assert run("--config", str(out / "effective_config.ini"), "fit",
               "--out", str(tmp_path / "rerun")) == 0
    assert filecmp.cmp(out / "model.k.csv", tmp_path / "rerun" / "model.k.csv", shallow=False)


def test_percent_in_option_value_round_trips(tmp_path, monkeypatch):
    # The echo doubles %, so the interpolating config reader gives back the
    # value the run used, and a rerun from the echo resolves the same out.
    monkeypatch.chdir(tmp_path)
    assert simulate_small("d%1") == 0
    fit = ("fit", "--data", "d%1", "--family", "sill", "--n-members", "3",
           "--method", "lstsq")
    assert run(*fit, "--out", "fit%1") == 0
    echo = os.path.join("fit%1", "effective_config.ini")
    parser, sub_map = cli.build_parser()
    args, _ = cli._resolve(parser, sub_map, ["--config", echo, "fit"])
    assert (args.out, args.data) == ("fit%1", "d%1")
    assert run("--config", echo, "fit") == 0
    assert os.path.exists(os.path.join("fit%1", "model.ini"))


def _drop_line(path, prefix):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith(prefix)))


def _corrupt_cell(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace(",", ",abc", 1)
    path.write_text("".join(lines))


def _nan_cell(path):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[1] = "nan"
    lines[2] = ",".join(cells)
    path.write_text("".join(lines))


def _replace_line(path, prefix, line):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line + "\n" if ln.startswith(prefix) else ln for ln in lines))


def _prepend_stray_line(path):
    path.write_text("stray line\n" + path.read_text())


@pytest.mark.parametrize("case, named", [
    ("trajectory_cell", "traj_0000.csv"),
    ("trajectory_empty", "traj_0000.csv"),
    ("trajectory_nan", "traj_0000.csv"),
    ("metadata_constants", "constants"),
    ("metadata_header", "metadata.ini"),
    ("metadata_steps", "steps"),
    ("trajectory_missing", "trajectories"),
    ("trajectory_short", "traj_0000.csv"),
    ("model_k_file", "k_file"),
    ("model_k_entry", "model.k.csv"),
    ("model_header", "model.ini"),
    ("model_n_members", "[member 2]"),
    ("model_huge_n_members", "n_members"),
    ("model_kind", "kind"),
])
def test_malformed_data_files_exit_two(tmp_path, capsys, case, named):
    data = tmp_path / "data"
    fit = tmp_path / "fit"
    assert simulate_small(data) == 0
    assert run("fit", "--data", str(data), "--family", "sill", "--n-members", "2",
               "--out", str(fit)) == 0
    if case == "trajectory_cell":
        _corrupt_cell(data / "traj_0000.csv")
    elif case == "trajectory_empty":
        (data / "traj_0000.csv").write_text("")
    elif case == "trajectory_nan":
        _nan_cell(data / "traj_0000.csv")
    elif case == "metadata_constants":
        _drop_line(data / "metadata.ini", "constants")
    elif case == "metadata_header":
        _prepend_stray_line(data / "metadata.ini")
    elif case == "metadata_steps":
        _replace_line(data / "metadata.ini", "steps", "steps = abc")
    elif case == "trajectory_missing":
        (data / "traj_0002.csv").unlink()
    elif case == "trajectory_short":
        lines = (data / "traj_0000.csv").read_text().splitlines(keepends=True)
        (data / "traj_0000.csv").write_text("".join(lines[:-1]))
    elif case == "model_k_file":
        _drop_line(fit / "model.ini", "k_file")
    elif case == "model_header":
        _prepend_stray_line(fit / "model.ini")
    elif case == "model_n_members":
        _replace_line(fit / "model.ini", "n_members", "n_members = 5")
    elif case == "model_huge_n_members":
        # Fails on the missing [member 2], before 10^12 section names are built.
        _replace_line(fit / "model.ini", "n_members", "n_members = 1000000000000")
    elif case == "model_kind":
        _replace_line(fit / "model.ini", "kind", "kind = cubic")
    else:
        _corrupt_cell(fit / "model.k.csv")
    capsys.readouterr()
    code = run("evaluate", "--model", str(fit / "model.ini"), "--data", str(data),
               "--out", str(tmp_path / "eval"))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert named in err


# Values that no field of a data or config file accepts.
FUZZ_TOKENS = ("abc", "", "nan", "inf", "-inf", "1e999")


def _fuzz_ini(text, rng, mutation, corrupt_keys, drop_keys):
    """Cut a random line before its '=' or ']', put a bad value in one key of
    corrupt_keys, or drop a section header or one key line of drop_keys
    (None: any key)."""
    lines = text.splitlines(keepends=True)
    keys = [ln.split("=", 1)[0].strip() if "=" in ln else None for ln in lines]
    headers = [i for i, ln in enumerate(lines) if ln.startswith("[")]

    def key_lines(wanted):
        return [i for i, k in enumerate(keys)
                if k is not None and (wanted is None or k in wanted)]

    if mutation == "truncate":
        i = rng.choice(headers + key_lines(None))
        cut = rng.randrange(1, lines[i].index("]" if keys[i] is None else "="))
        return "".join(lines[:i]) + lines[i][:cut]
    if mutation == "corrupt":
        i = rng.choice(key_lines(corrupt_keys))
        lines[i] = f"{keys[i]} = {rng.choice(FUZZ_TOKENS)}\n"
    else:
        del lines[rng.choice(headers + key_lines(drop_keys))]
    return "".join(lines)


def _fuzz_csv(text, rng, mutation, first_row, columns):
    """Cut a random row before its last field, put a bad value in one cell,
    or drop one of columns from every row; rows before first_row are left
    as they are."""
    lines = text.splitlines(keepends=True)
    if mutation == "truncate":
        i = rng.randrange(first_row, len(lines))
        return "".join(lines[:i]) + lines[i][: rng.randrange(1, lines[i].rindex(",") + 1)]
    rows = [ln.rstrip("\n").split(",") for ln in lines]
    col = rng.choice(columns)
    if mutation == "corrupt":
        rows[rng.randrange(first_row, len(rows))][col] = rng.choice(FUZZ_TOKENS)
    else:
        for row in rows:
            del row[col]
    return "".join(",".join(row) + "\n" for row in rows)


def test_reader_fuzz_exits_two(tmp_path, capsys):
    """Seeded truncation, corruption, dropped keys and bytes that are not
    UTF-8 in every file a command reads: each must exit 2 with no traceback."""
    data, fit = tmp_path / "data", tmp_path / "fit"
    assert simulate_small(data) == 0
    assert run("fit", "--data", str(data), "--family", "augsill", "--n-members", "3",
               "--out", str(fit)) == 0
    config = tmp_path / "run.ini"
    config.write_text("[simulate]\nsystem = duffing\nn-traj = 2\nsteps = 5\n"
                      "dt = 0.05\nseed = 1\n")
    evaluate = ("evaluate", "--model", str(fit / "model.ini"), "--data", str(data),
                "--out", str(tmp_path / "eval"))
    simulate = ("--config", str(config), "simulate", "--out", str(tmp_path / "sim"))
    metadata_keys = {"system", "constants", "dt", "seed", "steps", "trajectories"}
    artifacts = [
        (data / "traj_0001.csv", evaluate, lambda t, r, mu: _fuzz_csv(t, r, mu, 1, (1, 2))),
        (data / "metadata.ini", evaluate,
         lambda t, r, mu: _fuzz_ini(t, r, mu, metadata_keys, metadata_keys)),
        (fit / "model.ini", evaluate, lambda t, r, mu: _fuzz_ini(t, r, mu, None, None)),
        # K is 6 x 6: the lift [1, y1, y2] plus 3 members
        (fit / "model.k.csv", evaluate, lambda t, r, mu: _fuzz_csv(t, r, mu, 0, range(6))),
        # A config may leave out any option, so only its section header is dropped.
        (config, simulate, lambda t, r, mu: _fuzz_ini(t, r, mu, None, set())),
    ]
    rng = random.Random(0)
    for path, argv, mutate in artifacts:
        original = path.read_text()
        for mutation in ("truncate", "corrupt", "drop") * 20:
            bad = mutate(original, rng, mutation)
            path.write_text(bad)
            capsys.readouterr()
            code = run(*argv)
            err = capsys.readouterr().err
            assert code == 2 and "Traceback" not in err, (path.name, mutation, bad, err)
        path.write_text(original)
    # Bytes that are not UTF-8, spliced in anywhere, are named with the file.
    junk = (b"\xff\xfe", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80")
    rng = random.Random(1)
    for path, argv, _ in artifacts:
        original = path.read_bytes()
        for bad in junk * 2:
            at = rng.randrange(len(original) + 1)
            path.write_bytes(original[:at] + bad + original[at:])
            capsys.readouterr()
            code = run(*argv)
            err = capsys.readouterr().err
            assert code == 2 and "Traceback" not in err, (path.name, at, bad, err)
            assert f"{path}: not UTF-8 text" in err, (path.name, at, bad, err)
        path.write_bytes(original)


# Option values that are empty, malformed, non-finite or at most zero.
OPTION_TOKENS = ("", ",", "abc", "nan", "inf", "-inf", "-1", "0")


def test_option_value_fuzz_exits_cleanly(tmp_path, capsys, monkeypatch):
    """Each option of a tiny run of every subcommand, set to each of
    OPTION_TOKENS by flag and by config key: every run must exit 0-3 with no
    traceback. The seeded draw puts each config key in the subcommand's own
    section or in [DEFAULT], spelled with hyphens or underscores."""
    monkeypatch.chdir(tmp_path)
    assert simulate_small("data") == 0
    assert run("fit", "--data", "data", "--family", "sill", "--n-members", "2",
               "--out", "fit") == 0
    fit = {"data": "data", "family": "sill", "n-members": "2", "seed": "0", "ridge": "0.001"}
    bases = (
        ("simulate", {"system": "vanderpol", "n-traj": "2", "steps": "5", "dt": "0.05",
                      "seed": "0"}),
        ("fit", {**fit, "mode": "discrete", "method": "lstsq"}),
        ("fit", {**fit, "method": "varpro", "epochs": "2"}),
        ("fit", {**fit, "method": "pursuit", "pool-points": "2", "pool-steepness": "1,5"}),
        ("evaluate", {"model": "fit/model.ini", "data": "data", "n-steps": "2"}),
        ("closure", {"theorems": "loglog", "configs": "1", "points": "500", "gap": "0.2",
                     "seed": "0", "alpha-scales": "1,2,5,10,20", "degrees": "1",
                     "explosion-y": "32,64,128,256,512", "mc-samples": "1000",
                     "mc-seed": "2"}),
        ("expectation", {"a-values": "1", "mc-samples": "1000", "seed": "0"}),
        ("compare", {"systems": "vanderpol", "families": "sill", "dims": "2", "seeds": "0",
                     "epochs": "1", "n-traj": "2", "steps": "10", "dt": "0.05",
                     "n-steps": "2", "workers": "1"}),
    )
    rng = random.Random(0)
    for command, base in bases:
        assert run(command, *(f"--{k}={v}" for k, v in base.items()), "--out", "out") == 0
        for name in base:
            for value in OPTION_TOKENS:
                flags = [f"--{k}={value if k == name else v}" for k, v in base.items()]
                section = rng.choice((command, "DEFAULT"))
                key = rng.choice((name, name.replace("-", "_")))
                (tmp_path / "run.ini").write_text(f"[{section}]\n{key} = {value}\n")
                rest = [f for f in flags if not f.startswith(f"--{name}=")]
                for argv in ((command, *flags), ("--config", "run.ini", command, *rest)):
                    capsys.readouterr()
                    try:
                        code = run(*argv, "--out", "out")
                    except Exception as exc:  # what the command line shows as a traceback
                        code = repr(exc)
                    err = capsys.readouterr().err
                    assert code in (0, 1, 2, 3) and "Traceback" not in err, (
                        argv, f"[{section}] {key} = {value}", code, err)


def test_warning_prints_one_line(tmp_path, capsys):
    data = tmp_path / "data"
    assert simulate_small(data) == 0
    capsys.readouterr()
    # 403 lifted columns from 90 snapshot pairs: an underdetermined fit. The
    # module's ignore::UserWarning mark outranks a function mark, so the test
    # shows the warning with a filter of its own.
    with warnings.catch_warnings():
        warnings.simplefilter("always", IllConditionedWarning)
        assert run("fit", "--data", str(data), "--family", "legendre", "--n-members", "400",
                   "--method", "lstsq", "--out", str(tmp_path / "fit")) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: only 90 rows for a 403-dimensional lift; fit is underdetermined"]


def test_import_leaves_scipy_stats_unloaded():
    # No command needs scipy.stats, once the largest share of the CLI's start-up.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    check = ("import augsill.cli, sys; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_missing_data_dir_exits_two(tmp_path, capsys):
    code = run("fit", "--data", str(tmp_path / "nope"), "--family", "sill",
               "--out", str(tmp_path / "fit"))
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_diverging_fit_exits_three(tmp_path, capsys):
    # States near 1e155, whose squares overflow (numpy warns as it goes): at a
    # fixed ridge the first loss of the training is not finite, a numerical
    # failure. (The adaptive ridge would be inf, a domain error.)
    data = tmp_path / "data"
    assert simulate_small(data) == 0
    scale_states(data, 1e155)
    code = run("fit", "--data", str(data), "--family", "summedrbf", "--n-members", "3",
               "--method", "varpro", "--ridge", "1", "--epochs", "25",
               "--out", str(tmp_path / "fit"))
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err and "Traceback" not in err
    assert "loss became non-finite" in err


def test_huge_dt_exits_two_at_once(tmp_path):
    # A step needing more RK4 substeps than systems.MAX_SUBSTEPS_PER_STEP is
    # refused before any work; the timeout catches a run of its ~dt/1e-2
    # substeps.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    for argv in (("simulate", "--system", "duffing", "--dt", "1e300", "--steps", "2"),
                 ("compare", "--systems", "duffing", "--families", "sill", "--dims", "3",
                  "--seeds", "0", "--epochs", "3", "--n-traj", "2", "--steps", "20",
                  "--dt", "1e10")):
        proc = subprocess.run([sys.executable, "-m", "augsill", *argv,
                               "--out", str(tmp_path / argv[0])],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: dt ") and "Traceback" not in proc.stderr


def test_impossible_sizes_exit_two(tmp_path, capsys):
    # 10^15 rows is beyond the address space: the allocation fails at once,
    # reported as one error line.
    huge = str(10**15)
    for argv in (("simulate", "--system", "vanderpol", "--steps", huge),
                 ("closure", "--theorems", "loglog", "--configs", "1", "--points", huge),
                 ("expectation", "--mc-samples", huge)):
        capsys.readouterr()
        assert run(*argv, "--out", str(tmp_path / argv[0])) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err


@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_failed_least_squares_exits_three(tmp_path, capsys):
    # The degree-400 polynomial blow-up design overflows (numpy warns), and
    # LAPACK's SVD does not converge on it: a numerical failure.
    code = run("closure", "--theorems", "loglog", "--configs", "1", "--points", "500",
               "--degrees", "400", "--mc-samples", "1000", "--out", str(tmp_path / "cl"))
    err = capsys.readouterr().err
    assert code == 3, err
    assert "numerical failure: least-squares solve failed" in err and "Traceback" not in err


def test_expectation_of_a_huge_interval_exits_two(tmp_path, capsys):
    # Past a ~ 9.5e153 the support 2a^2 overflows; the table used to hold nan.
    for a in ("1e160", "1e300"):
        capsys.readouterr()
        assert run("expectation", "--a-values", a, "--out", str(tmp_path / a)) == 2, a
        assert "support 2a^2" in capsys.readouterr().err


def test_config_file_overlay(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[simulate]\nn-traj = 2\nsteps = 25\n")
    out1 = tmp_path / "a"
    assert run("--config", str(cfg), "simulate", "--system", "duffing",
               "--out", str(out1)) == 0
    assert len([n for n in os.listdir(out1) if n.startswith("traj_")]) == 2
    # an explicit flag beats the file value
    out2 = tmp_path / "b"
    assert run("--config", str(cfg), "simulate", "--system", "duffing",
               "--n-traj", "4", "--out", str(out2)) == 0
    assert len([n for n in os.listdir(out2) if n.startswith("traj_")]) == 4
    assert run("--config", str(tmp_path / "absent.ini"), "simulate",
               "--system", "duffing", "--out", str(tmp_path / "c")) == 2
    for case, text, named in (
        ("header", "stray line\n[simulate]\nsystem = duffing\n", "header.ini"),
        ("value", "[simulate]\nsystem = duffing\nsteps = five\n", "steps"),
        ("choice", "[simulate]\nsystem = nosuch\n", "system"),
        ("stale", "[simulate]\nsystem = duffing\nrefit-every = 5\n", "refit-every"),
        ("shadow", "[DEFAULT]\nrefit = 5\n[simulate]\nsystem = duffing\nrefit = 5\n",
         "refit"),
    ):
        bad = tmp_path / f"{case}.ini"
        bad.write_text(text)
        capsys.readouterr()
        assert run("--config", str(bad), "simulate", "--out", str(tmp_path / case)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"{case}.ini" in err and named in err
    # Keys in [DEFAULT] may serve other subcommands, so they are not checked.
    shared = tmp_path / "shared.ini"
    shared.write_text("[DEFAULT]\nepochs = 5\n[simulate]\nsystem = duffing\nsteps = 25\n")
    assert run("--config", str(shared), "simulate", "--n-traj", "2",
               "--out", str(tmp_path / "d")) == 0
    # The quadrature cap is a constant, so a quad-points key is an unknown option.
    quad = tmp_path / "quad.ini"
    quad.write_text("[expectation]\nquad-points = 200\n")
    capsys.readouterr()
    assert run("--config", str(quad), "expectation", "--out", str(tmp_path / "q")) == 2
    assert "unknown option quad-points" in capsys.readouterr().err
    # argparse's abbreviation of --config reads the file as well
    out3 = tmp_path / "e"
    assert run("--conf", str(cfg), "simulate", "--system", "duffing", "--out", str(out3)) == 0
    assert len([n for n in os.listdir(out3) if n.startswith("traj_")]) == 2


def test_closure_artifacts(tmp_path):
    out = tmp_path / "closure"
    assert run(
        "closure", "--theorems", "loglog", "--configs", "2", "--points", "1500",
        "--alpha-scales", "1,2,5,10,20", "--degrees", "1",
        "--explosion-y", "32,64,128,256,512", "--mc-samples", "20000",
        "--out", str(out)
    ) == 0
    names = sorted(os.listdir(out))
    for want in ("closure_report.csv", "rate_fits.csv", "explosion.csv",
                 "explosion_rates.csv", "bound_check.csv"):
        assert want in names
    bound = (out / "bound_check.csv").read_text().strip().split("\n")
    assert len(bound) == 4  # header + m in 1..3
    assert bound[1].split(",")[-1] == "true"


def test_expectation_artifact(tmp_path):
    out = tmp_path / "expect"
    assert run("expectation", "--a-values", "0.5,2", "--mc-samples", "2000",
               "--out", str(out)) == 0
    lines = (out / "expectation.csv").read_text().strip().split("\n")
    assert lines[0] == "a,kind,mean,variance,mc_mean,mc_stderr"
    assert len(lines) == 5


def test_compare_grid_row_count(tmp_path):
    def compare(workers):
        out = tmp_path / f"cmp{workers}"
        assert run(
            "compare", "--systems", "vanderpol,duffing", "--families", "sill,legendre",
            "--dims", "3", "--seeds", "0,1", "--epochs", "3", "--n-traj", "2",
            "--steps", "20", "--workers", workers, "--out", str(out)
        ) == 0
        return (out / "summary.csv").read_bytes()

    summary = compare("1")
    lines = summary.decode().splitlines()
    assert lines[0] == "system,dictionary,N,n_steps,error,seed"
    # Per system: 1 dim x 2 families x 2 seeds, plus 2 dmd rows, systems in
    # the order given.
    assert len(lines) == 1 + 2 * (4 + 2)
    cells = [r.split(",")[:2] for r in lines[1:]]
    assert [c[0] for c in cells] == ["vanderpol"] * 6 + ["duffing"] * 6
    assert [c[1] for c in cells[:6]] == ["sill"] * 2 + ["legendre"] * 2 + ["dmd"] * 2
    # With a pool, the workers simulate each system's ensembles in one batch
    # and train its cells while the next system simulates.
    assert compare("2") == summary


def test_compare_pool_has_no_more_workers_than_tasks(tmp_path, monkeypatch):
    sizes = []

    class InlinePool:
        """Records its size and runs each task in the calling process."""

        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            return cli._run_now(fn, *args)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    # One simulation, one sill cell and one DMD cell: three tasks.
    argv = ("compare", "--systems", "vanderpol", "--families", "sill", "--dims", "3",
            "--seeds", "0", "--epochs", "3", "--n-traj", "2", "--steps", "20")
    for workers in ("64", "2"):
        assert run(*argv, "--workers", workers, "--out", str(tmp_path / workers)) == 0
    assert sizes == [3, 2]


def test_reruns_are_bitwise_identical(tmp_path):
    def pipeline(root):
        data = root / "data"
        fit = root / "fit"
        assert simulate_small(data, system="toggleswitch", seed=3,
                              extra=("--derivatives",)) == 0
        assert run("fit", "--data", str(data), "--family", "augsill",
                   "--n-members", "3", "--method", "varpro", "--epochs", "6",
                   "--seed", "2", "--out", str(fit)) == 0
        assert run("evaluate", "--model", str(fit / "model.ini"),
                   "--data", str(data), "--out", str(root / "eval")) == 0
        assert run("expectation", "--a-values", "1", "--mc-samples", "2000",
                   "--out", str(root / "exp")) == 0

    a, b = tmp_path / "runA", tmp_path / "runB"
    pipeline(a)
    pipeline(b)
    files_a = csv_files(a)
    files_b = csv_files(b)
    assert files_a.keys() == files_b.keys()
    assert len(files_a) >= 7
    for rel in files_a:
        assert filecmp.cmp(files_a[rel], files_b[rel], shallow=False), rel
