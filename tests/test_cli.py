import filecmp
import os

import pytest

from augsill.cli import main
from augsill.dictionaries import Family
from augsill.solver import load_model

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run(*argv):
    return main(list(argv))


def simulate_small(out, system="vanderpol", seed=0, extra=()):
    return run(
        "simulate", "--system", system, "--n-traj", "3", "--dt", "0.05",
        "--steps", "30", "--seed", str(seed), "--out", str(out), *extra
    )


def csv_files(root):
    found = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            if n.endswith(".csv"):
                rel = os.path.relpath(os.path.join(dirpath, n), root)
                found[rel] = os.path.join(dirpath, n)
    return found


def test_usage_errors_exit_one(capsys):
    assert run() == 1
    assert run("frobnicate") == 1
    assert run("simulate", "--system", "vanderpol") == 1  # --out missing
    assert run("simulate", "--system", "nosuch", "--out", "x") == 1
    capsys.readouterr()


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


def test_fit_sgd_logs_every_epoch(tmp_path):
    data = tmp_path / "data"
    fit = tmp_path / "fit"
    assert simulate_small(data, system="toggleswitch") == 0
    assert run(
        "fit", "--data", str(data), "--family", "augsill", "--n-members", "4",
        "--method", "sgd", "--epochs", "12", "--seed", "1", "--out", str(fit)
    ) == 0
    log = (fit / "training_log.csv").read_text().strip().split("\n")
    assert len(log) == 13
    last = log[-1].split(",")
    assert float(last[1]) > 0


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


def _drop_line(path, prefix):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith(prefix)))


def _corrupt_cell(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace(",", ",abc", 1)
    path.write_text("".join(lines))


@pytest.mark.parametrize("case, named", [
    ("trajectory_cell", "traj_0000.csv"),
    ("trajectory_empty", "traj_0000.csv"),
    ("metadata_constants", "constants"),
    ("model_k_file", "k_file"),
    ("model_k_entry", "model.k.csv"),
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
    elif case == "metadata_constants":
        _drop_line(data / "metadata.ini", "constants")
    elif case == "model_k_file":
        _drop_line(fit / "model.ini", "k_file")
    else:
        _corrupt_cell(fit / "model.k.csv")
    capsys.readouterr()
    code = run("evaluate", "--model", str(fit / "model.ini"), "--data", str(data),
               "--out", str(tmp_path / "eval"))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert named in err


def test_missing_data_dir_exits_two(tmp_path, capsys):
    code = run("fit", "--data", str(tmp_path / "nope"), "--family", "sill",
               "--out", str(tmp_path / "fit"))
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_config_file_overlay(tmp_path):
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
    out = tmp_path / "cmp"
    assert run(
        "compare", "--systems", "vanderpol", "--families", "sill,legendre",
        "--dims", "3", "--seeds", "0,1", "--epochs", "3", "--n-traj", "2",
        "--steps", "20", "--out", str(out)
    ) == 0
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert lines[0] == "system,dictionary,N,n_steps,error,seed"
    # 1 system x 1 dim x 2 families x 2 seeds, plus 2 dmd rows
    assert len(lines) == 1 + 4 + 2
    assert sum(1 for r in lines[1:] if r.split(",")[1] == "dmd") == 2


def test_reruns_are_bitwise_identical(tmp_path):
    def pipeline(root):
        data = root / "data"
        fit = root / "fit"
        assert simulate_small(data, system="toggleswitch", seed=3,
                              extra=("--derivatives",)) == 0
        assert run("fit", "--data", str(data), "--family", "augsill",
                   "--n-members", "3", "--method", "sgd", "--epochs", "6",
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
