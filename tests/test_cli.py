import math
import os
from pathlib import Path

import numpy as np
import pytest

from lqmfg import TimeGrid, solve_nce, write_model_file
from lqmfg.cli import (_entry_names, _fmt, _psd_minimum, _write_path_csv,
                       main)
from lqmfg.ode import MatrixPath

from helpers import build_model, random_n3k3, zero_weight

MODELS = Path(__file__).resolve().parents[1] / "models"
SCALAR = str(MODELS / "scalar.model")


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_solve_nce_outputs(tmp_path, scalar_model):
    out = tmp_path / "run"
    code = main(["solve", "nce", "--model", SCALAR, "--grid", "200",
                 "--out", str(out)])
    assert code == 0
    for name in ("nce_P0.csv", "nce_s0.csv", "nce_P1.csv", "nce_s1.csv",
                 "nce_Abar.csv", "nce_Gbar.csv", "nce_mbar.csv",
                 "summary.txt"):
        assert (out / name).exists()

    # column 0 is time, column 1 the single kernel entry; the 17-digit
    # format must reproduce the in-process doubles bit for bit
    sol = solve_nce(scalar_model, TimeGrid(M=200, T=1.0))
    data = read_csv(out / "nce_P0.csv")
    assert np.array_equal(data[:, 1], sol.P0.values[:, 0, 0])
    assert "verdict: solved" in (out / "summary.txt").read_text()


def test_solve_reruns_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "master", "--model", SCALAR, "--grid", "100",
                     "--out", str(out)]) == 0
        outs.append(out)
    for fname in os.listdir(outs[0]):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def _joined_csv(mp, prefix):
    """The path CSV built as one string, entry by entry with _fmt."""
    lines = [",".join(["t"] + _entry_names(prefix, mp.state_shape))]
    flat = mp.values.reshape(mp.values.shape[0], -1)
    for t, row in zip(mp.grid.nodes, flat):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in row]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_path_csv_bytes_match_entrywise_format(tmp_path):
    grid = TimeGrid(M=11, T=0.7)
    special = np.array([-0.0, 5e-324, 1e16, 1.0 / 3.0, 1e300, -1e300,
                        1e-300, -1e-300, 0.1, -2.5e-17, 123456789.0, 1.0])
    rng = np.random.default_rng(5)
    for shape, prefix in (((2, 3), "P0"), ((4,), "S1"), ((), "r")):
        size = (12,) + shape
        vals = (rng.standard_normal(size)
                * 10.0 ** rng.integers(-20, 20, size=size)).reshape(12, -1)
        vals[:, 0] = special
        mp = MatrixPath(grid, vals.reshape(size))
        path = tmp_path / f"{prefix}.csv"
        _write_path_csv(str(path), mp, prefix)
        assert path.read_bytes() == _joined_csv(mp, prefix)


def test_psd_minimum_matches_per_matrix_loop():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 2, 3, 3))
    values = a + np.swapaxes(a, -1, -2)
    loop = min(float(np.linalg.eigvalsh(v).min())
               for v in values.reshape(-1, 3, 3))
    assert _psd_minimum(values) == loop
    assert _psd_minimum(values[:, 1]) == min(
        float(np.linalg.eigvalsh(v).min()) for v in values[:, 1])


def test_missing_model_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.model")
    code = main(["solve", "nce", "--model", missing, "--out",
                 str(tmp_path)])
    assert code == 1
    assert "nope.model" in capsys.readouterr().err


def test_bad_arguments_exit_one(tmp_path, capsys):
    assert main(["solve", "warp", "--model", SCALAR]) == 1
    assert main(["solve", "nce", "--model", SCALAR, "--grid", "xx"]) == 1
    assert main([]) == 1
    for tol in ("nan", "-1e-9", "inf"):
        assert main(["compare", "nce-master", "--model", SCALAR,
                     f"--tol={tol}", "--out", str(tmp_path)]) == 1
        assert "tolerance must be finite and non-negative" in capsys.readouterr().err


SOLVE_FILES = {
    ("scalar", "master"): ["master_P0", "master_s0", "master_r0", "master_P1",
                           "master_s1", "master_r_minor"],
    ("scalar", "lambda"): ["lambda_" + key for key in
                           ("1_0", "2_0", "3_0", "0", "1", "2", "3", "a", "b")],
    ("scalar", "finite-n"): ["finite_P0", "finite_P1", "finite_S0",
                             "finite_S1"],
    ("twotype", "nce"): ["nce_P0", "nce_s0", "nce_P1", "nce_s1", "nce_P2",
                         "nce_s2", "nce_Abar", "nce_Gbar", "nce_mbar"],
    ("twotype", "master"): ["master_P0", "master_s0", "master_r0",
                            "master_P1", "master_s1", "master_P2",
                            "master_s2", "master_r_minor"],
}


@pytest.mark.parametrize("model,system", sorted(SOLVE_FILES))
def test_solve_writes_exact_file_set(tmp_path, capsys, model, system):
    out = tmp_path / "run"
    code = main(["solve", system, "--model", str(MODELS / f"{model}.model"),
                 "--grid", "50", "--N", "4", "--out", str(out)])
    assert code == 0
    expected = {name + ".csv" for name in SOLVE_FILES[(model, system)]}
    assert set(os.listdir(out)) == expected | {"summary.txt"}
    assert "verdict: solved" in capsys.readouterr().out


# summary.txt of an escaping solve at --grid 100: (system, --N) -> lines,
# with the norm at escape compared to 1e-12
ESCAPE_SUMMARIES = {
    ("master", "4"): ["system: master", "grid: M=100 T=1",
                      "verdict: finite escape", "escape node: 97",
                      "escape time: 0.96999999999999997",
                      "norm at escape: 5.6317233063726562e+29",
                      "threshold: 1000000000000"],
    ("finite-n", "32"): ["system: finite-n", "grid: M=100 T=1",
                         "verdict: finite escape", "escape node: 96",
                         "escape time: 0.95999999999999996",
                         "norm at escape: 1.0426223412861666e+99",
                         "threshold: 1000000000000"],
}


@pytest.mark.parametrize("system,N", sorted(ESCAPE_SUMMARIES))
def test_escape_summary_is_pinned(tmp_path, blowup_models, capsys, system, N):
    path = str(tmp_path / "escape.model")
    write_model_file(path, blowup_models["weight-scale"],
                     header="deviation weights past the critical scale")
    out = tmp_path / "esc"
    code = main(["solve", system, "--model", path, "--grid", "100",
                 "--N", N, "--out", str(out)])
    assert code == 2
    assert os.listdir(out) == ["summary.txt"]
    lines = (out / "summary.txt").read_text().splitlines()
    assert capsys.readouterr().out.splitlines() == lines
    _check_escape_lines(lines, ESCAPE_SUMMARIES[(system, N)])


def _check_escape_lines(lines, expected):
    assert len(lines) == len(expected)
    for got, want in zip(lines, expected):
        if want.startswith("norm at escape: "):
            assert got.startswith("norm at escape: ")
            assert math.isclose(float(got.split(": ")[1]),
                                float(want.split(": ")[1]), rel_tol=1e-12)
        else:
            assert got == want


# first summary line of an escaping compare or simulate run on the
# Gamma2 = 3 model at --grid 50
ESCAPE_BRANCHES = {
    ("compare", "nce-master"): "finite escape: nce=True master=True",
    ("compare", "lambda-phi"): "finite escape: nce=True lambda=True",
    ("simulate", "--feedback=nce"): "verdict: finite escape",
    ("simulate", "--feedback=master"): "verdict: finite escape",
}


@pytest.mark.parametrize("command,arg", sorted(ESCAPE_BRANCHES))
def test_escape_branches_write_summary(tmp_path, capsys, command, arg):
    path = str(tmp_path / "gamma3.model")
    write_model_file(path, build_model(Gamma2=[[3.0]], Gamma2f=[[3.0]]))
    out = tmp_path / "esc"
    code = main([command, arg, "--model", path, "--grid", "50", "--N", "8",
                 "--out", str(out)])
    assert code == 2
    assert os.listdir(out) == ["summary.txt"]
    lines = (out / "summary.txt").read_text().splitlines()
    assert capsys.readouterr().out.splitlines() == lines
    assert lines[0] == ESCAPE_BRANCHES[(command, arg)]


def test_finite_structure_escape_writes_summary(tmp_path, blowup_models,
                                                capsys):
    # the finite system does not escape on the Gamma2 = 3 model (N <= 64),
    # so this branch runs on the weight-scale blow-up model
    path = str(tmp_path / "escape.model")
    write_model_file(path, blowup_models["weight-scale"])
    out = tmp_path / "esc"
    code = main(["compare", "finite-structure", "--model", path,
                 "--grid", "100", "--N", "32", "--out", str(out)])
    assert code == 2
    assert os.listdir(out) == ["summary.txt"]
    lines = (out / "summary.txt").read_text().splitlines()
    assert capsys.readouterr().out.splitlines() == lines
    _check_escape_lines(lines, ESCAPE_SUMMARIES[("finite-n", "32")][2:])


def test_compare_nce_master(tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", "nce-master", "--model", SCALAR,
                 "--grid", "150", "--out", str(out)])
    assert code == 0
    text = (out / "summary.txt").read_text()
    assert "PASS" in text
    rows = (out / "compare_nce_master.csv").read_text().strip().splitlines()
    assert rows[0] == "name,diff,tol,pass"
    assert all(line.endswith(",True") for line in rows[1:])


def test_compare_tolerance_is_honored(tmp_path):
    code = main(["compare", "nce-master", "--model", SCALAR,
                 "--grid", "100", "--tol", "1e-30",
                 "--out", str(tmp_path / "strict")])
    assert code == 2


def test_compare_lambda_phi(tmp_path):
    out = tmp_path / "lp"
    code = main(["compare", "lambda-phi", "--model", SCALAR,
                 "--grid", "150", "--out", str(out)])
    assert code == 0
    assert "PASS" in (out / "summary.txt").read_text()


def test_compare_finite_structure(tmp_path, capsys):
    out = tmp_path / "fs"
    code = main(["compare", "finite-structure", "--model", SCALAR,
                 "--grid", "60", "--N", "6", "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    rows = (out / "finite_structure.csv").read_text().strip().splitlines()
    assert rows[0] == "matrix,node,clusters"
    assert len(rows) == 1 + 2 * 61


def test_compare_finite_structure_needs_one_n(tmp_path, capsys):
    for N in ("4,8", None):
        argv = ["compare", "finite-structure", "--model", SCALAR,
                "--grid", "20", "--out", str(tmp_path / "fs")]
        if N is not None:
            argv += ["--N", N]
        assert main(argv) == 1
        assert "exactly one value" in capsys.readouterr().err
    assert not (tmp_path / "fs" / "summary.txt").exists()


def test_check_solvability(tmp_path):
    out = tmp_path / "solv"
    code = main(["check-solvability", "--model", SCALAR, "--grid", "100",
                 "--N", "4,8,16", "--out", str(out)])
    assert code == 0
    rows = (out / "solvability.csv").read_text().strip().splitlines()
    assert rows[0] == "N,sup_node_norm,escape_node"
    assert len(rows) == 4
    assert "consistent" in (out / "summary.txt").read_text()


def test_check_solvability_rejects_small_n(tmp_path, capsys):
    code = main(["check-solvability", "--model", SCALAR, "--grid", "20",
                 "--N", "8,0,4", "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "N=0" in capsys.readouterr().err


def test_escaping_model_exits_two(tmp_path, blowup_models, capsys):
    path = str(tmp_path / "escape.model")
    write_model_file(path, blowup_models["weight-scale"],
                     header="deviation weights past the critical scale")
    out = tmp_path / "esc"
    code = main(["solve", "nce", "--model", path, "--grid", "400",
                 "--out", str(out)])
    assert code == 2
    text = (out / "summary.txt").read_text()
    assert "finite escape" in text
    assert "escape time" in text
    capsys.readouterr()

    code = main(["solve", "lambda", "--model", path, "--grid", "400",
                 "--out", str(tmp_path / "esc2")])
    assert code == 2
    capsys.readouterr()

    # divergence of the finite systems matches the lambda escape, so the
    # cross-check itself still reports agreement
    code = main(["check-solvability", "--model", path, "--grid", "400",
                 "--N", "2,4,8", "--out", str(tmp_path / "esc3")])
    assert code == 0


def test_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--model", SCALAR, "--grid", "50",
                 "--N", "8", "--dt", "0.02", "--seed", "0,1",
                 "--out", str(out)])
    assert code == 0
    for name in ("sim_traj_N8_seed0.csv", "sim_error_N8_seed0.csv",
                 "sim_traj_N8_seed1.csv", "sim_error_N8_seed1.csv",
                 "sim_costs.csv", "summary.txt"):
        assert (out / name).exists()
    costs = (out / "sim_costs.csv").read_text().strip().splitlines()
    assert costs[0] == "N,player,mean,std_error,samples"
    assert len(costs) == 3


def test_simulate_usage_errors(tmp_path, capsys):
    assert main(["simulate", "--model", SCALAR, "--grid", "50",
                 "--out", str(tmp_path)]) == 1
    assert main(["simulate", "--model", SCALAR, "--grid", "50",
                 "--N", "4,8", "--type-counts", "4",
                 "--out", str(tmp_path)]) == 1
    assert main(["simulate", "--model", SCALAR, "--grid", "50",
                 "--N", "4", "--dt", "0.007",
                 "--out", str(tmp_path)]) == 1
    assert main(["simulate", "--model", SCALAR, "--grid", "50",
                 "--N", "0", "--dt", "0.02",
                 "--out", str(tmp_path)]) == 1
    assert "population size must be at least 1" in capsys.readouterr().err
    assert main(["simulate", "--model", SCALAR, "--grid", "50",
                 "--N", "4", "--dt", "0",
                 "--out", str(tmp_path)]) == 1
    assert "time step must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "summary.txt").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_exploding_state_exits_two(tmp_path, capsys):
    # dt A = -25 at the default dt = T/4000: the Euler recursion explodes
    path = str(tmp_path / "stiff.model")
    write_model_file(path, zero_weight(A=np.array([[[-1e5]]])))
    code = main(["simulate", "--model", path, "--grid", "50", "--N", "4",
                 "--out", str(tmp_path / "sim")])
    assert code == 2
    assert ("error: state exploded at step 221 (t=0.05525)"
            in capsys.readouterr().err)


def test_simulate_rejects_duplicate_n(tmp_path, capsys):
    assert main(["simulate", "--model", SCALAR, "--grid", "50",
                 "--N", "2,2", "--dt", "0.02", "--out", str(tmp_path)]) == 1
    assert "population size twice" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_simulate_rejects_empty_types_before_solving(tmp_path, capsys,
                                                     monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate called")

    monkeypatch.setattr("lqmfg.sim.simulate", refuse)
    monkeypatch.setattr("lqmfg.nce.solve_nce", refuse)
    out = tmp_path / "given"
    assert main(["simulate", "--model", str(MODELS / "twotype.model"),
                 "--N", "6", "--type-counts", "6,0",
                 "--out", str(out)]) == 1
    assert ("error: no players of type 2 at N=6 (type counts 6,0)"
            in capsys.readouterr().err)
    assert os.listdir(out) == []

    # default counts of a three-type model leave a type empty at N = 2
    path = str(tmp_path / "n3k3.model")
    write_model_file(path, random_n3k3())
    out = tmp_path / "default"
    assert main(["simulate", "--model", path, "--N", "2",
                 "--out", str(out)]) == 1
    assert "no players of type" in capsys.readouterr().err
    assert os.listdir(out) == []
