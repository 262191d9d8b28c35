import math
import os
import time
import tracemalloc
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lqmfg import (TimeGrid, empirical_mean_error, evaluate_cost, load_model,
                   simulate, solve_master, solve_nce, write_model_file)
from lqmfg import cli, errors
from lqmfg.cli import (_BLOCK_CELLS, _downsample, _entry_names, _fmt,
                       _psd_minimum, _write_path_csv, _write_table, main)
from lqmfg.ode import MatrixPath

from helpers import (build_model, many_types, random_n3k3, route_draw,
                     zero_weight)

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


def _joined_table(names, t, flat):
    """A float CSV built as one string, entry by entry with _fmt."""
    lines = [",".join(names)]
    for ti, row in zip(t, flat):
        lines.append(",".join([_fmt(ti)] + [_fmt(v) for v in row]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _joined_csv(mp, prefix):
    """The path CSV built as one string, entry by entry with _fmt."""
    return _joined_table(["t"] + _entry_names(prefix, mp.state_shape),
                         mp.grid.nodes,
                         mp.values.reshape(mp.values.shape[0], -1))


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


def _bits(*words):
    return np.array(words, dtype=np.uint64).view(np.float64).tolist()


# values where formatting once per distinct bit pattern could go wrong:
# both zeros, subnormals, huge values, infinities and NaNs of either sign
# and with payloads, and a few ordinary doubles to repeat
TRICKY = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
          1e300, -1e300, math.inf, -math.inf, 1.0, 2.0, 0.1, 1.0 / 3.0,
          *_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                 0xFFF00000000ABCDE, 0x7FFFFFFFFFFFFFFF)]
def _check_table(path, shape, table):
    """_write_table and, for a finite table of two rows or more, the path
    writer give the bytes of the entrywise format."""
    names = ["t"] + _entry_names("P", shape)
    _write_table(str(path), names, table[:, 0], table[:, 1:])
    assert path.read_bytes() == _joined_table(names, table[:, 0], table[:, 1:])

    rows = table.shape[0]
    if rows > 1:
        grid = TimeGrid(M=rows - 1, T=1.0)
        values = np.where(np.isfinite(table[:, 1:]), table[:, 1:], -0.0)
        values[:, 0] = grid.nodes[::-1]         # times equal to entries
        mp = MatrixPath(grid, values.reshape((rows,) + shape))
        _write_path_csv(str(path), mp, "P")
        assert path.read_bytes() == _joined_csv(mp, "P")


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.sampled_from([(), (1,), (5,), (1, 1), (2, 3), (3, 3)]),
       cells=st.sampled_from([1, 6, 24, 64]),
       offset=st.sampled_from([None, -1, 0, 1]), data=st.data())
def test_table_bytes_match_entrywise_format(tmp_path, shape, cells, offset,
                                            data):
    # small blocks, so that 1 row, a block less or more one row and several
    # blocks (101 rows = M + 1 at M = 100) all stay cheap
    width = int(np.prod(shape)) + 1
    step = max(1, cells // width)
    rows = 1 if offset is None else max(1, step + offset)
    rows = data.draw(st.sampled_from([rows, 101]))
    cell = st.one_of(st.sampled_from(TRICKY), st.floats(width=64))
    table = data.draw(arrays(np.float64, (rows, width), elements=cell))
    # +0.0 and -0.0 in one row and block, the time equal to an entry, and
    # the first row repeated in the last (another block once rows > step)
    table[0, 0], table[0, -1] = 0.0, -0.0
    table[-1, 0] = table[0, -1]
    table[-1, 1:] = table[0, 1:]
    with mock.patch.object(cli, "_BLOCK_CELLS", cells):
        _check_table(tmp_path / "table.csv", shape, table)


@pytest.mark.parametrize("shape", [(), (33, 33)])
def test_table_bytes_at_full_blocks(tmp_path, shape):
    width = int(np.prod(shape)) + 1
    rows = _BLOCK_CELLS // width + 1
    rng = np.random.default_rng(width)
    table = rng.choice(np.array(TRICKY[:8] + [0.25, -3.5]), (rows, width))
    table[:, 0] = rng.standard_normal(rows)
    _check_table(tmp_path / "table.csv", shape, table)


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


@pytest.mark.parametrize("command", [
    ["solve", "nce"], ["compare", "nce-master"], ["check-solvability"],
    ["simulate", "--N", "4"]], ids=["solve", "compare", "check", "simulate"])
@pytest.mark.parametrize("bad", ["missing", "typed", "grid"])
def test_a_bad_model_or_grid_exits_one_before_the_output_directory(
        tmp_path, capsys, command, bad):
    """Every command reads its model and builds its grid before it
    creates --out: a missing or wrongly typed model file and a grid of no
    steps exit 1 with one error line and leave no output directory."""
    model, grid = SCALAR, "100"
    if bad == "missing":
        model = str(tmp_path / "nope.model")
    elif bad == "typed":
        model = _scalar_with(tmp_path, "n", "1.7")
    else:
        grid = "0"
    out = tmp_path / "out"
    assert main([*command, "--model", model, "--grid", grid,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _scalar_with(tmp_path, key, value):
    """The shipped scalar model with one key's value replaced."""
    lines = [f"{key} = {value}" if line.split("=")[0].strip() == key else line
             for line in Path(SCALAR).read_text().splitlines()]
    path = tmp_path / "bad.model"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("key,value", [
    ("n", "[1]"), ("T", "[1.0]"), ("A0", "{1: 2}"), ("K", "1e400"),
    ("n", "1.7"), ("n1", "True"), ("rho", "'0.1'"), ("pi", "[[1.0], [2.0, 3.0]]"),
])
def test_wrongly_typed_model_values_exit_one(tmp_path, capsys, key, value):
    """A value of the wrong type names its key and exits 1 before any
    solve; a non-integral or bool count is refused, not truncated."""
    path = _scalar_with(tmp_path, key, value)
    with mock.patch("lqmfg.nce.solve_nce", side_effect=AssertionError):
        code = main(["solve", "nce", "--model", path, "--out",
                     str(tmp_path / "out")])
    assert code == 1
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("key", ["T", "rho"])
def test_non_finite_horizon_or_discount_exits_one(tmp_path, capsys, key):
    """1e400 reads as inf; it is refused with its key before any solve."""
    path = _scalar_with(tmp_path, key, "1e400")
    with mock.patch("lqmfg.nce.solve_nce", side_effect=AssertionError):
        code = main(["solve", "nce", "--model", path, "--out",
                     str(tmp_path / "out")])
    assert code == 1
    assert f"error: {key} must be" in capsys.readouterr().err


def test_horizon_past_the_default_grid_exits_one(tmp_path, capsys):
    """A finite T whose default step count overflows names T and --grid."""
    path = _scalar_with(tmp_path, "T", "1e308")
    code = main(["solve", "nce", "--model", path, "--out",
                 str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: T = 1e+308")
    assert "--grid" in err and "Traceback" not in err


def test_drifts_of_different_shapes_exit_one(tmp_path, capsys):
    """The first per-type drift whose shape differs from A1's is named."""
    text = (MODELS / "twotype.model").read_text()
    path = tmp_path / "bad.model"
    path.write_text(text.replace("A2 = [[-0.2]]",
                                 "A2 = [[1.0, 2.0], [3.0, 4.0]]"))
    with mock.patch("lqmfg.nce.solve_nce", side_effect=AssertionError):
        code = main(["solve", "nce", "--model", str(path), "--out",
                     str(tmp_path / "out")])
    assert code == 1
    assert "'A2'" in capsys.readouterr().err


@pytest.mark.parametrize("name,old,new,line,words", [
    ("scalar", "pi = [1.0]\n", "pi = [1.0]\nrho = 0.2\n", 10,
     "duplicate key 'rho'"),
    ("scalar", "pi = [1.0]\n", "pi = [1.0\n", 9, "'[' was never closed"),
    ("scalar", "T = 1.0\nrho = 0.1\n", "T = 1.0; rho = 0.1\n", 6,
     "expected one 'key = literal' per line"),
    ("scalar", "pi = [1.0]\n", "pi = [1.0]\noops\n", 10,
     "expected one 'key = literal' per line"),
    ("scalar", "rho = 0.1\n", "rho = 0.05 * 2\n", 7, "'rho' is not a literal"),
    ("scalar", "xi_cov = [[0.04]]\n", "", None, "missing key 'xi_cov'"),
    ("scalar", "pi = [1.0]\n", "pi = [1.0]\nzeta = 1.0\n", 10,
     "unknown key 'zeta'"),
    ("scalar", "K = 1\n", "K = 0\n", 5, "'K' must be at least 1"),
    ("twotype", "A2 = [[-0.2]]", "A2 = [[1.0, 2.0], [3.0, 4.0]]", 9,
     "'A2' has shape (2, 2)"),
], ids=["duplicate key", "unclosed bracket", "two on a line",
        "not an assignment", "expression", "missing key", "unknown key",
        "no types", "drift shapes differ"])
def test_malformed_model_file_exits_one_naming_file_and_line(
        tmp_path, capsys, name, old, new, line, words):
    """A structural fault of the file is one error line that names the file
    (and the line, where the reader knows it), before any solve."""
    text = (MODELS / f"{name}.model").read_text()
    assert old in text
    path = tmp_path / "bad.model"
    path.write_text(text.replace(old, new))
    with mock.patch("lqmfg.nce.solve_nce", side_effect=AssertionError):
        code = main(["solve", "nce", "--model", str(path), "--out",
                     str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    where = str(path) if line is None else f"{path}:{line}"
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1
    assert words in err


@pytest.mark.parametrize("K", [0, -2])
def test_type_count_below_one_exits_one(tmp_path, capsys, K):
    """K is checked before the drifts A1..AK are read and stacked."""
    lines = (MODELS / "scalar.model").read_text().splitlines()
    lines = [f"K = {K}" if line.startswith("K =") else line
             for line in lines if not line.startswith("A1 =")]
    path = tmp_path / "bad.model"
    path.write_text("\n".join(lines) + "\n")
    with mock.patch("lqmfg.nce.solve_nce", side_effect=AssertionError):
        code = main(["solve", "nce", "--model", str(path), "--out",
                     str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "'K' must be at least 1" in err
    assert "stack" not in err


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


def test_compare_lambda_phi_refuses_k_not_one_before_solving(tmp_path,
                                                             capsys,
                                                             monkeypatch):
    """K = 2 exits 1 with the limit route's refusal, before the nce
    solve (a full solve on the default grid) runs, and writes nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("nce solved before K was checked")

    monkeypatch.setattr(cli.nce, "solve_nce", refuse)
    out = tmp_path / "lp"
    code = main(["compare", "lambda-phi", "--model",
                 str(MODELS / "twotype.model"), "--out", str(out)])
    assert code == 1
    assert ("error: limit-system route needs K=1, got K=2"
            in capsys.readouterr().err)
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv,route", [
    (["solve", "lambda"], "limit-system route"),
    (["solve", "finite-n", "--N", "4"], "finite-population route"),
], ids=["lambda", "finite-n"])
def test_k_not_one_refusal_names_the_refusing_route(tmp_path, capsys, argv,
                                                    route):
    code = main(argv + ["--model", str(MODELS / "twotype.model"),
                        "--grid", "10", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {route} needs K=1, got K=2\n"


def test_an_overflowing_offset_exits_two_naming_the_segment(tmp_path, capsys,
                                                            monkeypatch):
    """A field whose first offset overflows float64 while the kernels stay
    bounded (no route field does; this one is patched into the nce solve)
    ends in SegmentOverflow: exit 2 and one error line naming the entries
    past the kernels, the offsets and constants."""
    march = cli.nce.integrate_backward

    def overflowing(field, terminal, grid, **keywords):
        first = keywords["escape_length"]

        def offset_overflow(t, w):
            out = field(t, w).copy()
            out[first] = 1e300 * (1.0 + w[first] * w[first])
            return out

        return march(offset_overflow, terminal, grid, **keywords)

    monkeypatch.setattr(cli.nce, "integrate_backward", overflowing)
    out = tmp_path / "nce"
    code = main(["solve", "nce", "--model", SCALAR, "--grid", "10",
                 "--out", str(out)])
    assert code == 2
    # the scalar model's 13 kernel entries are followed by 5 offsets
    assert capsys.readouterr().err == (
        "error: the offsets and constants (state entries 13 to 17, past the "
        "kernels) overflowed float64 at entry 13 near t=1.0; the kernels "
        "stayed below the escape threshold\n")
    assert not (out / "summary.txt").exists()


def test_compare_finite_structure(tmp_path, capsys):
    out = tmp_path / "fs"
    code = main(["compare", "finite-structure", "--model", SCALAR,
                 "--grid", "60", "--N", "6", "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    rows = (out / "finite_structure.csv").read_text().strip().splitlines()
    assert rows[0] == "matrix,node,clusters"
    assert len(rows) == 1 + 2 * 61


def test_compare_finite_structure_summary_is_pinned(tmp_path, capsys):
    out = tmp_path / "fs8"
    code = main(["compare", "finite-structure", "--model", SCALAR,
                 "--grid", "60", "--N", "8", "--out", str(out)])
    assert code == 0
    lines = ["N=8, tile tolerance 1.0e-08",
             "P0: 3 tile clusters across nodes",
             "P1: 6 tile clusters across nodes",
             "tile scalings: 1_0:N^0, 2_0:N^1, 3_0:N^2, 0:N^0, 1:N^0, "
             "2:N^1, 3:N^2, a:N^0, b:N^1"]
    assert (out / "summary.txt").read_text() == "\n".join(lines) + "\n"
    assert capsys.readouterr().out.splitlines() == lines + [
        "structure bound (<=3 / <=6 clusters): PASS"]


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


def test_check_solvability_caps_dimension_before_solving(tmp_path, capsys,
                                                        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("finite system solved")

    monkeypatch.setattr("lqmfg.asymptotic.solve_lambda", refuse)
    monkeypatch.setattr("lqmfg.ode._rk4_step", refuse)
    out = tmp_path / "cap"
    # the tile path has one size for every N: 9 + 5 floats per node for
    # the scalar model, so 40000001 nodes take 4.48 GB, and the one batch
    # of the three N's tile paths 13.44 GB
    code = main(["check-solvability", "--model", SCALAR, "--grid", "40000000",
                 "--N", "8,16,500", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert ("3 paths of 40000001 states of 14 floats needs 13440000336 "
            "bytes, over the budget") in err
    assert not (out / "solvability.csv").exists()


@pytest.mark.parametrize("N", [str(2 ** 53 + 1), "9" * 400])
def test_population_past_float_range_exits_one(tmp_path, capsys, monkeypatch,
                                               N):
    """Above 2**53, N - 1 rounds to N (and 400 digits overflow float):
    refused naming N before anything is solved or allocated."""
    def refuse(*args, **kwargs):
        raise AssertionError("solved past the float range")

    for name in ("solve_tiles", "_solve_tiles", "solve_lambda",
                 "_finite_field"):
        monkeypatch.setattr(f"lqmfg.asymptotic.{name}", refuse)
    tracemalloc.start()
    try:
        for argv in (["check-solvability", "--N", f"8,16,{N}"],
                     ["solve", "finite-n", "--N", N]):
            code = main(argv + ["--model", SCALAR, "--grid", "20",
                                "--out", str(tmp_path / "big")])
            assert code == 1
            assert f"N={N} exceeds 2**53" in capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert not (tmp_path / "big" / "solvability.csv").exists()


def test_check_solvability_cost_does_not_grow_with_n(tmp_path, capsys):
    """The tile system has one size for every N: a million minor players
    take what eight do."""
    out = tmp_path / "large"
    argv = ["check-solvability", "--model", SCALAR, "--grid", "100",
            "--N", "1000,10000,1000000", "--out", str(out)]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "verdicts consistent: True" in capsys.readouterr().out
    rows = (out / "solvability.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["1000", "10000",
                                                       "1000000"]
    assert elapsed < 1.0


def test_check_solvability_rejects_small_n(tmp_path, capsys):
    code = main(["check-solvability", "--model", SCALAR, "--grid", "20",
                 "--N", "8,0,4", "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "N=0" in capsys.readouterr().err


@pytest.mark.parametrize("N,count", [("5", 1), (",", 0), ("8,16,8", 2)])
def test_check_solvability_needs_three_distinct_n(tmp_path, capsys, N,
                                                  count):
    """The bounded-tail heuristic reads the three largest N, and an
    explicit empty list is not the default 4,8,16."""
    out = tmp_path / "few"
    code = main(["check-solvability", "--model", SCALAR, "--grid", "20",
                 "--N", N, "--out", str(out)])
    assert code == 1
    assert (f"need at least three distinct N, got {count}\n"
            in capsys.readouterr().err)
    assert not (out / "solvability.csv").exists()


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


def test_runs_in_one_process_parse_apart(tmp_path):
    """main builds the parser once per process; each run parses its own
    arguments, so one run's --seed does not reach the next, and the
    --seed default stays [0]."""
    assert cli.build_parser() is cli.build_parser()
    for seeds, argv in (("3,5", ["--seed", "3,5"]), ("0", [])):
        out = tmp_path / seeds
        assert main(["simulate", "--model", SCALAR, "--grid", "50",
                     "--N", "4", "--dt", "0.02", "--out", str(out)]
                    + argv) == 0
        assert f"seeds: {seeds}\n" in (out / "summary.txt").read_text()
    args = cli.build_parser().parse_args(["simulate", "--model", SCALAR])
    assert args.seed == [0]


def test_simulate_stores_only_the_paths_it_writes(tmp_path):
    """The estimators read per-node sums, so a run keeps the three paths
    sim_traj shows: N = 2000 players over 4000 steps peak below one
    (N, S+1, n) path."""
    tracemalloc.start()
    try:
        assert main(["simulate", "--model", SCALAR, "--grid", "50",
                     "--N", "2000", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 4001 * 8


def test_simulate_many_seeds_need_the_memory_of_one(tmp_path):
    """Each seed's trajectory is reduced to its two costs before the next
    seed is simulated: the traced peak of three seeds stays near that of
    one, and the costs are evaluate_cost's over the whole batch."""
    def peak(seeds):
        tracemalloc.start()
        try:
            assert main(["simulate", "--model", SCALAR, "--grid", "50",
                         "--N", "200", "--dt", "0.001", "--seed", seeds,
                         "--out", str(tmp_path / seeds)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak("0,1,2") < 1.5 * peak("0")
    model = load_model(SCALAR)
    sol = solve_nce(model, TimeGrid(M=50, T=model.T))
    batch = [simulate(sol, 200, dt=0.001, seed=seed)
             for seed in (0, 1, 2)]
    want = ["N,player,mean,std_error,samples"]
    for player in (0, 1):
        est = evaluate_cost(batch, player)
        want.append(f"200,{player},{_fmt(est.mean)},{_fmt(est.std_error)},3")
    assert (tmp_path / "0,1,2" / "sim_costs.csv").read_text().splitlines() == want


def _sim_csvs_entrywise(model, sol, N, seed, use_empirical):
    """sim_traj and sim_error bytes as written row by row with _fmt."""
    traj = simulate(sol, N, seed=seed, use_empirical=use_empirical)
    err = empirical_mean_error(traj)
    idx = _downsample(200, traj.times.shape[0])
    show = min(N, 3)
    names = (["t"] + _entry_names("X0", (model.n,))
             + _entry_names("Zbar", (model.n * model.K,))
             + _entry_names("U0", (model.n1,)))
    for i in range(show):
        names += _entry_names(f"X{i + 1}", (model.n,))
    traj_lines = [",".join(names)]
    for s in idx:
        row = ([traj.times[s]] + list(traj.X0[s]) + list(traj.Zbar[s])
               + list(traj.U0[s]))
        for i in range(show):
            row += list(traj.X[i, s])
        traj_lines.append(",".join(_fmt(v) for v in row))
    error_lines = ["t,type,error"]
    for k in range(model.K):
        for s in idx:
            error_lines.append(f"{_fmt(err.times[s])},{k + 1},"
                               f"{_fmt(err.per_type[k, s])}")
    return [("\n".join(lines) + "\n").encode("utf-8")
            for lines in (traj_lines, error_lines)]


@pytest.mark.parametrize("feedback,empirical", [("nce", False),
                                                ("master", True)])
def test_simulate_csv_bytes_match_entrywise_format(tmp_path, feedback,
                                                   empirical):
    path = str(MODELS / "twotype.model")
    out = tmp_path / "sim"
    argv = ["simulate", "--model", path, "--grid", "50", "--N", "5",
            "--seed", "4", "--feedback", feedback, "--out", str(out)]
    assert main(argv + (["--use-empirical"] if empirical else [])) == 0
    model = load_model(path)
    grid = TimeGrid(M=50, T=model.T)
    sol = (solve_master if feedback == "master" else solve_nce)(model, grid)
    want = _sim_csvs_entrywise(model, sol, 5, 4, empirical)
    assert (out / "sim_traj_N5_seed4.csv").read_bytes() == want[0]
    assert (out / "sim_error_N5_seed4.csv").read_bytes() == want[1]


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
    # an empty item of a comma list is refused, not dropped
    for option, text in (("--seed", "1,,2"), ("--N", "8,,16"),
                         ("--type-counts", "4,,6")):
        assert main(["simulate", "--model", SCALAR, "--grid", "50",
                     "--N", "10", option, text,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"expected a comma-separated integer list, got '{text}'" in err
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

    # counts that do not partition N into the K types
    for counts in ("7,-1", "3,2", "6"):
        out = tmp_path / f"partition{counts}"
        assert main(["simulate", "--model", str(MODELS / "twotype.model"),
                     "--N", "6", "--type-counts", counts,
                     "--out", str(out)]) == 1
        assert "do not partition N=6" in capsys.readouterr().err
        assert os.listdir(out) == []

    # default counts of a three-type model leave a type empty at N = 2
    path = str(tmp_path / "n3k3.model")
    write_model_file(path, random_n3k3())
    out = tmp_path / "default"
    assert main(["simulate", "--model", path, "--N", "2",
                 "--out", str(out)]) == 1
    assert "no players of type" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("feedback", ["nce", "master"])
def test_simulate_checks_size_and_step_before_solving(tmp_path, capsys,
                                                      monkeypatch, feedback):
    def refuse(*args, **kwargs):
        raise AssertionError("feedback solved")

    monkeypatch.setattr("lqmfg.nce.solve_nce", refuse)
    monkeypatch.setattr("lqmfg.master.solve_master", refuse)
    cases = [
        (["--N", "0"], "population size must be at least 1, got N=0"),
        (["--N", "4,0"], "population size must be at least 1, got N=0"),
        (["--N", "4", "--dt", "0"], "time step must be finite and positive"),
        (["--N", "4", "--dt", "0.0003"],
         "dt=0.0003 does not divide the grid spacing 0.0005"),
        # a subnormal dt: the grid spacing over it overflows to inf
        (["--N", "10", "--dt", "1e-320"],
         "dt=1e-320 is too small for the grid spacing 0.0005"),
        # 10^6 players over 4000 steps need 5.0 GB of chunk buffers and
        # noise streams, though only three paths are stored
        (["--N", "1000000"], "simulating N=1000000 players over 4000 steps "
                             "needs"),
    ]
    for i, (argv, message) in enumerate(cases):
        out = tmp_path / str(i)
        assert main(["simulate", "--model", SCALAR, "--feedback", feedback,
                     *argv, "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert os.listdir(out) == []


def test_options_belong_to_their_subcommands(tmp_path, capsys, monkeypatch):
    """Each subcommand takes only the options it reads: --tol on compare,
    --seed and --dt on simulate; --dense is on none of them."""
    def refuse(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr("lqmfg.nce.solve_nce", refuse)
    monkeypatch.setattr("lqmfg.master.solve_master", refuse)
    misuse = [
        ["solve", "nce", "--dt", "5"],
        ["solve", "nce", "--seed", "3"],
        ["solve", "nce", "--tol", "1"],
        ["solve", "nce", "--dt", "5", "--dense", "--seed", "3", "--N", "7",
         "--tol", "1"],
        ["compare", "nce-master", "--seed", "3"],
        ["compare", "lambda-phi", "--dt", "0.1"],
        ["check-solvability", "--dense"],
        ["check-solvability", "--tol", "1"],
        ["simulate", "--N", "4", "--dense"],
        ["simulate", "--N", "4", "--tol", "0"],
        ["simulate", "--dense", "--tol", "0"],
        ["solve", "finite-n", "--N", "4", "--dense"],
        ["compare", "finite-structure", "--N", "4", "--dense"],
    ]
    for i, argv in enumerate(misuse):
        out = tmp_path / str(i)
        assert main([*argv, "--model", SCALAR, "--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    parser = cli.build_parser()
    for argv in (["solve", "finite-n", "--N", "4"],
                 ["compare", "finite-structure", "--N", "4", "--tol", "1e-8"],
                 ["check-solvability", "--N", "4,8"],
                 ["simulate", "--N", "4", "--seed", "1,2", "--dt", "0.01"]):
        args = parser.parse_args([*argv, "--model", SCALAR, "--grid", "10",
                                  "--out", str(tmp_path)])
        assert (args.model, args.grid, args.out) == (SCALAR, 10, str(tmp_path))


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_simulate_rejects_bad_seeds_before_solving(tmp_path, capsys,
                                                   monkeypatch, seed):
    def refuse(*args, **kwargs):
        raise AssertionError("feedback solved")

    monkeypatch.setattr("lqmfg.nce.solve_nce", refuse)
    out = tmp_path / "run"
    assert main(["simulate", "--model", SCALAR, "--N", "4",
                 "--seed", f"0,{seed}", "--out", str(out)]) == 1
    assert (f"error: seed must be an integer in [0, 2**64), got {seed}"
            in capsys.readouterr().err)
    assert os.listdir(out) == []


@pytest.mark.parametrize("seeds,message", [
    (",", "simulate needs --seed"),
    ("0,0", "--seed lists a seed twice: 0,0"),
    ("3,1,3", "--seed lists a seed twice: 3,1,3"),
], ids=["none", "repeated", "repeated-apart"])
def test_simulate_rejects_empty_or_repeated_seeds_before_solving(
        tmp_path, capsys, monkeypatch, seeds, message):
    """No seed leaves no cost to estimate, and a repeated seed would count
    one draw twice."""
    def refuse(*args, **kwargs):
        raise AssertionError("feedback solved")

    monkeypatch.setattr("lqmfg.nce.solve_nce", refuse)
    out = tmp_path / "run"
    assert main(["simulate", "--model", SCALAR, "--N", "4",
                 "--seed", seeds, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [
    # 10^11 + 1 nodes of the nine-block state: 7.2 TB
    ["solve", "lambda", "--grid", "100000000000"],
    # (N+1)n = 501: 2001 nodes of 2 * 501^2 + 2 * 501 floats and the
    # march's working set, 8.10 GB
    ["solve", "finite-n", "--N", "500"],
])
def test_backward_solve_paths_are_sized_before_allocating(tmp_path, capsys,
                                                          argv):
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        code = main([*argv, "--model", SCALAR, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert ("bytes, over the budget of 4294967296 bytes"
            in capsys.readouterr().err)
    assert os.listdir(out) == []
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("argv,route", [
    (["solve", "nce"], "nce"), (["solve", "master"], "master"),
    (["compare", "nce-master"], "nce")])
def test_many_type_solves_are_sized_before_compiling(tmp_path, capsys,
                                                     monkeypatch, argv, route):
    """K = 250 scalar types on the default grid of 2001 nodes: the stored
    paths need about 258 GB, so the run exits 1 naming the bytes before
    any field is compiled."""
    path = str(tmp_path / "many.model")
    write_model_file(path, many_types(250))

    def refuse(*args, **kwargs):
        raise AssertionError("compiled")

    for module in ("nce", "master"):
        monkeypatch.setattr(f"lqmfg.{module}.compile_field", refuse)
    out = tmp_path / "run"
    assert main([*argv, "--model", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: a stored {route} solve on 2001 nodes needs " in err
    assert "bytes, over the budget of 4294967296 bytes" in err
    assert os.listdir(out) == []


def test_solve_exits_two_when_kernels_leave_the_semidefinite_cone(tmp_path,
                                                                   capsys):
    """RK4 step error on a coarse grid takes a stiff model's kernels out
    of the cone (min eigenvalue -1.1 against 3.45e5 at M = 200); at
    M = 2000 they are semidefinite to rounding."""
    path = str(tmp_path / "heavy.model")
    write_model_file(path, route_draw(2, 2, 1, 1, True))
    for system in ("nce", "master"):
        out = tmp_path / f"{system}200"
        code = main(["solve", system, "--model", path, "--grid", "200",
                     "--out", str(out)])
        assert code == 2
        lines = (out / "summary.txt").read_text().splitlines()
        assert capsys.readouterr().out.splitlines() == lines
        assert lines[2] == "verdict: solved"
        assert float(lines[-2].rsplit(" ", 1)[1]) < -1.0
        assert lines[-1] == ("kernels not positive semidefinite: min "
                             "eigenvalue below -1e-08 x max(1, largest "
                             "|eigenvalue|)")

    out = tmp_path / "nce2000"
    code = main(["solve", "nce", "--model", path, "--grid", "2000",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "summary.txt").read_text().splitlines()
    assert lines[-1].startswith("min eigenvalue of minor P paths: ")
    capsys.readouterr()


def test_every_error_class_maps_to_its_exit_code(tmp_path, capsys,
                                                 monkeypatch):
    """Through main, each class in lqmfg.errors exits with its own code
    and its message on stderr, with no registration in the CLI."""
    math = {errors.NonFiniteState, errors.NonFiniteField,
            errors.AsymmetryDrift, errors.SegmentOverflow}
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.LQMFGError)]
    assert errors.LQMFGError in classes and math < set(classes)
    for cls in classes:
        try:
            exc = cls("boom")
        except TypeError:
            exc = cls("boom", -1.0)

        def fail(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr("lqmfg.nce.solve_nce", fail)
        code = main(["solve", "nce", "--model", SCALAR, "--grid", "10",
                     "--out", str(tmp_path / cls.__name__)])
        assert code == (2 if cls in math else 1), cls.__name__
        assert capsys.readouterr().err == f"error: {exc}\n"
