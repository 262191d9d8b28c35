"""Command-line surface.

Subcommands: solve {nce|master|lambda|finite-n}, compare {nce-master|
lambda-phi|finite-structure}, check-solvability, simulate. Artifacts are
CSV files (17 significant digits, round-trip exact) plus a plain-text
summary per run. Exit codes: 0 success/PASS, 1 usage or configuration
error, 2 mathematical failure (finite escape, equivalence FAIL,
non-finite simulation).
"""

import argparse
import itertools
import math
import os
import sys

import numpy as np

from . import asymptotic, master, nce, sim
from .errors import (AsymmetryDrift, BadPi, BlowUp, DimensionMismatch,
                     EmptyBatch, EmptyType, GridMismatch, IndexOutOfRange,
                     KNotOne, ModelFileError, NonFiniteField, NonFiniteState,
                     NotPD, NotPSD, NTooLargeForMemory, PermutationMismatch,
                     TimeOutOfRange)
from .modelfile import load_model
from .model import TimeGrid, default_steps
from .ode import BlowUpReport, MatrixPath

_USAGE_ERRORS = (ModelFileError, DimensionMismatch, NotPSD, NotPD, BadPi,
                 GridMismatch, KNotOne, NTooLargeForMemory, IndexOutOfRange,
                 TimeOutOfRange, EmptyType, EmptyBatch, ValueError, OSError)
_MATH_ERRORS = (BlowUp, NonFiniteState, NonFiniteField, AsymmetryDrift,
                PermutationMismatch)


def _fmt(x) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    mathematical failure, so remap."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str):
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and non-negative, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lqmfg",
                description="Solvers and checks for linear-quadratic mean "
                            "field games with a major player.")
    sub = p.add_subparsers(dest="command", required=True)

    def shared(sp, need_model=True):
        sp.add_argument("--model", required=need_model,
                        help="path to a key=value model file")
        sp.add_argument("--grid", type=int, default=None,
                        help="number of integrator steps (default by horizon)")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--tol", type=_tolerance, default=None,
                        help="comparison tolerance override")
        sp.add_argument("--seed", type=_int_list, default=[0],
                        help="comma-separated seed list")
        sp.add_argument("--N", type=_int_list, default=None,
                        help="comma-separated population sizes")
        sp.add_argument("--dt", type=float, default=None,
                        help="simulation step")
        sp.add_argument("--dense", action="store_true",
                        help="force the dense finite-N mode")

    sp = sub.add_parser("solve", help="solve one equation system")
    sp.add_argument("system", choices=["nce", "master", "lambda", "finite-n"])
    shared(sp)

    sp = sub.add_parser("compare", help="run two routes and diff them")
    sp.add_argument("pair", choices=["nce-master", "lambda-phi",
                                     "finite-structure"])
    shared(sp)

    sp = sub.add_parser("check-solvability",
                        help="finite-N boundedness vs the limit-system verdict")
    shared(sp)

    sp = sub.add_parser("simulate", help="closed-loop Monte Carlo runs")
    shared(sp)
    sp.add_argument("--type-counts", type=_int_list, default=None,
                    help="players per type (single N only)")
    sp.add_argument("--feedback", choices=["nce", "master"], default="nce")
    sp.add_argument("--use-empirical", action="store_true",
                    help="feed empirical means into the controls")
    return p


def _make_grid(args, model) -> TimeGrid:
    M = args.grid if args.grid is not None else default_steps(model.T)
    return TimeGrid(M=M, T=model.T)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_lines(path: str, lines):
    """Write each line with a trailing newline, streaming an iterable."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def _entry_names(prefix: str, shape: tuple):
    if len(shape) == 0:
        return [prefix]
    if len(shape) == 1:
        return [f"{prefix}_{i}" for i in range(shape[0])]
    return [f"{prefix}_{i}_{j}" for i in range(shape[0]) for j in range(shape[1])]


def _write_path_csv(path: str, mp: MatrixPath, prefix: str):
    """Wide CSV: node time plus every entry of the state, row-major."""
    header = ",".join(["t"] + _entry_names(prefix, mp.state_shape))
    flat = mp.values.reshape(mp.values.shape[0], -1)
    # "%.17g" writes the bytes of _fmt; rows are formatted as they are
    # written, so the whole table never sits in memory as text
    row = ",".join(["%.17g"] * (flat.shape[1] + 1))
    rows = (row % (t, *values.tolist())
            for t, values in zip(mp.grid.nodes.tolist(), flat))
    _write_lines(path, itertools.chain([header], rows))


def _psd_minimum(values: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(values).min())


def _blow_lines(grid: TimeGrid, rep: BlowUpReport):
    t = grid.nodes[rep.escape_node]
    return [
        "verdict: finite escape",
        f"escape node: {rep.escape_node}",
        f"escape time: {_fmt(t)}",
        f"norm at escape: {_fmt(rep.norm_at_escape)}",
        f"threshold: {_fmt(rep.threshold)}",
    ]


def _report(out: str, lines, code: int) -> int:
    """Write summary.txt, echo it to stdout and pass the exit code on."""
    _write_lines(os.path.join(out, "summary.txt"), lines)
    print("\n".join(lines))
    return code


def _one_n(args, command: str) -> int:
    if not args.N or len(args.N) != 1:
        raise ValueError(f"{command} needs --N with exactly one value")
    return args.N[0]


def _minor_paths(stem: str, K: int, P: MatrixPath, s: MatrixPath):
    """Per-type minor kernel and offset files: P1, s1, P2, s2, ..."""
    named = []
    for k in range(K):
        named += [(f"{stem}_P{k + 1}.csv", MatrixPath(P.grid, P.values[:, k]),
                   f"P{k + 1}"),
                  (f"{stem}_s{k + 1}.csv", MatrixPath(s.grid, s.values[:, k]),
                   f"s{k + 1}")]
    return named


def _route_lines(res, P0: MatrixPath, P: MatrixPath):
    """Terminal pins and PSD minima of the nce and master kernels."""
    pin0 = np.abs(P0.at(res.grid.M) - res.lifted.Q0f_pi).max()
    pink = np.abs(P.at(res.grid.M) - res.lifted.Qf_pi).max()
    return [
        f"terminal pin max deviation (major): {_fmt(pin0)}",
        f"terminal pin max deviation (minor): {_fmt(pink)}",
        f"min eigenvalue of P0 path: {_fmt(_psd_minimum(P0.values))}",
        f"min eigenvalue of minor P paths: {_fmt(_psd_minimum(P.values))}",
    ]


# system -> (solve(model, grid, args), named paths of the solution as
# (file name, path, column prefix), summary lines after "verdict: solved")
_SYSTEMS = {
    "nce": (
        lambda model, grid, args: nce.solve_nce(model, grid),
        lambda r: [("nce_P0.csv", r.P0, "P0"), ("nce_s0.csv", r.s0, "s0"),
                   *_minor_paths("nce", r.model.K, r.P, r.s),
                   ("nce_Abar.csv", r.Abar, "Abar"),
                   ("nce_Gbar.csv", r.Gbar, "Gbar"),
                   ("nce_mbar.csv", r.mbar, "mbar")],
        lambda r: _route_lines(r, r.P0, r.P)),
    "master": (
        lambda model, grid, args: master.solve_master(model, grid),
        lambda r: [("master_P0.csv", r.Pd0, "P0"),
                   ("master_s0.csv", r.sd0, "s0"),
                   ("master_r0.csv", r.rd0, "r0"),
                   *_minor_paths("master", r.model.K, r.Pd, r.sd),
                   ("master_r_minor.csv", r.rd, "r")],
        lambda r: _route_lines(r, r.Pd0, r.Pd)),
    "lambda": (
        lambda model, grid, args: asymptotic.solve_lambda(model, grid),
        lambda r: [(f"lambda_{key}.csv", r.blocks[key], f"L{key}")
                   for key in asymptotic.BLOCK_KEYS],
        lambda r: []),
    "finite-n": (
        lambda model, grid, args: asymptotic.solve_finite_n(
            model, _one_n(args, "solve finite-n"), grid, dense=args.dense),
        lambda r: [("finite_P0.csv", r.P0_big, "P0"),
                   ("finite_P1.csv", r.P1_big, "P1"),
                   ("finite_S0.csv", r.S0_big, "S0"),
                   ("finite_S1.csv", r.S1_big, "S1")],
        lambda r: [f"N: {r.N}", f"mode: {r.mode}",
                   f"min eigenvalue of P0 path: "
                   f"{_fmt(_psd_minimum(r.P0_big.values))}"]),
}


def cmd_solve(args) -> int:
    model = load_model(args.model)
    grid = _make_grid(args, model)
    out = _outdir(args)
    summary = [f"system: {args.system}", f"grid: M={grid.M} T={_fmt(grid.T)}"]
    solve, named_paths, solved_lines = _SYSTEMS[args.system]
    res = solve(model, grid, args)
    if isinstance(res, BlowUpReport):
        return _report(out, summary + _blow_lines(grid, res), 2)
    for name, path, prefix in named_paths(res):
        _write_path_csv(os.path.join(out, name), path, prefix)
    return _report(out, summary + ["verdict: solved"] + solved_lines(res), 0)


def _write_diff_csv(path: str, report) -> None:
    lines = ["name,diff,tol,pass"]
    for name, value in report.diffs.items():
        lines.append(f"{name},{_fmt(value)},{_fmt(report.tol)},"
                     f"{value <= report.tol}")
    _write_lines(path, lines)


def cmd_compare(args) -> int:
    model = load_model(args.model)
    grid = _make_grid(args, model)
    out = _outdir(args)

    if args.pair == "finite-structure":
        N = _one_n(args, "compare finite-structure")
        fin = asymptotic.solve_finite_n(model, N, grid, dense=args.dense)
        if isinstance(fin, BlowUpReport):
            return _report(out, _blow_lines(grid, fin), 2)
        tol = args.tol if args.tol is not None else asymptotic.TILE_TOL
        report = asymptotic.extract_block_structure(fin, tol=tol)
        lines = ["matrix,node,clusters"]
        for name in ("P0", "P1"):
            for j, c in enumerate(report.cluster_counts[name]):
                lines.append(f"{name},{j},{int(c)}")
        _write_lines(os.path.join(out, "finite_structure.csv"), lines)
        hi0 = report.counts_everywhere("P0")[1]
        hi1 = report.counts_everywhere("P1")[1]
        ok = hi0 <= 3 and hi1 <= 6
        code = _report(out, report.summary().splitlines(), 0 if ok else 2)
        print(f"structure bound (<=3 / <=6 clusters): {'PASS' if ok else 'FAIL'}")
        return code

    tol = args.tol if args.tol is not None else 1e-8
    a = nce.solve_nce(model, grid)
    if args.pair == "nce-master":
        other, b = "master", master.solve_master(model, grid)
    else:
        other, b = "lambda", asymptotic.solve_lambda(model, grid)
    blew_a = isinstance(a, BlowUpReport)
    blew_b = isinstance(b, BlowUpReport)
    if blew_a or blew_b:
        return _report(out, [f"finite escape: nce={blew_a} {other}={blew_b}"],
                       2)
    if args.pair == "nce-master":
        report = master.compare_nce_master(a, b, tol=tol)
    else:
        report = asymptotic.compare_lambda_phi(b, asymptotic.phi_from_nce(a),
                                               tol=tol)
    stem = args.pair.replace("-", "_")
    _write_diff_csv(os.path.join(out, f"compare_{stem}.csv"), report)
    return _report(out, report.summary().splitlines(),
                   0 if report.passed else 2)


def cmd_check_solvability(args) -> int:
    model = load_model(args.model)
    grid = _make_grid(args, model)
    out = _outdir(args)
    N_list = args.N if args.N else [4, 8, 16]
    report = asymptotic.check_asymptotic_solvability(model, N_list, grid)
    lines = ["N,sup_node_norm,escape_node"]
    for N, norm in zip(report.N_list, report.norms):
        if norm is None:
            lines.append(f"{N},,{report.escapes[N].escape_node}")
        else:
            lines.append(f"{N},{_fmt(norm)},")
    _write_lines(os.path.join(out, "solvability.csv"), lines)
    return _report(out, report.summary().splitlines(),
                   0 if report.consistent else 2)


def _downsample(k: int, total: int) -> np.ndarray:
    stride = max(1, total // k)
    idx = np.arange(0, total, stride)
    if idx[-1] != total - 1:
        idx = np.append(idx, total - 1)
    return idx


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    grid = _make_grid(args, model)
    out = _outdir(args)
    if not args.N:
        raise ValueError("simulate needs --N")
    if len(set(args.N)) != len(args.N):
        raise ValueError("--N lists a population size twice: "
                         f"{','.join(str(N) for N in args.N)}")
    if args.type_counts is not None and len(args.N) != 1:
        raise ValueError("--type-counts only applies to a single --N")
    # the per-type empirical-mean error needs players of every type
    # (N < 1 is refused by sim.simulate itself)
    for N in args.N:
        counts = (sim.default_type_counts(model, N) if args.type_counts is None
                  else args.type_counts)
        empty = [k + 1 for k, c in enumerate(counts) if c == 0]
        if N >= 1 and empty:
            raise EmptyType(f"no players of type {empty[0]} at N={N} "
                            f"(type counts {','.join(str(int(c)) for c in counts)})")

    if args.feedback == "master":
        sol = master.solve_master(model, grid)
    else:
        sol = nce.solve_nce(model, grid)
    if isinstance(sol, BlowUpReport):
        return _report(out, _blow_lines(grid, sol), 2)

    sup_by_N = []
    cost_lines = ["N,player,mean,std_error,samples"]
    for N in args.N:
        batch = []
        sups = []
        for seed in args.seed:
            traj = sim.simulate(model, N, sol, dt=args.dt, seed=seed,
                                type_counts=args.type_counts,
                                use_empirical=args.use_empirical)
            batch.append(traj)
            err = sim.empirical_mean_error(traj)
            sups.append(err.sup)

            idx = _downsample(200, traj.times.shape[0])
            show = min(N, 3)
            names = (["t"] + _entry_names("X0", (model.n,))
                     + _entry_names("Zbar", (model.n * model.K,))
                     + _entry_names("U0", (model.n1,)))
            for i in range(show):
                names += _entry_names(f"X{i + 1}", (model.n,))
            lines = [",".join(names)]
            for s in idx:
                row = ([traj.times[s]] + list(traj.X0[s]) + list(traj.Zbar[s])
                       + list(traj.U0[s]))
                for i in range(show):
                    row += list(traj.X[i, s])
                lines.append(",".join(_fmt(v) for v in row))
            _write_lines(os.path.join(out, f"sim_traj_N{N}_seed{seed}.csv"),
                         lines)

            lines = ["t,type,error"]
            for k in range(model.K):
                for s in idx:
                    lines.append(f"{_fmt(err.times[s])},{k + 1},"
                                 f"{_fmt(err.per_type[k, s])}")
            _write_lines(os.path.join(out, f"sim_error_N{N}_seed{seed}.csv"),
                         lines)

        for player in (0, 1):
            est = sim.evaluate_cost(model, batch, player)
            cost_lines.append(f"{N},{player},{_fmt(est.mean)},"
                              f"{_fmt(est.std_error)},{est.samples}")
        sup_by_N.append(math.fsum(sups) / len(sups))

    _write_lines(os.path.join(out, "sim_costs.csv"), cost_lines)

    summary = [f"feedback: {args.feedback}",
               f"seeds: {','.join(str(s) for s in args.seed)}"]
    for N, sup in zip(args.N, sup_by_N):
        summary.append(f"N={N}: mean sup-node empirical-mean error {_fmt(sup)}")
    if len(args.N) >= 2:
        lx = np.log(np.asarray(args.N, dtype=np.float64))
        ly = np.log(np.maximum(sup_by_N, 1e-300))
        slope = float(np.polyfit(lx, ly, 1)[0])
        summary.append(f"log-log error slope across N: {_fmt(slope)} "
                       f"(consistency predicts about -0.5)")
    return _report(out, summary, 0)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "check-solvability":
            return cmd_check_solvability(args)
        return cmd_simulate(args)
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
