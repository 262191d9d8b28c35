"""Command-line surface.

Subcommands: solve {nce|master|lambda|finite-n}, compare {nce-master|
lambda-phi|finite-structure}, check-solvability, simulate. Artifacts are
CSV files (17 significant digits, round-trip exact) plus a plain-text
summary per run. Every all-float table goes through _write_table, which
formats each distinct value once per block of rows with the bytes of
formatting every entry alone; the mixed tables are formatted entry by
entry with _fmt. Exit codes: 0 success/PASS, 1 usage or configuration
error, 2 mathematical failure (finite escape, equivalence FAIL, a solved
kernel that is not positive semidefinite, non-finite simulation).
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import asymptotic, master, nce, sim
from .errors import LQMFGError
from .modelfile import load_model
from .model import TimeGrid, default_steps
from .ode import BlowUpReport, MatrixPath


# cells per block of _write_table: a block holds _BLOCK_CELLS // width rows
# (at least one), so the text held in memory depends on neither the row
# count nor the width, and narrow tables do not pay one np.unique per few
# rows
_BLOCK_CELLS = 8192
# minors whose paths `simulate` writes to sim_traj_*.csv (and stores)
_SHOWN_MINORS = 3


def _fmt(x) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    mathematical failure, so remap."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str):
    # "," is the explicit empty list; an empty item among integers is refused
    try:
        return [int(p) for p in text.split(",")] if text.strip(", ") else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}")


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and non-negative, got {text!r}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing
    leaves it as it was, each call filling a new namespace."""
    p = _Parser(prog="lqmfg",
                description="Solvers and checks for linear-quadratic mean "
                            "field games with a major player.")
    sub = p.add_subparsers(dest="command", required=True)

    def shared(sp):
        sp.add_argument("--model", required=True,
                        help="path to a key=value model file")
        sp.add_argument("--grid", type=int, default=None,
                        help="number of integrator steps (default by horizon)")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--N", type=_int_list, default=None,
                        help="comma-separated population sizes")

    sp = sub.add_parser("solve", help="solve one equation system")
    sp.add_argument("system", choices=["nce", "master", "lambda", "finite-n"])
    shared(sp)

    sp = sub.add_parser("compare", help="run two routes and diff them")
    sp.add_argument("pair", choices=["nce-master", "lambda-phi",
                                     "finite-structure"])
    shared(sp)
    sp.add_argument("--tol", type=_tolerance, default=None,
                    help="comparison tolerance (default 1e-8 for every "
                         "pair; the library's compare_lambda_phi defaults "
                         "to 1e-9)")

    sp = sub.add_parser("check-solvability",
                        help="finite-N boundedness vs the limit-system verdict")
    shared(sp)

    sp = sub.add_parser("simulate", help="closed-loop Monte Carlo runs")
    shared(sp)
    sp.add_argument("--seed", type=_int_list, default=[0],
                    help="comma-separated seed list")
    sp.add_argument("--dt", type=float, default=None,
                    help="simulation step")
    sp.add_argument("--type-counts", type=_int_list, default=None,
                    help="players per type (single N only)")
    sp.add_argument("--feedback", choices=["nce", "master"], default="nce")
    sp.add_argument("--use-empirical", action="store_true",
                    help="feed empirical means into the controls")
    return p


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


def _write_table(path: str, names, t: np.ndarray, flat: np.ndarray):
    """Float CSV: one column of `t`, then the columns of `flat`.

    The columns are stacked a block of rows at a time; each distinct bit
    pattern of a block (so -0.0 apart from +0.0, every NaN payload apart)
    is formatted once with "%.17g", the bytes of _fmt, and the cells index
    those strings: equal bits give equal text.
    """
    step = max(1, _BLOCK_CELLS // (flat.shape[1] + 1))

    def lines():
        yield ",".join(names)
        for start in range(0, t.shape[0], step):
            rows = np.column_stack([t[start:start + step],
                                    flat[start:start + step]])
            bits, inverse = np.unique(rows.view(np.int64), return_inverse=True)
            text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()],
                            dtype=object)
            for row in text[inverse.reshape(rows.shape)].tolist():
                yield ",".join(row)

    _write_lines(path, lines())


def _write_path_csv(path: str, mp: MatrixPath, prefix: str):
    """Wide CSV: node time plus every entry of the state, row-major."""
    _write_table(path, ["t"] + _entry_names(prefix, mp.state_shape),
                 mp.grid.nodes, mp.values.reshape(mp.values.shape[0], -1))


# A solve's kernels fail as not positive semidefinite when an eigenvalue
# lies below -_PSD_REL_TOL x max(1, their largest |eigenvalue|): the
# relative form of ode.ASYMMETRY_TOL, scaled like it by the whole kernel
# state. Coarse grids on stiff models leave the cone by RK4 step error;
# honest paths sit at rounding.
_PSD_REL_TOL = 1e-8


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
    """Terminal pins and PSD minima of the nce and master kernels, and
    the exit code: 2 if the kernels are not positive semidefinite."""
    pin0 = np.abs(P0.at(res.grid.M) - res.lifted.Q0f_pi).max()
    pink = np.abs(P.at(res.grid.M) - res.lifted.Qf_pi).max()
    eig0 = np.linalg.eigvalsh(P0.values)
    eig = np.linalg.eigvalsh(P.values)
    lines = [
        f"terminal pin max deviation (major): {_fmt(pin0)}",
        f"terminal pin max deviation (minor): {_fmt(pink)}",
        f"min eigenvalue of P0 path: {_fmt(eig0.min())}",
        f"min eigenvalue of minor P paths: {_fmt(eig.min())}",
    ]
    scale = max(1.0, float(np.abs(eig0).max()), float(np.abs(eig).max()))
    if min(eig0.min(), eig.min()) < -_PSD_REL_TOL * scale:
        lines.append(f"kernels not positive semidefinite: min eigenvalue "
                     f"below -{_PSD_REL_TOL:g} x max(1, largest |eigenvalue|)")
        return lines, 2
    return lines, 0


# system -> (solve(model, grid, args), named paths of the solution as
# (file name, path, column prefix), (summary lines after "verdict: solved",
# exit code))
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
        lambda r: ([], 0)),
    "finite-n": (
        lambda model, grid, args: asymptotic.solve_finite_n(
            model, _one_n(args, "solve finite-n"), grid),
        lambda r: [("finite_P0.csv", r.P0_big, "P0"),
                   ("finite_P1.csv", r.P1_big, "P1"),
                   ("finite_S0.csv", r.S0_big, "S0"),
                   ("finite_S1.csv", r.S1_big, "S1")],
        lambda r: ([f"N: {r.N}", "mode: symmetric",
                    f"min eigenvalue of P0 path: "
                    f"{_fmt(_psd_minimum(r.P0_big.values))}"], 0)),
}


def cmd_solve(args, model, grid, out) -> int:
    summary = [f"system: {args.system}", f"grid: M={grid.M} T={_fmt(grid.T)}"]
    solve, named_paths, solved_lines = _SYSTEMS[args.system]
    res = solve(model, grid, args)
    if isinstance(res, BlowUpReport):
        return _report(out, summary + _blow_lines(grid, res), 2)
    for name, path, prefix in named_paths(res):
        _write_path_csv(os.path.join(out, name), path, prefix)
    lines, code = solved_lines(res)
    return _report(out, summary + ["verdict: solved"] + lines, code)


def _write_diff_csv(path: str, report) -> None:
    lines = ["name,diff,tol,pass"]
    for name, value in report.diffs.items():
        lines.append(f"{name},{_fmt(value)},{_fmt(report.tol)},"
                     f"{value <= report.tol}")
    _write_lines(path, lines)


def cmd_compare(args, model, grid, out) -> int:
    if args.pair == "finite-structure":
        N = _one_n(args, "compare finite-structure")
        fin = asymptotic.solve_finite_n(model, N, grid)
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

    if args.pair == "lambda-phi":   # refuse K != 1 before the nce solve
        asymptotic._require_k1(model, "limit-system route")
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


def cmd_check_solvability(args, model, grid, out) -> int:
    N_list = [4, 8, 16] if args.N is None else args.N
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


def _simulate_seed(args, model, sol, N: int, seed: int, out: str):
    """Simulate one seed and write its path and error tables; return its
    sup-node empirical-mean error and the costs of players 0 and 1. Only
    the paths of the minors the table shows are stored; player 1 is one
    of them."""
    show = min(N, _SHOWN_MINORS)
    traj = sim.simulate(sol, N, dt=args.dt, seed=seed,
                        type_counts=args.type_counts,
                        use_empirical=args.use_empirical, keep=show)
    err = sim.empirical_mean_error(traj)

    idx = _downsample(200, traj.times.shape[0])
    names = (["t"] + _entry_names("X0", (model.n,))
             + _entry_names("Zbar", (model.n * model.K,))
             + _entry_names("U0", (model.n1,)))
    for i in range(show):
        names += _entry_names(f"X{i + 1}", (model.n,))
    players = traj.X[:, idx].transpose(1, 0, 2).reshape(idx.size, -1)
    _write_table(os.path.join(out, f"sim_traj_N{N}_seed{seed}.csv"),
                 names, traj.times[idx],
                 np.hstack([traj.X0[idx], traj.Zbar[idx], traj.U0[idx],
                            players]))

    # the type column as floats: "%.17g" prints 2.0 as "2"
    types = np.repeat(np.arange(1.0, model.K + 1.0), idx.size)
    _write_table(os.path.join(out, f"sim_error_N{N}_seed{seed}.csv"),
                 ["t", "type", "error"], np.tile(err.times[idx], model.K),
                 np.column_stack([types, err.per_type[:, idx].ravel()]))
    return err.sup, [sim.evaluate_cost([traj], player).mean
                     for player in (0, 1)]


def cmd_simulate(args, model, grid, out) -> int:
    for option, what, values in (("--N", "population size", args.N),
                                 ("--seed", "seed", args.seed)):
        if not values:
            raise ValueError(f"simulate needs {option}")
        if len(set(values)) != len(values):
            raise ValueError(f"{option} lists a {what} twice: "
                             f"{','.join(str(v) for v in values)}")
    if args.type_counts is not None and len(args.N) != 1:
        raise ValueError("--type-counts only applies to a single --N")
    # seeds, size, step, memory and type counts, all before the feedback
    # solve; the per-type empirical-mean error needs players of every type
    for seed in args.seed:
        sim.check_seed(seed)
    for N in args.N:
        sim.simulation_steps(model, grid, N, args.dt,
                             keep=min(N, _SHOWN_MINORS))
        sim.check_every_type(sim.check_type_counts(model, N, args.type_counts))

    if args.feedback == "master":
        sol = master.solve_master(model, grid)
    else:
        sol = nce.solve_nce(model, grid)
    if isinstance(sol, BlowUpReport):
        return _report(out, _blow_lines(grid, sol), 2)

    sup_by_N = []
    cost_lines = ["N,player,mean,std_error,samples"]
    for N in args.N:
        # (sup error, (cost 0, cost 1)) per seed: each trajectory is gone
        # before the next is simulated, so many seeds need the memory of one
        runs = [_simulate_seed(args, model, sol, N, seed, out)
                for seed in args.seed]
        for player in (0, 1):
            est = sim.cost_estimate(player, [run[1][player] for run in runs])
            cost_lines.append(f"{N},{player},{_fmt(est.mean)},"
                              f"{_fmt(est.std_error)},{est.samples}")
        sup_by_N.append(math.fsum(run[0] for run in runs) / len(runs))

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


_COMMANDS = {"solve": cmd_solve, "compare": cmd_compare,
             "check-solvability": cmd_check_solvability,
             "simulate": cmd_simulate}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a bad model file or grid fails before the output directory exists
        model = load_model(args.model)
        M = args.grid if args.grid is not None else default_steps(model.T)
        grid = TimeGrid(M=M, T=model.T)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](args, model, grid, args.out)
    except LQMFGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
