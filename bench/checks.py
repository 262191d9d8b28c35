"""Output checks. Every check is one attempted item; a false one is a failure.

Bounds are the test suite's: route differences at most 1e-9, escape nodes
of the routes within 2 of each other, feedback-route costs within 1e-8.
"""

import hashlib
import math
import os
import re

ROUTE_TOL = 1e-9
ESCAPE_NODE_GAP = 2
SIM_COST_TOL = 1e-8

STRUCTURE_PASS = "structure bound (<=3 / <=6 clusters): PASS"


def digest(outdir) -> str:
    """Hash of every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def bytes_written(outdir) -> int:
    return sum(os.path.getsize(os.path.join(outdir, n))
               for n in os.listdir(outdir))


def _read(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def compare_diffs(path, expected_rows):
    """Parse a compare_*.csv strictly. Returns (ok, detail).

    Every row must be `name,diff,tol,pass` with a finite diff no larger
    than ROUTE_TOL and pass == True, and there must be `expected_rows` of
    them with distinct names.
    """
    lines = _read(path).splitlines()
    if not lines or lines[0] != "name,diff,tol,pass":
        return False, f"{os.path.basename(path)}: missing or bad header"
    names, worst = set(), 0.0
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4 or parts[3] != "True":
            return False, f"bad row {line!r}"
        try:
            diff = float(parts[1])
        except ValueError:
            return False, f"bad number in {line!r}"
        if not math.isfinite(diff) or diff > ROUTE_TOL:
            return False, f"{parts[0]} differs by {parts[1]} > {ROUTE_TOL}"
        names.add(parts[0])
        worst = max(worst, diff)
    if len(names) != expected_rows or len(lines) - 1 != expected_rows:
        return False, f"{len(lines) - 1} rows, expected {expected_rows}"
    return True, f"worst diff {worst:.3e}"


def escape_node(outdir):
    m = re.search(r"^escape node: (\d+)$", _read(os.path.join(outdir, "summary.txt")),
                  re.MULTILINE)
    return int(m.group(1)) if m else None


def sim_costs(outdir):
    """Rows of sim_costs.csv as tuples, or None if unreadable."""
    lines = _read(os.path.join(outdir, "sim_costs.csv")).splitlines()
    if not lines or lines[0] != "N,player,mean,std_error,samples":
        return None
    rows = []
    try:
        for line in lines[1:]:
            N, player, mean, se, samples = line.split(",")
            rows.append((int(N), int(player), float(mean), float(se),
                         int(samples)))
    except ValueError:
        return None
    return rows or None


def _model_k(argv) -> int:
    path = argv[argv.index("--model") + 1]
    m = re.search(r"^K = (\d+)$", _read(path), re.MULTILINE)
    return int(m.group(1)) if m else 0


def op_checks(op, code, stdout, outdir):
    """Checks on one command's own outputs: list of (name, ok, detail)."""
    results = [("exit-code", code == op.expect,
                f"exit {code}, expected {op.expect}")]
    argv = op.argv
    if code != op.expect:
        return results
    if op.expect == 2:
        node = escape_node(outdir)
        results.append(("escape-reported", node is not None,
                        f"escape node {node}"))
    elif argv[:2] == ("compare", "nce-master"):
        K = _model_k(argv)
        results.append(("route-diff", *compare_diffs(
            os.path.join(outdir, "compare_nce_master.csv"), 5 + 2 * K)))
    elif argv[:2] == ("compare", "lambda-phi"):
        results.append(("route-diff", *compare_diffs(
            os.path.join(outdir, "compare_lambda_phi.csv"), 9)))
    elif argv[:2] == ("compare", "finite-structure"):
        results.append(("structure-pass", STRUCTURE_PASS in stdout,
                        "cluster bound line"))
    elif argv[0] == "check-solvability":
        ok = "verdicts consistent: True" in _read(
            os.path.join(outdir, "summary.txt"))
        results.append(("solvability-consistent", ok, "summary verdict"))
    elif argv[0] == "solve":
        ok = "verdict: solved" in _read(os.path.join(outdir, "summary.txt"))
        results.append(("solved", ok, "summary verdict"))
    elif argv[0] == "simulate":
        results.append(("sim-costs", sim_costs(outdir) is not None,
                        "sim_costs.csv parses"))
    return results


def group_checks(group, facts):
    """Cross-command checks of one group; facts maps op key -> parsed output."""
    if group.startswith("escape"):
        nodes = list(facts.values())
        if None in nodes or not nodes:
            return [("escape-nodes", False, f"nodes {nodes}")]
        gap = max(nodes) - min(nodes)
        return [("escape-nodes", gap <= ESCAPE_NODE_GAP,
                 f"nodes {nodes}, gap {gap}")]
    if group.startswith("sim"):
        tables = list(facts.values())
        if len(tables) != 2 or None in tables:
            return [("feedback-costs", False, "missing sim_costs.csv")]
        a, b = tables
        ok = len(a) == len(b)
        worst = 0.0
        for ra, rb in zip(a, b):
            # N, player and sample count must match exactly
            ok = ok and (ra[0], ra[1], ra[4]) == (rb[0], rb[1], rb[4])
            for x, y in zip(ra[2:4], rb[2:4]):
                worst = max(worst, abs(x - y) / max(1.0, abs(x)))
        return [("feedback-costs", ok and worst <= SIM_COST_TOL,
                 f"worst relative cost difference {worst:.3e}")]
    return []


def op_fact(op, outdir):
    """The part of an op's output its group check needs."""
    if op.group.startswith("escape"):
        return escape_node(outdir)
    if op.group.startswith("sim"):
        return sim_costs(outdir)
    return None
