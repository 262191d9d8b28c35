"""Self-test of the benchmark harness at tiny sizes (about ten seconds).

    python3 bench/selftest.py

For every workload it runs one plain and two traced passes and checks:
- traced passes give byte-identical artifacts and no failed checks;
- the span counts match what the current code does: ode.field_evals is
  4 x ode.steps, and a solvable solve runs nce 2, master 3, lambda 1 and
  finite-n 2 integrator passes;
- count metrics repeat exactly across the two traced passes;
- restore() puts every original function back.
It also checks that a corrupted compare CSV is counted as a failure.
Exits 0 if everything holds.
"""

import io
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from checks import op_checks
from layers import SpanTree, layer_metrics, passes_per_solve
from run import OUT, Runner, import_program
from tracer import Tracer, install

EXPECTED_PASSES = {"nce": {2}, "master": {3}, "lambda": {1}, "finite-n": {2}}
COUNT_UNITS = ("count", "B")


def _attributes(lq):
    mods = (lq.cli, lq.nce, lq.master, lq.asymptotic, lq.sim, lq.ode.MatrixPath)
    return {(m, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def traced(runner, lq, workloads, tag):
    tracer = Tracer()
    before = _attributes(lq)
    install(tracer, lq)
    try:
        _, size = runner.run_pass(tag, tracer)
    finally:
        tracer.restore()
    restored = _attributes(lq) == before
    metrics = layer_metrics(tracer.spans, workloads.FINITE_NS, size,
                            len(runner.ops))
    return tracer.spans, metrics, restored


def check_workload(lq, workloads, name, work, kinds_seen):
    problems = []
    ops = workloads.build(name, 0, work, workloads.TINY)
    runner = Runner(lq, ops, work)
    runner.run_pass("plain")
    spans, first, restored = traced(runner, lq, workloads, "traced1")
    _, second, _ = traced(runner, lq, workloads, "traced2")
    problems += runner.failures
    if not restored:
        problems.append("restore() left a wrapped attribute behind")
    evals, steps = first["ode.field_evals"][0], first["ode.steps"][0]
    if evals != 4 * steps:
        problems.append(f"field evals {evals} != 4 x steps {steps}")
    for kind, counts in passes_per_solve(SpanTree(spans)).items():
        kinds_seen.add(kind)
        if counts != EXPECTED_PASSES[kind]:
            problems.append(f"{kind}: passes per solve {sorted(counts)}, "
                            f"expected {sorted(EXPECTED_PASSES[kind])}")
    for key, (value, unit) in first.items():
        if unit in COUNT_UNITS and second[key][0] != value:
            problems.append(f"{key} changed between traced passes: "
                            f"{value} then {second[key][0]}")
    return problems


def check_corrupted_csv(lq, workloads, work):
    ops = workloads.build("limit-routes", 0, work, workloads.TINY)
    op = next(o for o in ops if o.key == "compare-nce-master/scalar")
    out = work / "corrupt"
    with redirect_stdout(io.StringIO()):
        code = lq.cli.main([*op.argv, "--out", str(out)])
    csv = out / "compare_nce_master.csv"
    good = csv.read_text()
    problems = []
    if not all(ok for _, ok, _ in op_checks(op, code, "", out)):
        problems.append("intact compare CSV was counted as a failure")
    header, first_row, *rest = good.splitlines()
    name, _, tol, passed = first_row.split(",")
    corruptions = {
        "diff above bound": [header, f"{name},1e-3,{tol},{passed}", *rest],
        "row missing": [header, *rest],
        "unparsable diff": [header, f"{name},x,{tol},{passed}", *rest],
    }
    for label, lines in corruptions.items():
        csv.write_text("\n".join(lines) + "\n")
        if all(ok for _, ok, _ in op_checks(op, code, "", out)):
            problems.append(f"corrupted compare CSV ({label}) passed")
    return problems


def main():
    lq, workloads = import_program()
    OUT.mkdir(exist_ok=True)
    failed = False
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    kinds_seen = set()
    try:
        for name in workloads.WORKLOADS:
            problems = check_workload(lq, workloads, name, work, kinds_seen)
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {name}")
            for p in problems:
                print(f"  {p}")
        missing = set(EXPECTED_PASSES) - kinds_seen
        failed |= bool(missing)
        print(f"{'FAIL' if missing else 'PASS'} passes counted for every solver"
              + (f" (none for {sorted(missing)})" if missing else ""))
        problems = check_corrupted_csv(lq, workloads, work)
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} corrupted compare CSV")
        for p in problems:
            print(f"  {p}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
