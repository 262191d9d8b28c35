"""Benchmark of the lqmfg command line, one workload per invocation.

    python3 bench/run.py --workload limit-routes --seed 0 --seconds 30 --trace 0

One client in this process calls `lqmfg.cli.main(argv)` in a closed loop:
each workload is a fixed list of commands (a pass, see workloads.py), and
passes repeat until the next one would end after `--seconds`. Every
command's outputs are checked (checks.py), and its wall time is scaled to
reference speed (reference.py). The package is imported from
`src/` of the checkout this file sits in; artifacts go to a work
directory under `.bench_out/` that is removed at the end.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs the same loop,
then one more pass with spans recorded around the library's entry points
(tracer.py), and reports the per-layer metrics (layers.py) instead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A fuller record (provenance, per-command times, failed checks) is written
to `.bench_out/results/`.
"""

import os

# Hold BLAS to one thread before numpy loads, so the only threads that run
# are the program's own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import reference
from checks import bytes_written, digest, group_checks, op_checks, op_fact
from layers import layer_metrics
from tracer import Tracer, install

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RESULTS = OUT / "results"
SETUP_REPEATS = 9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("limit-routes", "finite-population", "monte-carlo"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and generate inputs, then exit "
                        "(the run times this in child processes for setup_s)")
    return p.parse_args(argv)


def import_program():
    """Import lqmfg from the checkout's src/, and the workload definitions."""
    if not (SRC / "lqmfg" / "__init__.py").is_file():
        raise FileNotFoundError(f"no lqmfg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lqmfg.asymptotic
    import lqmfg.cli
    import lqmfg.master
    import lqmfg.nce
    import lqmfg.ode
    import lqmfg.sim
    import workloads
    return lqmfg, workloads


def measure_setup(args):
    """Set-up time of fresh processes that import and generate inputs.

    Returns (median at reference speed, median raw wall time) in seconds.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    raw, scaled = [], []
    before = reference.measure()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = perf_counter() - t0
        after = reference.measure()
        raw.append(elapsed)
        scaled.append(elapsed * reference.factor(before, after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Runs passes of one workload and books times and check results.

    Times are booked at reference speed (see reference.py): each command's
    wall time is scaled by REF_SECONDS over the mean of the kernel times
    measured right before and right after it.
    """

    def __init__(self, lq, ops, work: Path):
        self.lq = lq
        self.ops = ops
        self.work = work
        self.first_digest = {}
        self.failures = []
        self.attempted = 0
        self.op_times = defaultdict(list)
        self.raw_pass_times = []

    def _record(self, tag, key, results):
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{tag} {key} {name}: {detail}")

    def run_op(self, op, tag, tracer=None):
        """Run one command; returns (seconds in main, group fact, bytes)."""
        out = self.work / f"{tag}-{op.key.replace('/', '_')}"
        argv = [*op.argv, "--out", str(out)]
        buf = io.StringIO()
        main = self.lq.cli.main
        with redirect_stdout(buf), redirect_stderr(buf):
            t0 = perf_counter()
            try:
                if tracer is None:
                    code = main(argv)
                else:
                    code = tracer.call("cli.main", main, (argv,), {})
            except Exception:
                code = None
                traceback.print_exc()
            elapsed = perf_counter() - t0
        results = op_checks(op, code, buf.getvalue(), out)
        fact, size = None, 0
        if out.is_dir():
            d = digest(out)
            if op.key in self.first_digest:
                results.append(("byte-identical", d == self.first_digest[op.key],
                                "artifacts match the first run"))
            else:
                self.first_digest[op.key] = d
            fact, size = op_fact(op, out), bytes_written(out)
            shutil.rmtree(out)
        if code is None:
            results.append(("no-exception", False, buf.getvalue()[-500:]))
        self._record(tag, op.key, results)
        return elapsed, fact, size

    def run_pass(self, tag, tracer=None):
        """One pass over every op.

        Returns ([(raw seconds, scale to reference speed) per op], bytes).
        """
        facts = defaultdict(dict)
        times, size = [], 0
        before = reference.measure()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            elapsed, fact, nbytes = self.run_op(op, tag, tracer)
            after = reference.measure()
            times.append((elapsed, reference.factor(before, after)))
            before = after
            size += nbytes
            if op.group:
                facts[op.group][op.key] = fact
        for group, group_facts in facts.items():
            self._record(tag, group, group_checks(group, group_facts))
        return times, size

    def loop(self, seconds):
        """Closed loop of passes until the next would overrun `seconds`."""
        start = perf_counter()
        durations = []
        while True:
            t0 = perf_counter()
            times, _ = self.run_pass(f"pass{len(durations)}")
            durations.append(perf_counter() - t0)
            for op, (raw, scale) in zip(self.ops, times):
                self.op_times[op.key].append(raw * scale)
            self.raw_pass_times.append(sum(raw for raw, _ in times))
            if perf_counter() - start + statistics.median(durations) > seconds:
                break
        if len(durations) < 2:
            # a second run of one command still checks byte-identical reruns
            self.run_op(self.ops[0], "rerun")

    def median_times(self):
        """Op key -> median scaled seconds over the passes."""
        return {k: statistics.median(v) for k, v in self.op_times.items()}


def blas_info():
    import numpy
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg.get('name')} {cfg.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    threads = None
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(lq, args):
    import numpy
    h = hashlib.sha256()
    for path in sorted((SRC / "lqmfg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    blas, blas_threads = blas_info()
    thread_count = getattr(lq.asymptotic, "thread_count", None)
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "lqmfg_thread_count": thread_count() if thread_count else None,
        "git_commit": git_commit(),
        "source_sha256": h.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args):
    lq, workloads = import_program()
    setup_s, raw_setup_s = measure_setup(args)
    RESULTS.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ops = workloads.build(args.workload, args.seed, work)
        runner = Runner(lq, ops, work)
        runner.loop(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        medians = runner.median_times()
        wall_s = sum(medians.values())
        per_command = defaultdict(float)
        for op in ops:
            per_command[op.metric] += medians[op.key]
        layer, untraced, traced_scale = (
            traced_pass(lq, runner, workloads, args, wall_s) if args.trace
            else (None, [], None))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
           "peak_rss_mb": (peak_rss_mb, "MB")}
    failed = len(runner.failures)
    prov = provenance(lq, args)
    record = {
        "provenance": prov,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "per_command_s": dict(per_command),
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": statistics.median(runner.raw_pass_times),
        "op_failure_rate": failed / runner.attempted,
        "passes": len(runner.raw_pass_times),
        "op_times_s": dict(runner.op_times),
        "failures": runner.failures,
        "per_layer": {k: v for k, (v, _) in layer.items()} if layer else None,
        "untraced_entry_points": untraced,
        "traced_op_scale": traced_scale,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")

    for key, value in prov.items():
        print(f"provenance.{key}: {value}")
    print(f"passes: {record['passes']} ({len(ops)} commands each)")
    print("times are wall seconds at reference speed (bench/reference.py)")
    for key, (value, unit) in e2e.items():
        print(f"{key}: {value:.6g} {unit}")
    for key, value in per_command.items():
        print(f"{key}: {value:.6g} s")
    print(f"raw_setup_s: {raw_setup_s:.6g} s")
    print(f"raw_wall_s: {record['raw_wall_s']:.6g} s")
    print(f"op_failure_rate: {record['op_failure_rate']:.6g} "
          f"({failed} of {runner.attempted} commands and checks)")
    for line in runner.failures:
        print(f"FAIL {line}")
    for name in untraced:
        print(f"not traced (absent from the program): {name}")
    for key, (value, unit) in (layer or {}).items():
        print(f"{key}: {value:.6g} {unit}")
    metrics = layer if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_pass(lq, runner, workloads, args, wall_s):
    """One more pass with spans recorded.

    Returns (per-layer metrics, entry points the program lacks, scale of
    each op to reference speed).
    """
    tracer = Tracer()
    install(tracer, lq)
    try:
        times, size = runner.run_pass("traced", tracer)
    finally:
        tracer.restore()
    tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.csv")
    # spans of op i are scaled to reference speed like op i's wall time
    scale = {i: factor for i, (_, factor) in enumerate(times)}
    layer = layer_metrics(tracer.spans, workloads.FINITE_NS, size,
                          len(runner.ops), scale)
    traced_s = sum(raw * factor for raw, factor in times)
    layer["trace.overhead"] = (traced_s / wall_s - 1.0, "ratio")
    return layer, tracer.missing, scale


def setup_probe(args):
    _, workloads = import_program()
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        workloads.build(args.workload, args.seed, Path(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        return run(args)
    except (FileNotFoundError, subprocess.CalledProcessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
