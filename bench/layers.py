"""Per-layer metrics computed from the spans of one traced pass.

Self time of a span is its duration minus the part of its interval that
its child spans cover (the union, so that overlapping children from pool
threads are not subtracted twice). Durations are scaled per op to
reference speed, like the end-to-end times (reference.py).
"""

from collections import defaultdict

from tracer import ATTRS, END, ID, NAME, OP, PARENT, START

INTEGRATE = "ode.integrate_backward"
# Solver entry points and the short name their integrator passes go under.
SOLVERS = {"nce.solve_nce": "nce", "master.solve_master": "master",
           "asymptotic.solve_lambda": "lambda",
           "asymptotic.solve_finite_n": "finite-n"}
CHECK = "asymptotic.check_asymptotic_solvability"


def _covered(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    def __init__(self, spans, scale=None):
        self.scale = scale or {}
        self.by_id = {s[ID]: s for s in spans}
        self.children = defaultdict(list)
        self.named = defaultdict(list)
        for s in spans:
            if s[PARENT] is not None:
                self.children[s[PARENT]].append(s)
            self.named[s[NAME]].append(s)

    def dur(self, s) -> float:
        return (s[END] - s[START]) * self.scale.get(s[OP], 1.0)

    def self_time(self, s) -> float:
        kids = [(c[START], c[END]) for c in self.children.get(s[ID], ())]
        covered = _covered(kids, s[START], s[END])
        return self.dur(s) - covered * self.scale.get(s[OP], 1.0)

    def total(self, name) -> float:
        return sum(self.dur(s) for s in self.named.get(name, ()))

    def count(self, name) -> int:
        return len(self.named.get(name, ()))

    def ancestor(self, s, names):
        """Nearest enclosing span whose name is in `names`, or None."""
        while s[PARENT] is not None:
            s = self.by_id[s[PARENT]]
            if s[NAME] in names:
                return s
        return None

    def passes(self, solve):
        """Integrator passes run directly by a solver span, in call order."""
        return sorted((c for c in self.children.get(solve[ID], ())
                       if c[NAME] == INTEGRATE), key=lambda c: c[START])

    def field_calls(self, integ):
        return [c for c in self.children.get(integ[ID], ())
                if c[NAME].endswith(".field")]


def passes_per_solve(tree: SpanTree) -> dict:
    """Solver short name -> set of pass counts seen on solvable calls."""
    seen = defaultdict(set)
    for name, kind in SOLVERS.items():
        for s in tree.named.get(name, ()):
            if s[ATTRS].get("solved"):
                seen[kind].add(len(tree.passes(s)))
    return dict(seen)


def layer_metrics(spans, finite_ns, bytes_written, commands, scale=None) -> dict:
    """Metric name -> (value, unit) for every per-layer metric.

    `scale` maps an op id to the factor that brings its times to reference
    speed; ops without one are left as measured.
    """
    tree = SpanTree(spans, scale)
    m = {}

    m["modelfile.load_s"] = (tree.total("modelfile.load_model"), "s")
    m["modelfile.load_calls"] = (tree.count("modelfile.load_model"), "count")
    m["model.lift_pi_s"] = (tree.total("model.lift_pi"), "s")
    m["model.lift_pi_calls"] = (tree.count("model.lift_pi"), "count")

    # Field evaluations grouped by integrator pass, then by solver.
    field_s = defaultdict(float)
    field_n = defaultdict(int)
    useful = 0
    evals = steps = stepped = escapes = 0
    ode_self = 0.0
    for integ in tree.named.get(INTEGRATE, ()):
        attrs = integ[ATTRS]
        calls = tree.field_calls(integ)
        solver = tree.ancestor(integ, SOLVERS)
        kind = SOLVERS[solver[NAME]] if solver else attrs["module"]
        if kind == "finite-n":
            kind = f"finite-n.N{solver[ATTRS]['N']}"
        field_s[kind] += sum(tree.dur(c) for c in calls)
        field_n[kind] += len(calls)
        evals += len(calls)
        steps += attrs.get("steps", 0)
        stepped += attrs["size"] * 8 * attrs.get("steps", 0)
        escapes += bool(attrs.get("escaped"))
        ode_self += tree.self_time(integ)
        if solver is not None and solver[ATTRS].get("solved"):
            if tree.passes(solver)[-1] is integ:
                useful += len(calls)

    def per_eval(keys):
        n = sum(field_n[k] for k in keys)
        return 1e6 * sum(field_s[k] for k in keys) / n if n else 0.0

    m["ode.passes"] = (tree.count(INTEGRATE), "count")
    m["ode.steps"] = (steps, "count")
    m["ode.field_evals"] = (evals, "count")
    m["ode.useful_eval_ratio"] = (useful / evals if evals else 0.0, "ratio")
    m["ode.state_bytes_stepped"] = (stepped, "B")
    m["ode.escape_reports"] = (escapes, "count")
    m["ode.self_s"] = (ode_self, "s")
    m["ode.sym_s"] = (sum(tree.total(f"{mod}.symmetrize")
                          for mod in ("nce", "master", "asymptotic")), "s")

    for mod in ("nce", "master"):
        solve = f"{mod}.solve_{mod}"
        m[f"{mod}.field_s"] = (field_s[mod], "s")
        m[f"{mod}.field_us_per_eval"] = (per_eval([mod]), "us")
        m[f"{mod}.materialize_s"] = (
            sum(tree.self_time(s) for s in tree.named.get(solve, ())), "s")
    m["master.compare_s"] = (tree.total("master.compare_nce_master"), "s")

    finite_keys = [k for k in field_n if k.startswith("finite-n.")]
    m["asymptotic.lambda_field_s"] = (field_s["lambda"], "s")
    m["asymptotic.lambda_field_us_per_eval"] = (per_eval(["lambda"]), "us")
    m["asymptotic.phi_compare_s"] = (
        tree.total("asymptotic.compare_lambda_phi"), "s")
    m["asymptotic.finite_field_s"] = (
        sum(field_s[k] for k in finite_keys), "s")
    for N in finite_ns:
        m[f"asymptotic.finite_field_us_per_eval.N{N}"] = (
            per_eval([f"finite-n.N{N}"]), "us")
    m["asymptotic.assemble_s"] = (tree.total("asymptotic.assemble_finite_n"), "s")
    m["asymptotic.structure_s"] = (
        tree.total("asymptotic.extract_block_structure"), "s")
    checks = tree.named.get(CHECK, ())
    busy = sum(tree.dur(c) for s in checks for c in tree.children.get(s[ID], ())
               if c[NAME] == "asymptotic.solve_finite_n")
    wall = sum(tree.dur(s) for s in checks)
    m["asymptotic.solvability_busy_ratio"] = (busy / wall if wall else 0.0,
                                              "ratio")

    sims = tree.named.get("sim.simulate", ())
    sim_s = tree.total("sim.simulate")
    player_steps = sum(s[ATTRS]["N"] * s[ATTRS].get("steps", 0) for s in sims)
    interps = [s for s in tree.named.get("ode.MatrixPath.interp", ())
               if tree.ancestor(s, {"sim.simulate"}) is not None]
    m["sim.simulate_s"] = (sim_s, "s")
    m["sim.player_steps_per_s"] = (player_steps / sim_s if sim_s else 0.0, "1/s")
    m["sim.interp_calls"] = (len(interps), "count")
    m["sim.interp_s"] = (sum(tree.dur(s) for s in interps), "s")
    m["sim.noise_bytes"] = (sum(s[ATTRS]["N"] * s[ATTRS].get("steps", 0)
                                * s[ATTRS].get("n2", 0) * 8 for s in sims), "B")
    m["sim.error_s"] = (tree.total("sim.empirical_mean_error"), "s")
    m["sim.cost_s"] = (tree.total("sim.evaluate_cost"), "s")

    m["cli.self_s"] = (sum(tree.self_time(s)
                           for s in tree.named.get("cli.main", ())), "s")
    m["cli.bytes_written"] = (bytes_written, "B")
    m["cli.commands"] = (commands, "count")
    return m
