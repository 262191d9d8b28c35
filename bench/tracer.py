"""Spans recorded around library entry points, from outside the library.

The tracer replaces module attributes of `lqmfg` with wrappers that record
one span per call (name, start, end, parent, op id) and puts the originals
back on `restore()`. The CLI looks these attributes up at call time, so a
wrapped attribute sees every call the CLI makes. Integrator calls also get
their `field` and `symmetrize` callbacks wrapped, so each field evaluation
and each projection is a span of its own.

Spans opened by a thread with no open span of its own (the pool threads of
`check_asymptotic_solvability`) attach to the innermost open span that was
marked `adopt`.
"""

import functools
import itertools
import threading
from time import perf_counter

# Span record layout: [id, name, start, end, parent, op, attrs]
ID, NAME, START, END, PARENT, OP, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._adopt = []
        self._patched = []
        self.missing = []

    def call(self, name, fn, args, kwargs, attrs=None, on_result=None,
             adopt=False):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._adopt[-1] if self._adopt else None
        sid = next(self._ids)
        rec = [sid, name, 0.0, 0.0, parent, self.op, attrs]
        self.spans.append(rec)
        stack.append(sid)
        if adopt:
            self._adopt.append(sid)
        rec[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            stack.pop()
            if adopt:
                self._adopt.pop()
        if on_result is not None:
            on_result(rec, result)
        return result

    def leaf(self, name, fn):
        """`fn` wrapped so that each call is a span named `name`."""
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def patch(self, owner, attr, name, attrs=None, on_result=None,
              adopt=False, make=None):
        """Replace owner.attr with a traced wrapper.

        `attrs(args, kwargs)` gives the span's attribute dict; `make`, if
        given, builds the wrapper from the original instead. An attribute
        the program no longer has is noted in `missing` and skipped.
        """
        if not hasattr(owner, attr):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        orig = getattr(owner, attr)
        if make is not None:
            wrapper = make(orig)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, orig, args, kwargs,
                                 attrs(args, kwargs) if attrs else None,
                                 on_result, adopt)
        functools.update_wrapper(wrapper, orig)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def integrator(self, prefix):
        """Wrapper factory for a module's `integrate_backward` binding."""
        def make(orig):
            def traced(field, terminal, grid, *args, **kwargs):
                field = self.leaf(f"{prefix}.field", field)
                if kwargs.get("symmetrize") is not None:
                    kwargs["symmetrize"] = self.leaf(f"{prefix}.symmetrize",
                                                     kwargs["symmetrize"])
                elif len(args) >= 2 and args[1] is not None:
                    args = (args[0], self.leaf(f"{prefix}.symmetrize", args[1]),
                            *args[2:])
                attrs = {"module": prefix, "size": int(terminal.size),
                         "M": grid.M}
                return self.call("ode.integrate_backward", orig,
                                 (field, terminal, grid, *args), kwargs,
                                 attrs, _record_steps)
            return traced
        return make

    def write(self, path):
        """Spans as CSV: id,name,start,end,parent,op (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for s in self.spans:
                parent = "" if s[PARENT] is None else s[PARENT]
                fh.write(f"{s[ID]},{s[NAME]},{s[START]!r},{s[END]!r},"
                         f"{parent},{s[OP]}\n")


def _escaped(result) -> bool:
    return hasattr(result, "escape_node")


def _record_steps(rec, result):
    attrs = rec[ATTRS]
    attrs["escaped"] = _escaped(result)
    attrs["steps"] = attrs["M"] - result.escape_node if attrs["escaped"] else attrs["M"]


def _record_solved(rec, result):
    rec[ATTRS]["solved"] = not _escaped(result)


def _record_trajectory(rec, result):
    rec[ATTRS].update(steps=result.steps, n2=result.model.n2)


def _fresh_attrs(args, kwargs):
    return {}


def _population_attrs(args, kwargs):
    return {"N": int(args[1] if len(args) > 1 else kwargs["N"])}


def install(tracer, lq):
    """Wrap the entry points of the `lqmfg` modules in namespace `lq`."""
    t = tracer
    t.patch(lq.cli, "load_model", "modelfile.load_model")
    for mod in (lq.nce, lq.master):
        t.patch(mod, "lift_pi", "model.lift_pi")
    for mod in (lq.nce, lq.master, lq.asymptotic):
        t.patch(mod, "integrate_backward", None,
                make=t.integrator(mod.__name__.rsplit(".", 1)[-1]))
    t.patch(lq.nce, "solve_nce", "nce.solve_nce", _fresh_attrs, _record_solved)
    t.patch(lq.master, "solve_master", "master.solve_master", _fresh_attrs,
            _record_solved)
    t.patch(lq.asymptotic, "solve_lambda", "asymptotic.solve_lambda",
            _fresh_attrs, _record_solved)
    t.patch(lq.asymptotic, "solve_finite_n", "asymptotic.solve_finite_n",
            _population_attrs, _record_solved)
    t.patch(lq.asymptotic, "assemble_finite_n", "asymptotic.assemble_finite_n")
    t.patch(lq.master, "compare_nce_master", "master.compare_nce_master")
    t.patch(lq.asymptotic, "compare_lambda_phi", "asymptotic.compare_lambda_phi")
    t.patch(lq.asymptotic, "extract_block_structure",
            "asymptotic.extract_block_structure")
    t.patch(lq.asymptotic, "check_asymptotic_solvability",
            "asymptotic.check_asymptotic_solvability", adopt=True)
    t.patch(lq.sim, "simulate", "sim.simulate", _population_attrs, _record_trajectory)
    t.patch(lq.sim, "empirical_mean_error", "sim.empirical_mean_error")
    t.patch(lq.sim, "evaluate_cost", "sim.evaluate_cost")
    t.patch(lq.ode.MatrixPath, "interp", "ode.MatrixPath.interp")
