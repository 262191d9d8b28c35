"""Compiler of the route fields: equation text into stacked numpy calls.

Each route writes its ODE field as text, one Python expression per state
segment (`equations`) plus shared subexpressions (`names`), over named
slots: the state segments in their flat order and the model constants.
A slot is a matrix of shape (r, c) or a stack of them, (K, r, c); vectors
are (d, 1) columns. `compile_equations` turns the text into index tables
that depend only on the text and the shapes, and keeps them in a cache,
so a second solve of the same shape parses nothing. `Equations.field`
writes the constants of one or more members (models, or one model at
several values of its scalars, of one set of shapes) into a pool of its
own and returns the field over that pool; `compile_field` does both.

The text is numpy's expression language, read as written:
- `@`, `+`, `-` and `*` associate and bind as in Python; `X.T` swaps the
  last two axes; `X[...]` (integers and slices, bounds written over
  `dims`) and `X.reshape(...)` are views;
- `c * X` with `c` a number or a scalar constant (shape ()) is a term
  with a coefficient;
- `block([[X, Y], [Z, W]])` assembles a matrix from blocks, broadcasting
  their stacks;
- `diag(X)` places matrix k of a (K, r, c) stack at column block k of a
  (K, r, Kc) stack, -0.0 everywhere else;
- `solve(A, B)`, `einsum("...", X, Y)` and `trace(X)` are the opaque
  numpy calls of those names (`trace` keeps a (1, 1) per matrix).

Every operand and result is a region of one flat pool: the state, the
constants, a -0.0 pad, then one region per distinct intermediate (a
subexpression met twice is one region). Views cost nothing: they are
index patterns into the pool, so block assembly and transposes are
gathers. Intermediates are products (`@`), sums (a left-to-right chain
of signed terms, the coefficients included) and opaque calls; those
built from constants alone are evaluated once per pool. The others are
scheduled into waves as late as their consumers allow, so that products
of one shape meet in one wave. A wave runs one call per product shape
(both operands gathered into (members, m, k) and (members, k, p) stacks,
one np.matmul with out= into the members' regions), one call for all of
its sums, whatever their shapes (the terms gathered into a
(terms, cells) table, padded with -0.0, multiplied by the coefficients
and reduced over the first axis with out= into the regions), and each
opaque call. A stage writes the state into the pool, runs the waves and
returns the output sums, reduced the same way into a fresh array.

The floats are those of the written expressions evaluated by numpy
(tests/helpers.py keeps them as reference fields) bit for bit, because:
- a stacked (members, m, k) @ (members, k, p) gives each member its own
  product; for m, p > 1 the BLAS gemm result does not depend on the
  operands' leading dimensions or transposition (a property of the BLAS,
  which tests/test_fields.py checks), so an operand that is a strided
  view of the pool is read in place instead of gathered;
- a product with a vector side (m or p is 1, k > 1) is a gemv or a dot,
  whose gemv_n form depends on the matrix's leading dimension. Its
  matrix is read whole (gathered, or in place if it lies C-contiguous)
  in the orientation it is stored in and transposed as a view, so BLAS
  sees the layout the written expression has (every such matrix in the
  route texts is a whole array), and its vector has unit stride;
- the opaque calls get C-contiguous operands, as in the written
  expressions;
- x - y is x + (-1.0 * y) and c * x is one rounding, so signed,
  coefficient-carrying terms are the written operations;
- adding -0.0 leaves every sum unchanged, -0.0 included, so padded terms
  and the -0.0 around a `diag` change nothing;
- np.add.reduce over the leading axis of a C-contiguous table adds left
  to right.
The pool is the field's own: the field is not reentrant, and its result
never aliases the pool.

A field of B > 1 members evaluates them all with the calls of one: its
pool is (B, pool_size), one row per member holding that member's
constants and coefficients, and its state (B, state_size). A gather is
one take from the flat pool with the address table offset by each row,
a product signature is one np.matmul over (B, members, m, k) stacks, a
strided-view operand gains the row stride as a leading one, and a sum
group reduces axis 1 of a (B, terms, cells) table. Each member's floats
are its floats alone: the stacked np.matmul still makes one gemm or gemv
per matrix, on the layout of that member's operand; the reduce adds each
cell's terms left to right, as over axis 0 of one member's table (one
cell's terms are a row, summed as that member's one-cell table is); and
the coefficients multiply entry by entry. An opaque call runs once per
member, on that member's own C-contiguous operands, as the rounding of a
stacked np.linalg.solve has not been checked. A field of one member has
no member axis at all, so its calls are those of a field of its own.
"""

import ast
import functools
import math

import numpy as np

# The opaque calls: the numpy function and the result shape it gives for
# operand shapes (literal arguments first).
_OPS = {
    "solve": (np.linalg.solve, lambda a, b: b),
    "einsum": (np.einsum,
               lambda sub, *shapes: np.einsum(
                   sub, *(np.zeros(s) for s in shapes)).shape),
    "trace": (lambda x: x.trace(0, -2, -1)[..., None, None],
              lambda x: x[:-2] + (1, 1)),
}
# Opaque calls that act on each matrix of a stack alone: calls of one of
# these on operands of one matrix shape run as one stacked call.
_STACKED_OPS = {"trace"}


class _Ref:
    """An operand: the pool addresses `idx` of the matrix as stored, and
    whether it is used transposed (`t`)."""

    __slots__ = ("idx", "t")

    def __init__(self, idx, t=False):
        self.idx = idx
        self.t = t

    def fold(self):
        """The addresses of the operand as used."""
        return np.ascontiguousarray(self.idx.swapaxes(-1, -2) if self.t
                                    else self.idx)


class _Node:
    """An intermediate: kind "mm" (args: a, ta, b, tb), "sum" (args: the
    (coefficient, addresses) terms) or "op" (args: name, literals,
    operand addresses); its virtual region starts at `start`."""

    def __init__(self, kind, shape, start, args):
        self.kind = kind
        self.shape = shape
        self.size = math.prod(shape)
        self.start = start
        self.args = args

    def operands(self):
        if self.kind == "mm":
            return [self.args[0], self.args[2]]
        if self.kind == "sum":
            return [idx for _, idx in self.args]
        return list(self.args[2])

    def signature(self):
        """Nodes of one signature run as one call in a wave."""
        if self.kind == "sum":
            return ("sum",)
        if self.kind == "op":
            name, literals, operands = self.args
            if name in _STACKED_OPS:
                return ("op", name, literals) + tuple(
                    x.shape[-2:] for x in operands)
            return ("op", self.start)
        a, ta, b, tb = self.args
        return ("mm", a.shape[-2:], ta, b.shape[-2:], tb)


class _Parser:
    """Walks the text once, building the nodes and the output terms over
    virtual addresses (state, constants, pad, then the nodes in creation
    order)."""

    def __init__(self, state, consts, names, dims):
        self.size = 0
        self.slots = {}
        for name, shape in state:
            self.slots[name] = self.alloc(shape)
        self.state_size = self.size
        self.scalars = {name for name, shape in consts if shape == ()}
        for name, shape in consts:
            if shape != ():
                self.slots[name] = self.alloc(shape)
        self.pad = int(self.alloc(()))
        self.nodes = []
        self.known = {}
        self.names = dict(names)
        self.dims = dict(dims)

    def alloc(self, shape):
        start, self.size = self.size, self.size + math.prod(shape)
        return np.arange(start, self.size).reshape(shape)

    def node(self, kind, shape, key, args):
        if key not in self.known:
            shape = tuple(int(s) for s in shape)
            node = _Node(kind, shape, self.size, args)
            self.alloc(shape)
            self.nodes.append(node)
            self.known[key] = _Ref(np.arange(node.start, node.start
                                             + node.size).reshape(shape))
        return self.known[key]

    def integer(self, e):
        if isinstance(e, ast.Constant) and isinstance(e.value, int):
            return e.value
        if isinstance(e, ast.Name):
            return self.dims[e.id]
        ops = {ast.Add: int.__add__, ast.Sub: int.__sub__,
               ast.Mult: int.__mul__}
        if isinstance(e, ast.BinOp) and type(e.op) in ops:
            return ops[type(e.op)](self.integer(e.left), self.integer(e.right))
        raise ValueError(f"not an integer: {ast.unparse(e)}")

    def index(self, e):
        if isinstance(e, ast.Tuple):
            return tuple(self.index(x) for x in e.elts)
        if isinstance(e, ast.Slice):
            return slice(*(None if x is None else self.integer(x)
                           for x in (e.lower, e.upper, e.step)))
        return self.integer(e)

    def expr(self, e) -> _Ref:
        if isinstance(e, ast.Name):
            if e.id in self.slots:
                return _Ref(self.slots[e.id])
            if e.id not in self.known:
                self.known[e.id] = self.expr(
                    ast.parse(self.names[e.id], mode="eval").body)
            return self.known[e.id]
        if isinstance(e, ast.Attribute) and e.attr == "T":
            ref = self.expr(e.value)
            return _Ref(ref.idx, not ref.t)
        if isinstance(e, ast.Subscript):
            return _Ref(self.expr(e.value).fold()[self.index(e.slice)])
        if isinstance(e, ast.Call):
            return self.call(e)
        if isinstance(e, ast.BinOp) and isinstance(e.op, ast.MatMult):
            return self.matmul(self.expr(e.left), self.expr(e.right))
        return self.sum(self.terms(e))

    def call(self, e):
        f = e.func
        if isinstance(f, ast.Attribute) and f.attr == "reshape":
            return _Ref(self.expr(f.value).fold().reshape(
                [self.integer(a) for a in e.args]))
        if f.id == "block":
            rows = [[self.expr(x).fold() for x in row.elts]
                    for row in e.args[0].elts]
            lead = np.broadcast_shapes(*(x.shape[:-2] for r in rows for x in r))
            return _Ref(np.concatenate([
                np.concatenate([np.broadcast_to(x, lead + x.shape[-2:])
                                for x in row], axis=-1) for row in rows],
                axis=-2))
        if f.id == "diag":
            x = self.expr(e.args[0]).fold()
            K, r, c = x.shape
            out = np.full((K, r, K, c), self.pad)
            out[np.arange(K), :, np.arange(K), :] = x
            return _Ref(out.reshape(K, r, K * c))
        fn, shape_of = _OPS[f.id]
        literals = tuple(a.value for a in e.args if isinstance(a, ast.Constant))
        operands = tuple(self.expr(a).fold() for a in e.args
                         if not isinstance(a, ast.Constant))
        key = ("op", f.id, literals) + tuple(
            (x.shape, x.tobytes()) for x in operands)
        return self.node("op", shape_of(*literals, *(x.shape for x in operands)),
                         key, (f.id, literals, operands))

    def matmul(self, a, b):
        (*la, m, k), (*lb, _, p) = a.fold().shape, b.fold().shape
        lead = np.broadcast_shapes(tuple(la), tuple(lb))
        # a matrix meeting a vector keeps the orientation it is stored in
        vector = (m == 1 or p == 1) and k > 1
        args = []
        for ref in (a, b):
            stored = vector and ref.t and min(ref.idx.shape[-2:]) > 1
            idx = ref.idx if stored else ref.fold()
            args += [np.ascontiguousarray(
                np.broadcast_to(idx, lead + idx.shape[-2:])), stored]
        key = ("mm",) + tuple(
            (x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x
            for x in args)
        return self.node("mm", lead + (m, p), key, tuple(args))

    def terms(self, e):
        """The signed terms of a left-to-right sum, as (coefficient, ref);
        a coefficient is (sign, number or None, scalar name or None)."""
        out = []
        while isinstance(e, ast.BinOp) and isinstance(e.op, (ast.Add, ast.Sub)):
            out.append(self.term(e.right, 1.0 if isinstance(e.op, ast.Add)
                                 else -1.0))
            e = e.left
        out.append(self.term(e, 1.0))
        return out[::-1]

    def term(self, e, sign):
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
            return self.term(e.operand, -sign)
        if isinstance(e, ast.BinOp) and isinstance(e.op, ast.Mult):
            c = e.left
            if isinstance(c, ast.Constant):
                return (sign, float(c.value), None), self.expr(e.right)
            if isinstance(c, ast.Name) and c.id in self.scalars:
                return (sign, None, c.id), self.expr(e.right)
            raise ValueError(f"not a coefficient: {ast.unparse(c)}")
        return (sign, None, None), self.expr(e)

    def sum(self, terms):
        if len(terms) == 1 and terms[0][0] == (1.0, None, None):
            return terms[0][1]
        folded = [(c, ref.fold()) for c, ref in terms]
        shape = np.broadcast_shapes(*(x.shape for _, x in folded))
        args = tuple((c, np.ascontiguousarray(np.broadcast_to(x, shape)))
                     for c, x in folded)
        key = ("sum",) + tuple((c, x.shape, x.tobytes()) for c, x in args)
        return self.node("sum", shape, key, args)

    def outputs(self, equations, shapes):
        """Per output segment, its terms broadcast to the segment."""
        out = []
        for text, shape in zip(equations, shapes):
            terms = self.terms(ast.parse(text, mode="eval").body)
            out.append([(c, np.broadcast_to(ref.fold(), shape).ravel())
                        for c, ref in terms])
        return out


def _schedule(nodes, state_size):
    """(prologue, waves): the nodes built from constants alone, in
    creation order, and the others in waves, each a list of same-signature
    lists. A node runs in the first wave that finds it ready and holds a
    node of its signature that cannot wait any longer."""
    owner = np.full(max((n.start + n.size for n in nodes), default=0), -1)
    for i, node in enumerate(nodes):
        owner[node.start:node.start + node.size] = i
    const, deps = [], []
    for node in nodes:
        addrs = np.concatenate([x.ravel() for x in node.operands()])
        reads = set(owner[addrs].tolist()) - {-1}
        # nodes are created after their operands
        const.append(not (addrs < state_size).any()
                     and all(const[j] for j in reads))
        deps.append({j for j in reads if not const[j]})
    live = [i for i in range(len(nodes)) if not const[i]]
    level = {}
    for i in live:
        level[i] = 1 + max((level[j] for j in deps[i]), default=0)
    depth = max(level.values(), default=0)
    latest = dict.fromkeys(live, depth)
    for i in reversed(live):
        for j in deps[i]:
            latest[j] = min(latest[j], latest[i] - 1)
    waves, done, todo = [], set(), live
    for w in range(1, depth + 1):
        ready = [i for i in todo if deps[i] <= done]
        urgent = {nodes[i].signature() for i in ready if latest[i] == w}
        groups = {}
        for i in ready:
            if nodes[i].signature() in urgent:
                groups.setdefault(nodes[i].signature(), []).append(i)
        ran = {i for members in groups.values() for i in members}
        done |= ran
        todo = [i for i in todo if i not in ran]
        waves.append([[nodes[i] for i in members]
                      for members in groups.values()])
    return [[nodes[i]] for i in range(len(nodes)) if const[i]], waves


def _frozen(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class Equations:
    """The compiled tables of one equation text at one set of shapes.

    Built by `compile_equations`, which caches them; they hold pool
    addresses and coefficient names only, no model values.
    """

    def __init__(self, state, consts, names, equations, dims):
        p = _Parser(state, consts, names, dims)
        outputs = p.outputs(equations, [shape for _, shape in state])
        prologue, waves = _schedule(p.nodes, p.state_size)
        self.state_size = p.state_size
        self.pad = p.pad
        self.consts = [(name, int(p.slots[name].flat[0]), shape)
                       for name, shape in consts if shape != ()]
        # real addresses: state, constants and pad stay, the nodes follow
        # in run order, so each group's results are one slab
        remap = np.arange(p.size)
        pos = p.pad + 1
        groups = prologue + [g for wave in waves for g in wave]
        for group in groups:
            for node in group:
                remap[node.start:node.start + node.size] = np.arange(
                    pos, pos + node.size)
                pos += node.size
        self.pool_size = pos
        self.coefs = []                # distinct coefficient keys
        tables = [self._table(remap, g) for g in groups]
        self.prologue = tables[:len(prologue)]
        self.waves = tables[len(prologue):]
        self.final = self._sums(remap, outputs, None, None)

    def _code(self, coef):
        if coef not in self.coefs:
            self.coefs.append(coef)
        return self.coefs.index(coef)

    def _sums(self, remap, sums, lo, hi):
        """A sum table: `sums` lists the (coefficient, addresses) terms of
        each sum, its cells in C order; rows past a sum's terms add the
        -0.0 pad. The coefficient codes are kept per row and sum, with
        each sum's cell count."""
        depth = max(len(terms) for terms in sums)
        pad = (self._code((1.0, None, None)), np.array(self.pad))
        idx, code, cells = [], [], []
        for terms in sums:
            cells.append(terms[0][1].size)
            rows = [(self._code(c), remap[a]) for c, a in terms]
            rows += [pad] * (depth - len(terms))
            idx.append(np.stack([np.broadcast_to(a, cells[-1])
                                 for _, a in rows]))
            code.append([c for c, _ in rows])
        return ("sum", _frozen(np.concatenate(idx, axis=1)),
                (np.array(code).T, np.array(cells)), lo, hi)

    def _table(self, remap, group):
        lo = int(remap[group[0].start])
        hi = lo + sum(node.size for node in group)
        kind = group[0].kind
        if kind == "sum":
            return self._sums(remap, [[(c, a.ravel()) for c, a in node.args]
                                      for node in group], lo, hi)
        if kind == "op":
            name, literals, operands = group[0].args
            if len(group) > 1:
                operands = [_stack([node.args[2][i] for node in group])
                            for i in range(len(operands))]
                shape = (-1,) + group[0].shape[-2:]
            else:
                shape = group[0].shape
            return ("op", name, literals,
                    tuple(_source(remap[x], ("whole",)) for x in operands),
                    lo, hi, shape)
        a, b = (remap[_stack([node.args[i] for node in group])]
                for i in (0, 2))
        ta, tb = group[0].args[1], group[0].args[3]
        if (b == b[0]).all():          # one right operand for all: broadcast
            b = b[:1]
        m, p = group[0].shape[-2:]
        # a gemm operand may be read transposed; a matrix meeting a vector
        # is read in the layout it is stored in (see the module docstring)
        layouts = ("C", "F") if m > 1 and p > 1 else ("C",)
        sa, sb = _source(a, layouts), _source(b, layouts)
        if _strided(a, layouts) and np.isin(b, a).any():
            sb = _frozen(b)            # no A @ A.T on one buffer (syrk)
        return ("mm", sa, ta, sb, tb, lo, hi, (a.shape[0], m, p))

    def field(self, members):
        """The field d(state)/dt over a new pool holding one row of
        constants per member, row b holding `members[b]` (every constant
        by name, scalars included): f(t, state) -> derivative, of shape
        (B, state_size), or (state_size,) for one member. One member's
        pool has no member axis, so its field makes the calls of a field
        of its own."""
        lead = (len(members),) if len(members) > 1 else ()
        pool = np.empty(lead + (self.pool_size,))
        for row, values in zip(pool.reshape(-1, self.pool_size), members):
            for name, lo, shape in self.consts:
                row[lo:lo + math.prod(shape)] = np.broadcast_to(
                    values[name], shape).ravel()
        pool[..., self.pad] = -0.0
        coefs = np.array([[sign * (1.0 if lit is None else lit)
                           * (1.0 if name is None else values[name])
                           for sign, lit, name in self.coefs]
                          for values in members]).reshape(lead + (-1,))
        for table in self.prologue:
            _step(pool, coefs, table)()
        steps = [_step(pool, coefs, table) for table in self.waves]
        _, idx, code, _, _ = self.final
        idx = _members(idx, pool)
        final_coefs = _coefficients(coefs, code)
        flat = pool.reshape(-1)
        size = self.state_size

        def fieldfn(t, state):
            pool[..., :size] = state
            for step in steps:
                step()
            stack = flat[idx]
            stack *= final_coefs
            return np.add.reduce(stack, axis=-2)

        return fieldfn


def _stack(tables):
    """Address tables of matrices, stacked on one leading axis."""
    return np.concatenate([x.reshape((-1,) + x.shape[-2:]) for x in tables])


def _strided(table, layouts):
    """(base, strides) of an address table that is a strided view of the
    pool whose matrices have one of `layouts` ("C": C-contiguous as a
    gather gives them, "F": the transpose of that, "whole": the whole
    table C-contiguous), or None."""
    base, shape = int(table.flat[0]), table.shape
    r, c = shape[-2:]
    steps = [int(table[tuple(min(size, 2) - 1 if i == axis else 0
                             for i in range(len(shape)))]) - base
             for axis, size in enumerate(shape)]
    natural = [math.prod(shape[axis + 1:]) for axis in range(len(shape))]
    for layout in layouts:
        if layout == "whole":
            strides = natural
        else:
            strides = steps[:-2] + ([c, 1] if layout == "C" else [1, r])
        if all(n == 1 or s == t for n, s, t in zip(shape, steps, strides)):
            grid = np.indices(shape).reshape(len(shape), -1)
            if np.array_equal(table.ravel(), base + np.dot(strides, grid)):
                return base, strides
    return None


def _source(table, layouts):
    """How to read an operand: (base, strides, shape) of the strided view
    of the pool that equals its gather (see _strided), else the frozen
    address table."""
    spec = _strided(table, layouts)
    return _frozen(table) if spec is None else spec + (table.shape,)


def _members(table, pool):
    """An address table of one member, offset to every member of `pool`
    (B, pool_size), or as it is for a pool of one member (pool_size,):
    addresses into the flat pool, the member axis first."""
    lead, size = pool.shape[:-1], pool.shape[-1]
    if not lead:
        return table
    rows = size * np.arange(lead[0]).reshape(lead + (1,) * table.ndim)
    return _frozen(rows + table)


def _reader(pool, source):
    """(view, table): a read-only view of every member's operand for a
    view source (the member stride first), or (None, the members'
    address table) for a gathered one."""
    if isinstance(source, np.ndarray):
        return None, _members(source, pool)
    base, strides, shape = source
    if pool.ndim > 1:
        shape = pool.shape[:1] + shape
        strides = [pool.shape[1]] + strides
    return np.lib.stride_tricks.as_strided(
        pool.reshape(-1)[base:], shape, [pool.itemsize * s for s in strides],
        writeable=False), None


def _coefficients(coefs, code):
    """The (..., terms, cells) coefficient table of a sum table's codes,
    from the members' (..., codes) coefficients."""
    rows, cells = code
    return np.repeat(coefs[..., rows], cells, axis=-1)


def _step(pool, coefs, table):
    """One call of a group over every member of `pool`, as a closure. An
    operand that is a strided view of the pool is read in place instead
    of gathered; an opaque call runs once per member."""
    flat = pool.reshape(-1)
    lead = pool.shape[:-1]
    if table[0] == "sum":
        _, idx, code, lo, hi = table
        idx = _members(idx, pool)
        out = pool[..., lo:hi]
        c = _coefficients(coefs, code)

        def step():
            stack = flat[idx]
            stack *= c
            np.add.reduce(stack, axis=-2, out=out)
    elif table[0] == "op":
        _, name, literals, operands, lo, hi, shape = table
        out = pool[..., lo:hi].reshape(lead + shape)
        fn = _OPS[name][0]
        reads = [_reader(pool, x) for x in operands]

        def step():
            args = [flat[x] if v is None else v for v, x in reads]
            if not lead:
                out[...] = fn(*literals, *args)
                return
            for b in range(lead[0]):
                out[b] = fn(*literals, *(x[b] for x in args))
    else:
        _, a, ta, b, tb, lo, hi, shape = table
        out = pool[..., lo:hi].reshape(lead + shape)
        (va, a), (vb, b) = _reader(pool, a), _reader(pool, b)

        def step():
            x = flat[a] if va is None else va
            y = flat[b] if vb is None else vb
            np.matmul(x.swapaxes(-1, -2) if ta else x,
                      y.swapaxes(-1, -2) if tb else y, out=out)
    return step


@functools.lru_cache(maxsize=64)
def compile_equations(state, consts, names, equations, dims) -> Equations:
    """The tables of `equations` (one text per state segment, in order)
    with shared subexpressions `names`, over state segments and constants
    given as (name, shape) pairs in order and integer `dims` for index
    bounds; all arguments are tuples, and the tables of one argument set
    are built once per process."""
    return Equations(state, consts, names, equations, dims)


def compile_field(state, members, names, equations, dims=None):
    """The field of `equations` over the state segments `state` ((name,
    shape) pairs, in flat order) with constants `members` (one mapping
    name -> array, or a float for a scalar, per member, all of one set of
    shapes), shared subexpressions `names` (name -> text) and integer
    `dims` for index bounds: compiled once per shapes, its pool holding
    one row of these values per member."""
    consts = tuple((name, np.shape(value))
                   for name, value in members[0].items())
    tables = compile_equations(tuple(state), consts, tuple(names.items()),
                               tuple(equations), tuple((dims or {}).items()))
    return tables.field(members)
