"""Model files: Python literals, one `key = literal` assignment per line.

Python's own parser reads them, so `#` starts a comment, a bracketed value
may continue across lines and a line may be indented. Hand-editable by
design. The keys are the fields of `model.ValidatedModel`, in its
declaration order, with the K minor drifts `A` written one per type as
A1..AK:

    n n1 n2 K T rho A1..AK pi
    A0 B0 F0 D0 B F G D
    Q0 Q0f Q Qf R0 R
    Gamma0 Gamma0f Gamma1 Gamma1f Gamma2 Gamma2f
    eta0 eta0f eta etaf
    alpha0 x0_mean x0_cov xi_cov

Each value is typed by its field's rule in validate_model; the reader uses
the count and array rules to stack A1..AK, and names file and line on error.
"""

import ast
import os
from dataclasses import fields

import numpy as np

from .errors import DimensionMismatch, ModelFileError
from .model import ModelParams, ValidatedModel, _count, _numeric, _shorthand, validate_model


def _entries(path: str) -> dict:
    """Each key's (line, literal value), in file order."""
    with open(path, "r", encoding="utf-8") as fh:
        source = "".join(line.lstrip(" \t\f") for line in fh)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        where = path if exc.lineno is None else f"{path}:{exc.lineno}"
        raise ModelFileError(f"{where}: {exc.msg}") from exc
    entries, last = {}, 0
    for node in tree.body:
        line = node.lineno
        if (not isinstance(node, ast.Assign) or len(node.targets) != 1
                or not isinstance(node.targets[0], ast.Name) or line == last):
            raise ModelFileError(f"{path}:{line}: expected one 'key = literal' per line")
        last = node.end_lineno
        key = node.targets[0].id
        if key in entries:
            raise ModelFileError(f"{path}:{line}: duplicate key {key!r}")
        try:
            entries[key] = line, ast.literal_eval(node.value)
        except (ValueError, TypeError) as exc:
            raise ModelFileError(f"{path}:{line}: {key!r} is not a literal") from exc
    return entries


def parse_model_file(path: str) -> ModelParams:
    """Read a model file into raw parameters (not yet validated): each
    value as its literal, K as a count and A1..AK stacked as A."""
    if not os.path.exists(path):
        raise ModelFileError(f"model file not found: {path}")
    entries = _entries(path)

    def read(key, rule=lambda key, value: value):
        if key not in entries:
            raise ModelFileError(f"{path}: missing key {key!r}")
        line, value = entries.pop(key)
        try:
            return rule(key, value)
        except DimensionMismatch as exc:
            raise ModelFileError(f"{path}:{line}: {exc}") from exc

    def drift(key, value):
        a = np.atleast_2d(_numeric(key, value))
        if drifts and a.shape != drifts[0].shape:
            raise DimensionMismatch(f"{key!r} has shape {a.shape}, 'A1' {drifts[0].shape}")
        return a

    values, drifts = {}, []
    for f in fields(ValidatedModel):
        if f.name == "A":
            for k in range(1, values["K"] + 1):
                drifts.append(read(f"A{k}", drift))
            values["A"] = np.stack(drifts)
        else:
            values[f.name] = read(f.name, _count) if f.name == "K" else read(f.name)
    if entries:
        key, (line, _) = next(iter(entries.items()))
        raise ModelFileError(f"{path}:{line}: unknown key {key!r}")
    return ModelParams(**values)


def load_model(path: str) -> ValidatedModel:
    return validate_model(parse_model_file(path))


def _render(value) -> str:
    return repr(np.asarray(value).tolist())


def write_model_file(path: str, params: ModelParams, header: str = ""):
    """Emit a model file that parse_model_file reads back exactly; `params`
    is a ModelParams or a ValidatedModel, each value written as given but
    A, written as the stack of K drifts its _shorthand makes."""
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    for f in fields(ValidatedModel):
        value = getattr(params, f.name)
        if f.name == "A":
            value = _shorthand(_numeric("A", value), (params.K, params.n, params.n))
            lines.extend(f"A{k} = {_render(a)}" for k, a in enumerate(value, 1))
        else:
            lines.append(f"{f.name} = {_render(value)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
