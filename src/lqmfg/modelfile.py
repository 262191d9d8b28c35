"""Flat key=value model files.

One assignment per key; `#` starts a comment; matrix values are bracketed
row-major literals and may continue across lines until the brackets
balance. Hand-editable by design. The keys are the fields of
`model.ValidatedModel`, in its declaration order, with the K minor drifts
`A` written one per type as A1..AK:

    n n1 n2 K T rho A1..AK pi
    A0 B0 F0 D0 B F G D
    Q0 Q0f Q Qf R0 R
    Gamma0 Gamma0f Gamma1 Gamma1f Gamma2 Gamma2f
    eta0 eta0f eta etaf
    alpha0 x0_mean x0_cov xi_cov

That declaration also picks how each key is read: its count fields as
integers, T and rho as reals, and every other key as a numeric array.
"""

import ast
import os
from dataclasses import fields

import numpy as np

from .errors import ModelFileError
from .model import ModelParams, ValidatedModel, validate_model


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _raw_entries(path: str) -> dict:
    entries = {}
    pending_key = None
    pending_chunks = []
    depth = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _strip_comment(raw).strip()
            if not line and pending_key is None:
                continue
            if pending_key is None:
                if "=" not in line:
                    raise ModelFileError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, value = line.split("=", 1)
                key = key.strip()
                if key in entries:
                    raise ModelFileError(f"{path}:{lineno}: duplicate key {key!r}")
                pending_key = key
                pending_chunks = [value]
                depth = value.count("[") - value.count("]")
            else:
                pending_chunks.append(line)
                depth += line.count("[") - line.count("]")
            if depth < 0:
                raise ModelFileError(
                    f"{path}:{lineno}: unbalanced brackets in {pending_key!r}")
            if depth == 0:
                entries[pending_key] = " ".join(pending_chunks).strip()
                pending_key = None
    if pending_key is not None:
        raise ModelFileError(f"{path}: unterminated value for key {pending_key!r}")
    return entries


def _literal(path: str, key: str, text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise ModelFileError(f"{path}: bad literal for {key!r}: {exc}") from exc


def parse_model_file(path: str) -> ModelParams:
    """Read a model file into raw parameters (not yet validated)."""
    if not os.path.exists(path):
        raise ModelFileError(f"model file not found: {path}")
    entries = _raw_entries(path)

    def take(key):
        if key not in entries:
            raise ModelFileError(f"{path}: missing key {key!r}")
        return _literal(path, key, entries.pop(key))

    def integer(key):
        value = take(key)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or isinstance(value, float) and not value.is_integer()):
            raise ModelFileError(
                f"{path}: {key!r} must be an integer, got {value!r}")
        return int(value)

    def real(key):
        value = take(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelFileError(
                f"{path}: {key!r} must be a number, got {value!r}")
        return float(value)

    def array(key):
        value = take(key)
        try:
            return np.array(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelFileError(
                f"{path}: {key!r} must be a numeric array: {exc}") from exc

    def drifts(K):
        if K < 1:
            raise ModelFileError(f"{path}: 'K' must be at least 1, got {K}")
        A_list = [np.atleast_2d(array(f"A{k}")) for k in range(1, K + 1)]
        for k, a in enumerate(A_list[1:], start=2):
            if a.shape != A_list[0].shape:
                raise ModelFileError(
                    f"{path}: 'A{k}' has shape {a.shape}, but 'A1' has shape "
                    f"{A_list[0].shape}")
        return np.stack(A_list)

    read = {int: integer, float: real, np.ndarray: array}
    values = {}
    for f in fields(ValidatedModel):
        values[f.name] = (drifts(values["K"]) if f.name == "A"
                          else read[f.type](f.name))
    if entries:
        stray = ", ".join(sorted(entries))
        raise ModelFileError(f"{path}: unknown keys: {stray}")
    return ModelParams(**values)


def load_model(path: str) -> ValidatedModel:
    return validate_model(parse_model_file(path))


def _render(value) -> str:
    arr = np.asarray(value)
    if arr.ndim == 0:
        return repr(arr.item())
    return repr(arr.tolist())


def write_model_file(path: str, params: ModelParams, header: str = ""):
    """Emit a model file that parse_model_file reads back exactly; `params`
    is a ModelParams or a ValidatedModel."""
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    for f in fields(ValidatedModel):
        value = getattr(params, f.name)
        if f.name == "A":
            lines.extend(f"A{k} = {_render(a)}" for k, a in
                         enumerate(np.asarray(value, dtype=np.float64), start=1))
        elif f.type is int:
            lines.append(f"{f.name} = {int(value)}")
        else:
            lines.append(f"{f.name} = {_render(value)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
