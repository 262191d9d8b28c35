from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lqmfg import (DimensionMismatch, ValidatedModel, load_model,
                   parse_model_file, validate_model, write_model_file)

from helpers import _random_params

MODELS = Path(__file__).resolve().parents[1] / "models"
SMALL = st.integers(min_value=1, max_value=3)


def assert_bitwise(a, b):
    for f in fields(ValidatedModel):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(x) is type(y), f.name
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("name", ["scalar", "twotype"])
@pytest.mark.parametrize("read", [parse_model_file, load_model])
def test_shipped_models_are_written_back_byte_for_byte(tmp_path, name, read):
    path = MODELS / f"{name}.model"
    text = path.read_text()
    header = text.splitlines()[0].removeprefix("# ")
    out = tmp_path / "out.model"
    write_model_file(str(out), read(str(path)), header=header)
    assert out.read_text() == text


@pytest.mark.parametrize("old,new", [
    ("rho = 0.1", "    rho = 0.1"),
    ("A0 = [[-0.3]]", "A0 = [  # the major's drift\n    [-0.3],  # one row\n]"),
    ("n1 = 1\n", "n1 = 1.0\n"),
], ids=["indented key", "comment in a matrix", "integral float count"])
def test_hand_edits_load_the_same_model(tmp_path, old, new):
    """Edits a reader of the file may make by hand are still read, and
    to the same model."""
    text = (MODELS / "scalar.model").read_text()
    assert old in text
    path = tmp_path / "edited.model"
    path.write_text(text.replace(old, new))
    assert_bitwise(load_model(str(path)),
                   load_model(str(MODELS / "scalar.model")))


def test_a_wrongly_typed_count_is_written_as_given(tmp_path):
    """The writer does not truncate a count the validator refuses, so the
    file it writes is refused too."""
    params = replace(_random_params(np.random.default_rng(0), 1), n1=1.7)
    path = str(tmp_path / "m.model")
    write_model_file(path, params)
    with pytest.raises(DimensionMismatch, match="'n1' must be an integer"):
        load_model(path)


@pytest.mark.parametrize("make,A", [
    # one n x n drift at K = 1
    (lambda: _random_params(np.random.default_rng(3), 1, dims=(2, 1, 2)),
     [[-0.5, 0.1], [0.2, -0.4]]),
    # a scalar drift at n = K = 1
    (lambda: parse_model_file(str(MODELS / "scalar.model")), -0.4),
], ids=["matrix", "scalar"])
def test_drift_shorthands_are_written_as_their_stack(tmp_path, make, A):
    """A drift given in a K = 1 shorthand is written as the stack of K
    drifts the validator makes of it, so the file loads the validated
    model."""
    params = replace(make(), A=A)
    path = str(tmp_path / "m.model")
    write_model_file(path, params)
    assert_bitwise(load_model(path), validate_model(params))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=SMALL, n1=SMALL, n2=SMALL, K=SMALL, seed=st.integers(0, 2**31))
def test_write_parse_validate_returns_every_field(tmp_path, n, n1, n2, K,
                                                  seed):
    """Raw parameters and validated models both survive a model file bit
    for bit."""
    params = _random_params(np.random.default_rng(seed), K, dims=(n, n1, n2))
    model = validate_model(params)
    path = str(tmp_path / "m.model")
    for source in (params, model):
        write_model_file(path, source)
        assert_bitwise(load_model(path), model)
