"""Tests for function specs: the parameters a FunctionSpec takes, its text
form, and what importing the package loads."""

import subprocess
import sys

import numpy as np
import pytest

from quadcert import FunctionSpec
from quadcert.errors import ConfigError, DomainError
from quadcert.specs import parse_spec


@pytest.mark.parametrize("params", [
    "12", ("1", "2"), ("a",), 1.0, None, (None,), (1j,),
    (np.complex128(1.0),), (10 ** 400,), [[1.0, 2.0]],
    np.array([[1.0, 2.0]]), np.array(1.0)],
    ids=["str", "digits", "letter", "float", "None", "None-item", "complex",
         "numpy-complex", "past-floats", "nested", "2-d", "0-d"])
def test_parameters_that_are_not_real_numbers(params):
    # float alone read "12" as the digits 1 and 2 of 1 + 2x, and raised
    # TypeError or ValueError on the others
    with pytest.raises(DomainError, match="^not a function spec"):
        FunctionSpec("poly", params)


def test_family_that_is_not_a_name():
    # a list family made the arity lookup raise TypeError
    with pytest.raises(DomainError, match="^not a function spec"):
        FunctionSpec(["poly"], (1.0,))


@pytest.mark.parametrize("params, floats", [
    (np.array([1.0, -2.5]), (1.0, -2.5)),
    ((np.float32(0.5), np.int64(3)), (0.5, 3.0)),
    ([1, True], (1.0, 1.0)),
    ((c for c in (0.25, 4.0)), (0.25, 4.0)),
])
def test_real_parameters_kept_as_floats(params, floats):
    spec = FunctionSpec("poly", params)
    assert spec.params == floats
    assert all(type(c) is float for c in spec.params)


@pytest.mark.parametrize("text", ["poly:a", "poly:1j", "poly:", "sin:1",
                                  "exp:1,2", "pow:1,0", "poly:0,1e400"])
def test_text_that_is_not_a_spec(text):
    with pytest.raises(ConfigError,
                       match=f"^cannot parse function spec {text!r}$"):
        parse_spec(text)


@pytest.mark.parametrize("spec, a, decided", [
    (FunctionSpec("pow", (1.0, 1.5)), -0.5, False),
    (FunctionSpec("pow", (1.0, 1.5)), 0.0, True),
    (FunctionSpec("poly", (0.0, 1.0)), -0.5, True),
    (FunctionSpec("exp", (1.0,)), -0.5, True),
])
def test_decides_from(spec, a, decided):
    # x^(r - 1) is real for x >= 0 only
    assert spec.decides_from(a) is decided


def test_import_leaves_sturm_unloaded():
    """Importing the package and its command line, or parsing a spec,
    loads no Sturm code: a decision on a poly: spec imports sturm when it
    is first made."""
    code = "\n".join([
        "import sys, quadcert, quadcert.cli",
        "from quadcert.specs import FunctionSpec, parse_spec",
        "assert parse_spec('pow:2,1.5') == FunctionSpec('pow', (2.0, 1.5))",
        "assert 'quadcert.sturm' not in sys.modules",
        "spec = quadcert.FunctionSpec('poly', (0.0, 0.0, 1.0))",
        "assert spec.shape_failure(1.0, 0.0, 1.0) is None",
        "assert 'quadcert.sturm' in sys.modules"])
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
