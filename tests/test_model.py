"""The declaration language: parsing, rendering, errors, fuzz robustness."""

import glob
import os
import random

import pytest

from rockland.model import ModelParseError, ModelSpec, load_model, parse_model

MODELS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "models")

GRUSHIN_TEXT = (
    "dilation [1,2]; field X1 = d1; field X2 = x1*d2; "
    "operator L = X1^2 + X2^2;")


def test_parse_grushin():
    m = parse_model(GRUSHIN_TEXT)
    assert m.sigma == (1, 2)
    assert m.field_names == ("X1", "X2")
    assert m.field_degrees == (1, 1)
    assert m.operator.nu == 2
    assert m.operator.terms == ((1, (0, 0)), (1, (1, 1)))
    assert m.kernel is None


def test_parse_kernel_and_tol():
    m = parse_model(GRUSHIN_TEXT + " kernel heisenberg_gauge; tol gamma = 1e-6;")
    assert m.kernel == "heisenberg_gauge"
    assert dict(m.tols) == {"gamma": 1e-6}


def test_parse_rational_coefficients_and_signs():
    m = parse_model("dilation [1,2]; field X1 = d1; "
                    "field X2 = -1/2*x1*d2 + 2*x1*d2; "
                    "operator L = 2*X1^2 - X2^2;")
    assert str(m.fields[1].coeffs[1].terms[(1, 0)]) == "3/2"
    assert m.operator.terms[0][0] == 2
    assert m.operator.terms[1][0] == -1


def test_fixpoint_shipped_models():
    paths = sorted(glob.glob(os.path.join(MODELS_DIR, "*.model")))
    assert len(paths) >= 5
    for path in paths:
        m = load_model(path)
        text = m.render()
        again = parse_model(text)
        assert again == m, path
        assert again.render() == text, path


def test_error_non_integer_exponent():
    with pytest.raises(ModelParseError, match="non-integer exponent"):
        parse_model("dilation [1,2]; field X1 = d1; "
                    "field X2 = x1^(1/2)*d2; operator L = X1^2;")


def test_error_undefined_name_with_location():
    with pytest.raises(ModelParseError, match="undefined name 'X3'") as ei:
        parse_model("dilation [1,2]; field X1 = d1;\noperator L = X3^2;")
    assert ei.value.line == 2
    assert "^" in str(ei.value)  # caret excerpt


def test_error_dimension_mismatch():
    with pytest.raises(ModelParseError, match="exceeds dimension"):
        parse_model("dilation [1,2]; field X1 = x3*d1; operator L = X1;")
    with pytest.raises(ModelParseError, match="exceeds dimension"):
        parse_model("dilation [1,2]; field X1 = d3; operator L = X1;")


def test_error_dilation_required_first():
    with pytest.raises(ModelParseError, match="dilation"):
        parse_model("field X1 = d1; operator L = X1^2;")


def test_error_mixed_weight_operator():
    with pytest.raises(ModelParseError, match="weight"):
        parse_model("dilation [1,2]; field X1 = d1; field X2 = x1*d2; "
                    "operator L = X1 + X1^2;")


def test_error_inhomogeneous_field():
    with pytest.raises(ModelParseError, match="homogeneous"):
        parse_model("dilation [1,2]; field X1 = d1 + x1*d1; "
                    "operator L = X1^2;")


def test_error_duplicate_field():
    with pytest.raises(ModelParseError, match="already defined"):
        parse_model("dilation [1,2]; field X1 = d1; field X1 = d2; "
                    "operator L = X1^2;")


def test_error_zero_denominator_in_operator():
    with pytest.raises(ModelParseError, match="zero denominator") as ei:
        parse_model("dilation [1,2]; field X1 = d1; field X2 = x1*d2;\n"
                    "operator L = 1/0*X1^2 + X2^2;")
    assert ei.value.line == 2 and ei.value.col == 14


def test_error_second_operator():
    with pytest.raises(ModelParseError, match="second operator") as ei:
        parse_model("dilation [1,2]; field X1 = d1; field X2 = x1*d2;\n"
                    "operator L = X1^2 + X2^2;\noperator M = X1^2;")
    assert ei.value.line == 3 and ei.value.col == 1


def test_error_unsorted_dilation():
    with pytest.raises(ModelParseError, match="nondecreasing"):
        parse_model("dilation [2,1]; field X1 = d1; operator L = X1^2;")


def test_error_messages_carry_location():
    bad = "dilation [1,2];\nfield X1 = d1;\nfield X2 = x1*dd2;\noperator L = X1^2;"
    with pytest.raises(ModelParseError) as ei:
        parse_model(bad)
    assert ei.value.line == 3 and ei.value.col > 1


def test_fuzz_mutations_never_panic():
    """10^4 mutated model texts either parse or raise a located error."""
    seeds = [open(p, encoding="utf-8").read()
             for p in sorted(glob.glob(os.path.join(MODELS_DIR, "*.model")))]
    rng = random.Random(20260823)
    alphabet = "dilation fieldxoperator123456789[];=+-*^/_() \n\"'\\@\0"
    for trial in range(10_000):
        text = rng.choice(seeds)
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(4)
            pos = rng.randrange(len(text) + 1)
            if kind == 0 and text:
                i = rng.randrange(len(text))
                text = text[:i] + text[i + 1:]
            elif kind == 1:
                text = text[:pos] + rng.choice(alphabet) + text[pos:]
            elif kind == 2 and len(text) > 2:
                i, j = sorted(rng.sample(range(len(text)), 2))
                text = text[:i] + text[j] + text[i + 1:j] + text[i] + text[j + 1:]
            else:
                cut = rng.randrange(0, min(20, len(text) + 1))
                text = text[:pos] + text[pos:pos + cut] + text[pos:]
        try:
            m = parse_model(text)
            assert isinstance(m, ModelSpec)
        except ModelParseError:
            pass  # rejected with a located message: acceptable
