"""Session configuration tests: JSON records, validation, built contexts."""

import json

import pytest

from skewlab.config import ConfigError, load_session, parse_descriptor, parse_map
from skewlab.rings import (
    COMPLEX_Q,
    QUATERNIONS_Q,
    CayleyDickson,
    JordanPlus,
    Matrix,
    Poly1,
    Poly2,
    Rationals,
)


def test_descriptor_records():
    assert parse_descriptor("rationals") == Rationals()
    assert parse_descriptor({"cayley_dickson": {"level": 2}}) == QUATERNIONS_Q
    assert parse_descriptor({"matrix": {"n": 2, "base": "rationals"}}) == Matrix(2)
    assert parse_descriptor({"poly1": {"variable": "T"}}) == Poly1("T")
    assert parse_descriptor({"poly1": {"variable": "Xa"}}) == Poly1("Xa")
    assert parse_descriptor({"poly1": None}) == Poly1()
    assert parse_descriptor({"poly2": {"variables": ["U", "V"]}}) == Poly2(("U", "V"))
    assert parse_descriptor(
        {"jordan_plus": {"base": {"cayley_dickson": {"level": 2}}}}
    ) == JordanPlus(QUATERNIONS_Q)
    with pytest.raises(ConfigError):
        parse_descriptor({"nope": {}})
    with pytest.raises(ConfigError):
        parse_descriptor({"matrix": {"base": "rationals"}})


@pytest.mark.parametrize(
    "base",
    [
        {"cayley_dickson": {"level": 1}},
        {"cayley_dickson": {"level": 3}},
        {"jordan_plus": {"base": {"cayley_dickson": {"level": 2}}}},
        {"jordan_plus": {"base": {"jordan_plus": {"base": {"cayley_dickson": {"level": 1}}}}}},
    ],
    ids=["complex", "octonion", "jordan-quaternion", "jordan-jordan-complex"],
)
def test_cayley_dickson_over_named_units_is_refused(base):
    with pytest.raises(ConfigError, match="basis names would collide"):
        parse_descriptor({"cayley_dickson": {"level": 1, "base": base}})


@pytest.mark.parametrize(
    ("level", "base"),
    [
        (0, {"poly1": {"variable": "e0"}}),
        (1, {"poly1": {"variable": "i"}}),
        (1, {"poly2": {"variables": ["Y", "e1"]}}),
        (2, {"poly1": {"variable": "i"}}),
        (2, {"poly2": {"variables": ["j", "Z"]}}),
        (2, {"jordan_plus": {"base": {"poly1": {"variable": "k"}}}}),
        (3, {"poly1": {"variable": "e7"}}),
        (4, {"poly1": {"variable": "e15"}}),
    ],
)
def test_cayley_dickson_over_a_variable_named_like_a_unit_is_refused(level, base):
    with pytest.raises(ConfigError, match="it names a unit"):
        parse_descriptor({"cayley_dickson": {"level": level, "base": base}})


@pytest.mark.parametrize(
    ("level", "name"), [(0, "i"), (1, "j"), (1, "k"), (1, "e2"), (2, "e4"), (3, "e8")]
)
def test_cayley_dickson_over_a_variable_outside_its_units_loads(level, name):
    base = {"poly1": {"variable": name}}
    descriptor = {"cayley_dickson": {"level": level, "base": base}}
    assert parse_descriptor(descriptor) == CayleyDickson(level, Poly1(name))


def test_cayley_dickson_over_unnamed_bases_still_loads():
    level0 = {"cayley_dickson": {"level": 0}}
    assert parse_descriptor({"cayley_dickson": {"level": 2, "base": level0}}) == (
        CayleyDickson(2, CayleyDickson(0))
    )
    assert parse_descriptor(
        {"cayley_dickson": {"level": 1, "base": {"poly1": {}}}}
    ) == CayleyDickson(1, Poly1())


def test_map_records():
    m = parse_map({"kind": "sigma_q_complex", "q": "2"}, COMPLEX_Q)
    assert m.kind == "sigma_q_complex" and m.q == 2
    with pytest.raises(ConfigError):
        parse_map({"kind": "sigma_q_complex", "q": "2"}, QUATERNIONS_Q)
    with pytest.raises(ConfigError):
        parse_map({"kind": "made_up"}, COMPLEX_Q)
    with pytest.raises(ConfigError):
        parse_map({"kind": "quantum_torus_sigma", "q": "0"}, Poly1())
    comp = parse_map(
        {
            "kind": "composition",
            "maps": [{"kind": "coefficient_doubler"}, {"kind": "identity"}],
        },
        Poly1(),
    )
    assert comp.kind == "composition"
    power = parse_map(
        {"kind": "power", "base": {"kind": "coefficient_doubler"}, "e": -2},
        Poly1(),
    )
    assert power.exponent == -2


def test_exact_rationals_in_config():
    m = parse_map({"kind": "sigma_q_complex", "q": "0.5"}, COMPLEX_Q)
    from fractions import Fraction

    assert m.q == Fraction(1, 2)


def test_structure_validation():
    base = {"ring": {"poly1": {"variable": "Y"}}}
    with pytest.raises(ConfigError):
        load_session({**base, "structure": "nope"})
    with pytest.raises(ConfigError):
        load_session({**base, "structure": "ore"})  # no sigma
    with pytest.raises(ConfigError):
        load_session(
            {
                **base,
                "structure": "laurent",
                "sigma": {"kind": "formal_derivative"},
            }
        )  # sigma must respect 1
    with pytest.raises(ConfigError):
        load_session(
            {
                **base,
                "structure": "power_series",
                "sigma": {"kind": "identity"},
            }
        )  # missing precision
    with pytest.raises(ConfigError):
        load_session(
            {
                **base,
                "structure": "laurent",
                "sigma": {"kind": "identity"},
                "delta": {"kind": "zero"},
            }
        )  # laurent takes no delta
    with pytest.raises(ConfigError):
        load_session(
            {**base, "structure": "iterated_laurent"}
        )  # missing sigmas


@pytest.mark.parametrize("payload", [[], ["structure", "ore"], "ore", 3, None])
def test_top_level_must_be_an_object(tmp_path, payload):
    path = tmp_path / "top.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_session(path)


@pytest.mark.parametrize(
    "ring, sigma, message",
    [
        ({"matrix": {"n": 2.7}}, None, "matrix needs an integer 'n', got 2.7"),
        ({"matrix": {"n": 2.0}}, None, "matrix needs an integer 'n', got 2.0"),
        (
            {"cayley_dickson": {"level": True}},
            None,
            "cayley_dickson needs an integer 'level', got True",
        ),
        (
            {"cayley_dickson": {"level": "1"}},
            None,
            "cayley_dickson needs an integer 'level', got '1'",
        ),
        (
            {"cayley_dickson": {"level": 1}},
            {"kind": "power", "e": 1.9, "base": {"kind": "sigma_q_complex", "q": "2"}},
            "power needs an integer 'e', got 1.9",
        ),
    ],
    ids=["n-float", "n-integral-float", "level-bool", "level-string", "e-float"],
)
def test_integer_fields_accept_only_json_integers(ring, sigma, message):
    # Neither rounded (2.7 -> 2, e 1.9 -> 1) nor converted (true, "1" -> 1).
    payload = {"ring": ring, "sigma": sigma or {"kind": "identity"}, "structure": "ore"}
    with pytest.raises(ConfigError) as exc:
        load_session(payload)
    assert str(exc.value) == message


_OBJECT = "needs a JSON object"
_VARIABLE = "cannot name a polynomial variable"
_TWO_NAMES = "Poly2 needs two distinct variable names"


@pytest.mark.parametrize(
    "ring, message",
    [
        ({"matrix": [2]}, f"ring record 'matrix' {_OBJECT}, got [2]"),
        ({"cayley_dickson": 5}, f"ring record 'cayley_dickson' {_OBJECT}, got 5"),
        ({"jordan_plus": 3}, f"ring record 'jordan_plus' {_OBJECT}, got 3"),
        ({"poly1": "Y"}, f"ring record 'poly1' {_OBJECT}, got 'Y'"),
        ({"poly2": {"variables": 7}}, _TWO_NAMES),
        ({"poly2": {"variables": "YZ"}}, _TWO_NAMES),
        ({"poly2": {"variables": ["Y"]}}, _TWO_NAMES),
        ({"poly2": {"variables": ["Y", "X1"]}}, f"'X1' {_VARIABLE}"),
        ({"poly1": {"variable": "X"}}, f"'X' {_VARIABLE}"),
        ({"poly1": {"variable": "X12"}}, f"'X12' {_VARIABLE}"),
        ({"poly1": {"variable": "O"}}, f"'O' {_VARIABLE}"),
        ({"poly1": {"variable": 3}}, f"3 {_VARIABLE}"),
        ({"poly1": {"variable": "Y Z"}}, f"'Y Z' {_VARIABLE}"),
        ({"poly1": {"variable": "2Y"}}, f"'2Y' {_VARIABLE}"),
        ({"poly1": {"variable": ""}}, f"'' {_VARIABLE}"),
    ],
    ids=[
        "matrix-list", "cayley-dickson-int", "jordan-int", "poly1-string",
        "poly2-int", "poly2-string", "poly2-one-name", "poly2-indeterminate",
        "variable-X", "variable-X12", "variable-O", "variable-int",
        "variable-blank", "variable-digit-first", "variable-empty",
    ],
)
def test_malformed_ring_records_are_refused(ring, message):
    # Each used to end in an AttributeError or a TypeError, or to load a ring
    # whose monomials print like X^n or cannot be parsed back.
    payload = {"ring": ring, "sigma": {"kind": "identity"}, "structure": "ore"}
    with pytest.raises(ConfigError) as exc:
        load_session(payload)
    assert str(exc.value) == message


@pytest.mark.parametrize("sigmas", [5, "ab", {"kind": "identity"}, []])
def test_iterated_sigmas_must_be_a_non_empty_list(sigmas):
    payload = {"ring": "rationals", "sigmas": sigmas, "structure": "iterated_laurent"}
    with pytest.raises(ConfigError, match="needs a non-empty 'sigmas' list"):
        load_session(payload)


@pytest.mark.parametrize("precision", [True, False, "4", 2.0, 0])
def test_series_precision_must_be_a_positive_int(precision):
    payload = {
        "ring": "rationals",
        "sigma": {"kind": "identity"},
        "structure": "power_series",
        "precision": precision,
    }
    with pytest.raises(ConfigError, match="integer 'precision'"):
        load_session(payload)
    assert load_session({**payload, "precision": 1}).precision == 1


def test_ore_default_delta_is_zero():
    s = load_session(
        {
            "ring": {"poly1": {"variable": "Y"}},
            "structure": "ore",
            "sigma": {"kind": "coefficient_doubler"},
        }
    )
    assert s.target.context.delta.kind == "zero"


def test_session_evaluate_and_maps(tmp_path):
    cfg = {
        "ring": {"cayley_dickson": {"level": 1}},
        "sigma": {"kind": "sigma_q_complex", "q": "2"},
        "structure": "laurent",
    }
    path = tmp_path / "session.json"
    path.write_text(json.dumps(cfg))
    s = load_session(path)
    assert str(s.evaluate("(X*i)*i - X*(i*i)")) == "-3*X"
    assert [label for label, _ in s.maps()] == ["sigma"]


def test_iterated_session():
    s = load_session(
        {
            "ring": {"poly1": {"variable": "Y"}},
            "structure": "iterated_laurent",
            "sigmas": [
                {"kind": "quantum_torus_sigma", "q": "2"},
                {"kind": "identity"},
            ],
        }
    )
    assert str(s.evaluate("X1*Y")) == "2*Y*X1"
    assert str(s.evaluate("X1*X2 - X2*X1")) == "0"


def test_series_session_contexts():
    power = load_session(
        {
            "ring": "rationals",
            "structure": "power_series",
            "sigma": {"kind": "identity"},
            "precision": 8,
        }
    )
    assert power.target.context is not None
    assert str(power.evaluate("1 + X^2")) == "1 + X^2 + O(X^8)"
    laurent = load_session(
        {
            "ring": {"cayley_dickson": {"level": 1}},
            "structure": "laurent_series",
            "sigma": {"kind": "sigma_q_complex", "q": "2"},
            "precision": 6,
        }
    )
    assert str(laurent.evaluate("i*X^-2")) == "i*X^-2 + O(X^6)"


def test_bad_config_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_session(path)
    with pytest.raises(ConfigError):
        load_session(tmp_path / "missing.json")
