"""One field of a config section, swapped for another JSON type or deleted,
or a number field set out of range (negative, NaN, infinite or beyond
float64): the config is built with every field of its declared type, every
float finite and a non-negative seed, or refused with a ValueError or
TypeError that names the field.

The CLI cases check that a section that is not a JSON object, a ``mix`` that
is not one, a value of the wrong type and a demo ``model`` that is not a path
are refused by name with exit 1, before any data is read or any model
trained.
"""

import contextlib
import io
import json
import math
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rorokit.cli import main
from rorokit.nn import EncoderConfig
from rorokit.rop import ROPConfig
from rorokit.rore import DemoConfig
from rorokit.synth import SynthConfig

FIELDS = [
    (cls, f.name)
    for cls in (SynthConfig, ROPConfig, EncoderConfig, DemoConfig)
    for f in fields(cls)
]
DELETE = object()

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.just(10**400),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(["segment", "word", "gsdr", "pseudo"]),
    st.lists(st.integers(-1, 4), max_size=3),
    st.dictionaries(
        st.sampled_from(["chain", "grid", "pie"]),
        st.one_of(st.integers(-1, 2), st.floats(), st.none()),
        max_size=2,
    ),
)


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def has_type(value, annotation):
    """Whether ``value`` is of the field type ``annotation``: a float field
    takes a finite float or an int a float64 can hold, and a pair may be a
    JSON list."""
    return {
        "int": is_int(value),
        "Optional[int]": value is None or is_int(value),
        "float": (isinstance(value, float) or is_int(value))
        and abs(value) <= sys.float_info.max,
        "bool": isinstance(value, bool),
        "str": isinstance(value, str),
        "dict": isinstance(value, dict),
        "tuple[int, int]": isinstance(value, (list, tuple))
        and len(value) == 2
        and all(is_int(v) for v in value),
    }[annotation]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(FIELDS), st.one_of(st.just(DELETE), JSON_VALUES))
def test_one_swapped_field_is_refused_by_name_or_typed(field, value):
    cls, name = field
    try:
        config = cls(**({} if value is DELETE else {name: value}))
    except (ValueError, TypeError) as exc:
        assert name in str(exc), (cls.__name__, name, value, str(exc))
        return
    for f in fields(config):
        assert has_type(getattr(config, f.name), f.type), (cls.__name__, f.name)


NUMBERS = [
    (cls, f.name)
    for cls in (SynthConfig, ROPConfig, EncoderConfig, DemoConfig)
    for f in fields(cls)
    if f.type in ("int", "Optional[int]", "float")
]


@pytest.mark.parametrize(
    "value",
    [-1, -2.5, math.nan, math.inf, -math.inf, 10**400],
    ids=["-1", "-2.5", "nan", "inf", "-inf", "10**400"],
)
def test_an_out_of_range_number_is_refused_by_name_or_typed(value):
    for cls, name in NUMBERS:
        try:
            config = cls(**{name: value})
        except (ValueError, TypeError) as exc:
            assert name in str(exc), (cls.__name__, name, value, str(exc))
            continue
        assert name != "seed" or value >= 0, (cls.__name__, value)
        for f in fields(config):
            assert has_type(getattr(config, f.name), f.type), (cls.__name__, f.name)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "command, sections, named",
    [
        ("synth", {"synth": None}, "'synth'"),
        ("synth", {"synth": ["chain"]}, "'synth'"),
        ("synth", {"synth": {"mix": ["chain"]}}, "mix"),
        ("synth", {"synth": {"train_fraction": "0.5"}}, "train_fraction"),
        ("train", {"rop": None}, "'rop'"),
        ("train", {"encoder": [1]}, "'encoder'"),
        ("train", {"rop": {"threshold": "high"}}, "threshold"),
        ("train", {"rop": {"learning_rate": "1e-3"}}, "learning_rate"),
        ("train", {"rop": {"val_fraction": "0.1"}}, "val_fraction"),
        ("train", {"rop": {"include_diagonal_negatives": 0}}, "include_diagonal_negatives"),
        ("demo-rore", {"demo": None}, "'demo'"),
        ("demo-rore", {"demo": []}, "'demo'"),
        ("demo-rore", {"encoder": None}, "'encoder'"),
        ("demo-rore", {"demo": {"learning_rate": "fast"}}, "learning_rate"),
        ("demo-rore", {"demo": {"lambda_init": "10"}}, "lambda_init"),
        ("demo-rore", {"demo": {"freeze_lambda": "yes"}}, "freeze_lambda"),
        ("demo-rore", {"demo": {"bias_layers": -1}}, "bias_layers"),
        ("demo-rore", {"demo": {"model": 5}}, "model"),
        ("demo-rore", {"demo": {"model": 0}}, "model"),
        ("demo-rore", {"demo": {"label_source": "pseudo", "model": ""}}, "model"),
        ("synth", {"synth": {"train_fraction": math.nan}}, "train_fraction"),
        ("train", {"rop": {"learning_rate": math.inf}}, "learning_rate"),
        ("train", {"rop": {"threshold": -math.inf}}, "threshold"),
        ("train", {"rop": {"seed": -1}}, "seed"),
        ("demo-rore", {"demo": {"lambda_init": math.nan}}, "lambda_init"),
        ("demo-rore", {"demo": {"seed": -1}}, "seed"),
        ("synth", [{"synth": {}}], "config file must hold a JSON object of sections"),
    ],
)
def test_cli_refuses_a_bad_section_by_name(tmp_path, command, sections, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(sections), encoding="utf-8")
    argv = {
        "synth": ("synth", "--n-docs", 3),
        "train": ("train", tmp_path / "no-corpus.jsonl", "--model", tmp_path / "m.json"),
        "demo-rore": ("demo-rore",),
    }[command]
    code, err = run(*argv, "--config", config, "-o", tmp_path / "out.json")
    assert code == 1, err
    assert err.startswith("error: ") and named in err, err


@pytest.mark.parametrize("command", ["synth", "train", "demo-rore"])
def test_cli_refuses_a_negative_seed_by_name(tmp_path, command):
    argv = {
        "synth": ("synth", "--n-docs", 3),
        "train": ("train", tmp_path / "no-corpus.jsonl", "--model", tmp_path / "m.json"),
        "demo-rore": ("demo-rore",),
    }[command]
    code, err = run(*argv, "--seed", -1, "-o", tmp_path / "out.json")
    assert code == 1, err
    assert err.startswith("error: ") and "seed must be non-negative, got -1" in err, err
