"""One rule per value type: integers, numbers and booleans from a file, a
frame or a caller are checked, never coerced, wherever they enter."""

import ast
import copy
import json
import logging
from pathlib import Path

import numpy as np
import pytest

import priarta
from priarta import (
    AugmentationSpec,
    ConfigError,
    EncoderSpec,
    ErrorMessage,
    FrameError,
    Hello,
    ParameterError,
    PrivacyBudget,
    RawDataset,
    ScenarioConfig,
    SellerNode,
    SellerSession,
    decode_frame,
    default_scenario,
    encode_frame,
)
from priarta.protocol import PROTOCOL_VERSION

# Values each kind of field must reject: a float, a numeric string, a bool,
# an integral float and a negative integer for integers; a numeric string and
# the two non-finite floats for numbers; a string for booleans.
BAD_VALUES = {
    "int": [1.5, "12", True, 16.0, -1],
    "number": ["0.5", float("nan"), float("inf")],
    "bool": ["false"],
}

SPEC_FIELDS = {"kind": "toy_projection", "seed": 271828, "input_dim": 16,
               "latent_dim": 4, "signal_dims": 8, "leakage_alpha": 0.0}
SPEC_KINDS = {"seed": "int", "input_dim": "int", "latent_dim": "int",
              "signal_dims": "int", "leakage_alpha": "number"}
AUG_FIELDS = {"nuisance_noise_scale": 1.0, "nuisance_permute": True,
              "apply_prob": 1.0, "seed": 5}
AUG_KINDS = {"nuisance_noise_scale": "number", "nuisance_permute": "bool",
             "apply_prob": "number", "seed": "int"}
BUDGET_FIELDS = {"epsilon": 0.8, "delta": 1e-5, "clip_radius": 1.0, "subset_size": 512}
BUDGET_KINDS = {"epsilon": "number", "delta": "number", "clip_radius": "number",
                "subset_size": "int"}
# Every numeric field of a scenario config, as a path into its dict. Seller 0
# is fresh and seller 2 an augmented copy; class_means is the generator form.
SCENARIO_KINDS = {
    ("num_classes",): "int", ("input_dim",): "int", ("signal_dims",): "int",
    ("master_seed",): "int", ("subset_size",): "int", ("class_scale",): "number",
    ("class_means", "seed"): "int", ("class_means", "norm"): "number",
    ("buyer", "class_probs", 0): "number", ("buyer", "m"): "int", ("buyer", "seed"): "int",
    ("sellers", 0, "class_probs", 0): "number", ("sellers", 0, "m"): "int",
    ("sellers", 0, "seed"): "int",
    ("privacy", "epsilon"): "number", ("privacy", "delta"): "number",
    ("privacy", "clip_radius"): "number",
    **{("encoder", field): kind for field, kind in SPEC_KINDS.items()},
    **{("sellers", 2, "augmentation", field): kind for field, kind in AUG_KINDS.items()},
}


def _scenario_dict() -> dict:
    data = default_scenario(7).to_dict()
    data["class_means"] = {"seed": 1797, "norm": 0.55}
    return data


SCENARIO = _scenario_dict()


def _with_value(data: dict, path: tuple, value) -> dict:
    data = copy.deepcopy(data)
    inner = data
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return data


def _frame(payload: dict) -> bytes:
    # json.dumps writes NaN and Infinity, which json.loads reads back
    body = json.dumps(payload).encode()
    return len(body).to_bytes(4, "big") + body


def _model_spec_frame(field, value) -> bytes:
    return _frame({"type": "MODEL_SPEC", "encoder": dict(SPEC_FIELDS, **{field: value})})


def _raises_one_line(exc_type, build):
    with pytest.raises(exc_type) as info:
        build()
    assert "\n" not in str(info.value)


def _check_session(field, value, caplog):
    data = RawDataset(np.zeros((4, 16)), np.zeros(4, dtype=int), [1.0])
    session = SellerSession(SellerNode("s", raw=data))
    hello = decode_frame(session.handle_bytes(encode_frame(Hello(PROTOCOL_VERSION))))
    assert isinstance(hello, Hello)
    with caplog.at_level(logging.DEBUG, logger="priarta"):
        reply = decode_frame(session.handle_bytes(_model_spec_frame(field, value)))
    assert isinstance(reply, ErrorMessage) and reply.code == "BAD_PAYLOAD", reply
    assert not any(record.exc_info for record in caplog.records)
    assert session.spec is None


def _check_decode(field, value, caplog):
    with pytest.raises(FrameError) as info:
        decode_frame(_model_spec_frame(field, value))
    assert info.value.code == "BAD_PAYLOAD"


def _check_scenario(path, value, caplog):
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_dict(_with_value(SCENARIO, path, value))
    assert len(info.value.problems) == 1, info.value.problems


# target -> check(field, value, caplog)
CHECKS = {
    "EncoderSpec": lambda f, v, _: _raises_one_line(
        ParameterError, lambda: EncoderSpec.from_dict(dict(SPEC_FIELDS, **{f: v}))),
    "decode_frame": _check_decode,
    "handle_bytes": _check_session,
    "AugmentationSpec": lambda f, v, _: _raises_one_line(
        ParameterError, lambda: AugmentationSpec.from_dict(dict(AUG_FIELDS, **{f: v}))),
    "PrivacyBudget": lambda f, v, _: _raises_one_line(
        ParameterError, lambda: PrivacyBudget(**dict(BUDGET_FIELDS, **{f: v}))),
    "ScenarioConfig": _check_scenario,
}
FIELDS = {
    "EncoderSpec": SPEC_KINDS, "decode_frame": SPEC_KINDS, "handle_bytes": SPEC_KINDS,
    "AugmentationSpec": AUG_KINDS, "PrivacyBudget": BUDGET_KINDS,
    "ScenarioConfig": SCENARIO_KINDS,
}
CASES = [(target, field, value) for target, kinds in FIELDS.items()
         for field, kind in kinds.items() for value in BAD_VALUES[kind]]


def test_the_good_values_pass():
    assert EncoderSpec.from_dict(SPEC_FIELDS).to_dict() == SPEC_FIELDS
    assert AugmentationSpec.from_dict(AUG_FIELDS).to_dict() == AUG_FIELDS
    assert PrivacyBudget(**BUDGET_FIELDS).subset_size == 512
    assert ScenarioConfig.from_dict(SCENARIO).to_dict() == default_scenario(7).to_dict()
    assert isinstance(decode_frame(_model_spec_frame("seed", 1)).encoder, EncoderSpec)


@pytest.mark.parametrize(
    "target, field, value", CASES,
    ids=[f"{t}-{'.'.join(map(str, f)) if isinstance(f, tuple) else f}-{v!r}"
         for t, f, v in CASES],
)
def test_each_entry_point_rejects_a_wrong_value_type(target, field, value, caplog):
    CHECKS[target](field, value, caplog)


# -------------------------------------------------------------------- tooling

SOURCES = sorted(Path(priarta.__file__).parent.glob("*.py"))


def _is_field(node, field_locals) -> bool:
    """self.x, getattr(self, ...), or a local name bound to one of them."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "self"
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and bool(node.args) and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self")
    return isinstance(node, ast.Name) and node.id in field_locals


def field_coercions(source: str) -> list:
    """Line numbers where a __post_init__ passes one of its fields to int,
    float or bool."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not (isinstance(func, ast.FunctionDef) and func.name == "__post_init__"):
            continue
        field_locals = {
            target.id
            for node in ast.walk(func) if isinstance(node, ast.Assign)
            and _is_field(node.value, ())
            for target in node.targets if isinstance(target, ast.Name)
        }
        found += [
            node.lineno for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("int", "float", "bool") and node.args
            and _is_field(node.args[0], field_locals)
        ]
    return found


def test_field_coercion_scan_sees_each_form():
    source = (
        "class A:\n"
        "    def __post_init__(self):\n"
        "        value = getattr(self, 'n')\n"
        "        x = self.x\n"
        "        int(self.a), float(getattr(self, 'b')), bool(x), int(value)\n"
        "        int(3), float(other), str(self.c)\n"
        "    def elsewhere(self):\n"
        "        return int(self.a)\n"
    )
    assert field_coercions(source) == [5, 5, 5, 5]


def test_no_post_init_coerces_a_field():
    found = {path.name: lines for path in SOURCES
             if (lines := field_coercions(path.read_text(encoding="utf-8")))}
    assert found == {}
