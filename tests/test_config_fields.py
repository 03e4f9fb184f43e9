"""The config types check their values with one checker and one wording.

``util.check_fields`` runs first in each config type's ``__post_init__``, so a
constructor call, ``dataclasses.replace`` and a JSON document (``from_dict``,
``degrade_params_from``, ``sepattn train --config``) refuse a wrong-typed
value alike: a ValueError worded ``<Class> field '<name>' must be ..., got ...``.
"""
import ast
import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import pytest

from sepattn import cli
from sepattn.datapipe import DegradeParams, degrade_params_from
from sepattn.losses import LossWeights
from sepattn.netarch import DiscriminatorConfig, GeneratorConfig
from sepattn.trainer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIG_TYPES = (TrainConfig, GeneratorConfig, DiscriminatorConfig, DegradeParams, LossWeights)
BAD_INTS = ["x", None, True, 2.5, math.nan, math.inf, -math.inf]
BAD_FLOATS = ["x", None, True, math.nan, math.inf, -math.inf, 10**400]
BAD_TRIPLES = ["x", None, True, [1.0, 0.5], [1.0, 0.5, 0.25, 0.1], [math.nan, 0.5, 0.25],
               [1.0, -math.inf, 0.25], [1.0, "x", 0.25]]
BAD_SECTIONS = ["x", None, True]  # and, from Python only, another dataclass or a dict
OTHER_SECTION = {GeneratorConfig: DiscriminatorConfig(), DiscriminatorConfig: GeneratorConfig()}


def _rule(want):
    """(what the message says the field must be, wrong values, Python-only wrong values)."""
    if want is int:
        return "int", BAD_INTS, []
    if want is float:
        return "a finite float", BAD_FLOATS, []
    if typing.get_origin(want) is tuple:
        return "a list of 3 finite floats", BAD_TRIPLES, []
    return want.__name__, BAD_SECTIONS, [OTHER_SECTION[want], {"depth": 3}]


def _cases(json_only: bool):
    for cls in CONFIG_TYPES:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            wording, values, python_only = _rule(hints[f.name])
            for value in values + ([] if json_only else python_only):
                message = f"{cls.__name__} field {f.name!r} must be {wording}, got {value!r}"
                yield pytest.param(cls, f.name, value, message, id=f"{cls.__name__}.{f.name}={value!r:.24}")


@pytest.mark.parametrize("cls, name, value, message", _cases(json_only=False))
def test_constructor_and_replace_say_the_same(cls, name, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(**{name: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(cls(), **{name: value})


def _section(cls, name, value) -> dict:
    """A config document setting ``cls``'s field ``name`` to ``value``, as a file holds it."""
    doc = {name: value}
    if cls is not TrainConfig:
        doc = {{GeneratorConfig: "generator", DiscriminatorConfig: "discriminator",
                DegradeParams: "degrade"}[cls]: doc}
    return json.loads(json.dumps(doc))


# LossWeights has no section of its own: its fields are TrainConfig's
@pytest.mark.parametrize(
    "cls, name, value, message", [c for c in _cases(json_only=True) if c.values[0] is not LossWeights]
)
def test_json_path_says_the_same(cls, name, value, message, tmp_path, capsys):
    doc = _section(cls, name, value)
    with pytest.raises(ValueError, match=re.escape(message)):
        if cls is DegradeParams:
            degrade_params_from(doc["degrade"])
        else:
            TrainConfig.from_dict(doc)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(path), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_numbers_are_stored_as_their_annotation_says():
    cfg = TrainConfig(cycle_weight=10, fg_attention=7, bg_attention=3, lr=1)
    assert [type(getattr(cfg, k)) for k in ("cycle_weight", "fg_attention", "bg_attention", "lr")] == [float] * 4
    assert cfg == TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert LossWeights(10, 7, 3) == LossWeights() and type(LossWeights(10, 7, 3).cycle_weight) is float
    params = DegradeParams(beta=[2, 1, 0], backscatter=(20, 120, 140), contrast_gain=1)
    assert params.beta == (2.0, 1.0, 0.0) and type(params.beta[0]) is float
    assert params.backscatter == (20.0, 120.0, 140.0) and type(params.contrast_gain) is float


# ---------------------------------------------------------------------------
# tooling guard: a config type checks its fields through check_fields, first


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _kind(annotation: ast.expr, dataclass_names: set) -> str:
    """``number`` for int/float, ``other_ok`` for a float triple or a dataclass, else ``no``."""
    if isinstance(annotation, ast.Name):
        if annotation.id in ("int", "float"):
            return "number"
        return "other_ok" if annotation.id in dataclass_names else "no"
    if (isinstance(annotation, ast.Subscript) and isinstance(annotation.value, ast.Name)
            and annotation.value.id in ("Tuple", "tuple") and isinstance(annotation.slice, ast.Tuple)
            and all(isinstance(e, ast.Name) and e.id == "float" for e in annotation.slice.elts)):
        return "other_ok"
    return "no"


def config_types(root: Path = ROOT) -> dict:
    """Each src/sepattn dataclass whose fields are numbers, float tuples or dataclasses.

    Maps the class name to ``file:line`` and whether its ``__post_init__``
    starts with ``check_fields(self)``. It takes at least one int or float field.
    """
    classes = [
        (path, node)
        for path in sorted((root / "src" / "sepattn").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
    ]
    names = {node.name for _, node in classes}
    found = {}
    for path, node in classes:
        kinds = [_kind(s.annotation, names) for s in node.body if isinstance(s, ast.AnnAssign)]
        if "number" not in kinds or "no" in kinds:
            continue
        post = [s for s in node.body if isinstance(s, ast.FunctionDef) and s.name == "__post_init__"]
        first = post[0].body[0] if post else None
        checks = (isinstance(first, ast.Expr) and isinstance(first.value, ast.Call)
                  and ast.unparse(first.value) == "check_fields(self)")
        found[node.name] = (f"{path.relative_to(root)}:{node.lineno}", checks)
    return found


def test_every_config_type_calls_check_fields_first():
    found = config_types()
    assert set(found) >= {t.__name__ for t in CONFIG_TYPES}
    assert [f"{loc} {name}" for name, (loc, checks) in found.items() if not checks] == []
