"""Property over the whole catalog: every argument map a model could write
ends in a well-formed result or a classified error.

One hypothesis strategy per tool is built from its `ParamSpec`s (type, enum,
item type, nullability, path kind, row width); paths are drawn from the
catalog sweep's workspace, with a junk file and a directory added. Each call
must return a `ToolResult` that standard JSON can carry, and only the mock
expert backend, which has no fixture for most images, may end a call in
SystemError.

The type check the registry had before it converted arguments is kept here
as the oracle: whatever it refused is refused with its message, byte for
byte, and whatever it accepted and the registry now refuses is a number no
kernel can take (not finite, or out of range) or a row of the wrong shape.
"""

from __future__ import annotations

import json
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geoagent.tools import INVALID_PARAMETERS, SYSTEM_ERROR, ToolContext, ToolResult
from geoagent.tools.catalog import catalog_rows

from test_catalog_sweep import make_sweep_registry

FILES = ["src/a.tif", "src/b.tif", "src/t1.tif", "src/ndvi.tif", "src/mask.tif",
         "src/dn.tif", "src/qa.tif", "src/scene.tif", "src/odd.tif", "src/junk.tif",
         "src/sub", "missing.tif"]
INTEGERS = st.integers(-2, 64) | st.sampled_from([2**63, -2**63, 10**400])
NUMBERS = (st.sampled_from([0, 0.0, 1, -1, 0.5, 1e308, -1e308, 1e-320, 10**400, 2**63,
                            math.nan, math.inf, -math.inf])
           | st.floats(-1e3, 1e3) | st.integers(-10, 10))
LEAVES = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)


# -- the oracle: the registry's type check before it converted arguments ----

def _type_check(type_name: str, value) -> bool:
    if type_name == "string":
        return isinstance(value, str)
    if type_name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "boolean":
        return isinstance(value, bool)
    if type_name == "array":
        return isinstance(value, list)
    return isinstance(value, dict)


def accepts(p, value) -> bool:
    ok = _type_check(p.type, value)
    if ok and p.type == "array" and p.item_type is not None:
        ok = all((v is None and p.item_nullable) or _type_check(p.item_type, v)
                 for v in value)
    if ok and p.enum is not None:
        ok = value in p.enum
    return ok


def old_message(spec, p, value) -> str:
    expected = p.type if p.enum is None else f"one of {list(p.enum)}"
    return (f"argument {p.name!r} of tool {spec.name} expects {expected}, "
            f"got {json.dumps(value, default=str)}")


def _not_float(v) -> bool:
    """Whether a number the oracle accepts has no finite float64 value."""
    return not (isinstance(v, (int, float)) and not isinstance(v, bool)
                and abs(v) <= sys.float_info.max)


def beyond(p, value) -> bool:
    """Whether an argument the oracle accepts is one no kernel takes."""
    if p.type == "number":
        return _not_float(value)
    if p.type == "integer":
        return not -2**63 < value < 2**63
    if p.width is not None:
        return any(len(row) != p.width or any(map(_not_float, row)) for row in value)
    if p.item_type == "number":
        return any(v is not None and _not_float(v) for v in value)
    if p.item_type == "integer":
        return any(not -2**63 < v < 2**63 for v in value)
    return False


# -- strategies ----------------------------------------------------------------

def _typed(p, item_type: str | None = None):
    """Values of the parameter's JSON type (of its items, given `item_type`)."""
    kind = p.kind
    type_name = item_type or p.type
    if kind == "file" or (kind == "files" and item_type):
        return st.sampled_from(FILES)
    if kind == "dir":
        return st.sampled_from(["src", "src/sub", "src/junk.tif", "missing"])
    if kind == "out_file":
        return st.sampled_from(["out/x.tif", "out/sub/y.tif", "../escape.tif", "src/sub"])
    if kind == "out_dir":
        return st.sampled_from(["out", "out/batch", "../escape", "src/junk.tif"])
    if p.enum is not None and not item_type:
        return st.sampled_from(list(p.enum)) | st.text(max_size=3)
    if type_name == "string":
        return st.sampled_from(["", "/", "x", "plane", "*.tif", "\x00"])
    if type_name == "integer":
        return INTEGERS
    if type_name == "number":
        return NUMBERS
    if type_name == "boolean":
        return st.booleans()
    if type_name == "object":
        return st.dictionaries(st.sampled_from(["band", "comparator", "value",
                                                "open_water", "first_year", "multi_year"]),
                               LEAVES | NUMBERS | st.lists(NUMBERS, max_size=4)
                               | st.sampled_from(["<", ">="]), max_size=3)
    # an array
    if p.width is not None:
        row = st.lists(NUMBERS, min_size=p.width, max_size=p.width)
        return st.lists(row | st.lists(NUMBERS | LEAVES, max_size=p.width + 1), max_size=4)
    if p.item_type is None:
        return st.lists(LEAVES, max_size=4)
    item = _typed(p, p.item_type)
    if p.item_nullable:
        item = item | st.none()
    return st.lists(item, max_size=12)


def value_strategy(p):
    """Mostly values of the declared type, now and then any JSON value."""
    return st.one_of(_typed(p), _typed(p), _typed(p), LEAVES | st.lists(LEAVES, max_size=2))


def args_strategy(spec):
    return st.fixed_dictionaries(
        {p.name: value_strategy(p) for p in spec.params if p.required},
        optional={p.name: value_strategy(p) for p in spec.params if not p.required})


# -- the property -------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("boundary")
    registry, _ = make_sweep_registry(tmp)
    (tmp / "src" / "junk.tif").write_bytes(b"II*\x00junk!!")
    (tmp / "src" / "sub").mkdir()
    return registry


STRATEGIES = {t.name: args_strategy(t)
              for t in catalog_rows(ToolContext(workspace=None, perception=None))}


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=st.sampled_from(sorted(STRATEGIES)).flatmap(
    lambda name: st.tuples(st.just(name), STRATEGIES[name])))
def test_every_argument_map_ends_classified(sweep, call):
    name, args = call
    spec = next(s for s in sweep.list_specs() if s.name == name)
    sent = json.dumps(args)

    expected = None  # the boundary's verdict by the oracle: None, or (key, old text)
    for key, value in args.items():
        p = next(q for q in spec.params if q.name == key)
        if not accepts(p, value):
            expected = (key, old_message(spec, p, value))
            break
        if beyond(p, value):
            expected = (key, None)
            break
    checked = sweep.validate_args(spec, args)
    if expected is None:
        assert isinstance(checked, dict), checked
    elif expected[1] is not None:
        assert checked == expected[1]
    else:
        assert isinstance(checked, str)
        assert checked.startswith(f"argument {expected[0]!r} of tool {spec.name} expects ")

    result = sweep.call_tool(spec.name, args)
    assert json.dumps(args) == sent  # the caller's map is left as it was
    assert isinstance(result, ToolResult)
    json.dumps(result.to_json(), allow_nan=False)
    if isinstance(checked, str):
        assert (result.error_class, result.text) == (INVALID_PARAMETERS, checked)
    if result.error_class == SYSTEM_ERROR:
        assert result.text.startswith(f"{spec.name}: no mock fixture for "), result.text
