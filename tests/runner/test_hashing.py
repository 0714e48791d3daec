"""Canonical hashing: stability, order-independence, type distinctions,
and the schema fingerprint every digest is salted with."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro
from repro.runner import hashing
from repro.runner.hashing import canonical_bytes, config_digest, schema_closure, schema_fingerprint


@dataclasses.dataclass(frozen=True)
class Point:
    x: int
    y: float


@dataclasses.dataclass(frozen=True)
class Other:
    x: int
    y: float


def test_digest_is_stable_across_calls():
    value = {"a": [1, 2.5, "s"], "b": (None, True)}
    assert config_digest(value) == config_digest(value)


def test_dict_key_order_does_not_matter():
    assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})


def test_distinct_values_distinct_digests():
    digests = {
        config_digest(v)
        for v in (None, True, False, 0, 1, "1", 1.0, (1,), [1], {"a": 1}, b"1")
    }
    assert len(digests) == 11  # bool != int, str != int, int != float, etc.


def test_nested_structure_matters():
    assert config_digest([1, [2, 3]]) != config_digest([[1, 2], 3])
    assert config_digest(("ab", "c")) != config_digest(("a", "bc"))


def test_dataclass_identity_includes_type_and_fields():
    assert config_digest(Point(1, 2.0)) == config_digest(Point(1, 2.0))
    assert config_digest(Point(1, 2.0)) != config_digest(Point(1, 3.0))
    # Same field values, different class → different digest.
    assert config_digest(Point(1, 2.0)) != config_digest(Other(1, 2.0))


def test_empty_omit_empty_field_leaves_the_encoding_unchanged():
    @dataclasses.dataclass(frozen=True)
    class Spec:
        x: int

    before = canonical_bytes(Spec(1))

    @dataclasses.dataclass(frozen=True)  # noqa: F811 - same qualname on purpose
    class Spec:  # type: ignore[no-redef]
        x: int
        extra: tuple = dataclasses.field(default=(), metadata={"digest": "omit_empty"})

    assert canonical_bytes(Spec(1)) == before
    assert canonical_bytes(Spec(1, (2,))) != before


def test_schema_version_salts_digest(monkeypatch):
    value = {"a": 1}
    before = config_digest(value)
    monkeypatch.setattr(hashing, "CACHE_SCHEMA_VERSION", hashing.CACHE_SCHEMA_VERSION + 1)
    schema_fingerprint.cache_clear()
    try:
        assert config_digest(value) != before
    finally:
        monkeypatch.undo()
        schema_fingerprint.cache_clear()
    assert config_digest(value) == before


def test_unsupported_type_raises():
    with pytest.raises(TypeError):
        canonical_bytes(object())
    with pytest.raises(TypeError):
        config_digest({"fn": lambda: None})


def test_canonical_bytes_golden():
    """Pin the encoding itself: a silent change would orphan every cache."""
    assert canonical_bytes(None) == b"n"
    assert canonical_bytes(True) == b"b1"
    assert canonical_bytes(False) == b"b0"
    assert canonical_bytes(0).startswith(b"i")
    assert canonical_bytes("x").startswith(b"s")


# ----------------------------------------------------------------------
# schema fingerprint
# ----------------------------------------------------------------------
TREE = """
@dataclasses.dataclass
class Inner:
    rate: float = 1.0
    burst: int = 3

@dataclasses.dataclass
class Crash:
    at_s: float = 0.0

@dataclasses.dataclass
class Reboot:
    at_s: float = 0.0

Event = Union[Crash, Reboot]

@dataclasses.dataclass
class Root:
    inner: Inner = dataclasses.field(default_factory=Inner)
    events: Tuple[Event, ...] = ()
"""


def _tree(monkeypatch, source):
    """Execute ``source`` as module ``fp_tree`` (postponed annotations, as
    in every repro module) and return its ``Root`` dataclass."""
    module = types.ModuleType("fp_tree")
    monkeypatch.setitem(sys.modules, "fp_tree", module)
    header = "from __future__ import annotations\nimport dataclasses\nfrom typing import Tuple, Union\n"
    exec(header + textwrap.dedent(source), module.__dict__)
    return module.Root


def _digest_under(monkeypatch, source, value):
    """``config_digest(value)`` with the tree in ``source`` as the schema."""
    monkeypatch.setattr(hashing, "SCHEMA_ROOTS", (_tree(monkeypatch, source),))
    return config_digest(value)


def test_nested_field_addition_changes_digest(monkeypatch):
    value = {"protocol": "4b"}
    base = _digest_under(monkeypatch, TREE, value)
    assert _digest_under(monkeypatch, TREE, value) == base  # schema, not identity
    grown = TREE.replace("    burst: int = 3\n", "    burst: int = 3\n    jitter: float = 0.0\n")
    assert _digest_under(monkeypatch, grown, value) != base


@pytest.mark.parametrize(
    "old, new",
    [
        ("    rate: float = 1.0\n", "    rate: float = 2.0\n"),  # re-default
        ("    rate: float = 1.0\n    burst: int = 3\n",
         "    burst: int = 3\n    rate: float = 1.0\n"),  # reorder
        ("    burst: int = 3\n", "    burst: float = 3\n"),  # re-type
        ("Event = Union[Crash, Reboot]",
         "@dataclasses.dataclass\nclass Blackout:\n    until_s: float = 1.0\n\n"
         "Event = Union[Crash, Reboot, Blackout]"),  # new Union member
    ],
    ids=["redefault", "reorder", "retype", "union-member"],
)
def test_schema_edits_change_fingerprint(monkeypatch, old, new):
    assert old in TREE
    base = schema_fingerprint((_tree(monkeypatch, TREE),))
    assert schema_fingerprint((_tree(monkeypatch, TREE.replace(old, new)),)) != base


def test_closure_follows_aliases_and_dataclass_defaults(monkeypatch):
    assert sorted(schema_closure((_tree(monkeypatch, TREE),))) == [
        "fp_tree.Crash", "fp_tree.Inner", "fp_tree.Reboot", "fp_tree.Root",
    ]
    # A loosely typed field still pulls in its dataclass-valued default
    # (``radio_params: RadioParams = CC2420``, minus the annotation).
    loose = _tree(
        monkeypatch,
        """
        @dataclasses.dataclass(frozen=True)
        class Radio:
            power_dbm: float = 0.0

        @dataclasses.dataclass
        class Root:
            radio: object = Radio()
        """,
    )
    assert sorted(schema_closure((loose,))) == ["fp_tree.Radio", "fp_tree.Root"]


def test_default_factory_is_named_not_repred(monkeypatch):
    root = _tree(
        monkeypatch,
        TREE + "\n@dataclasses.dataclass\nclass Root:\n"
        "    tags: dict = dataclasses.field(default_factory=lambda: {'a': 1})\n"
        "    inner: Inner = dataclasses.field(default_factory=Inner)\n",
    )
    closure = schema_closure((root,))
    assert closure["fp_tree.Root"] == (
        ("tags", "dict", "factory", "fp_tree.Root.<lambda>"),
        ("inner", "Inner", "factory", "fp_tree.Inner"),
    )
    assert "0x" not in repr(closure)


def test_production_closure_reaches_type_checking_roots():
    events = ("NodeCrash", "NodeReboot", "LinkBlackout", "QualityShift", "InterferenceBurst")
    expected = {f"repro.faults.schedule.{name}" for name in ("FaultSchedule",) + events}
    expected |= {"repro.phy.radio.RadioParams"}
    # No SimConfig field holds the protocol configs; their defaults are
    # digested through their own roots.
    expected |= {
        "repro.net.ctp.protocol.CtpConfig",
        "repro.net.ctp.routing.CtpRoutingConfig",
        "repro.net.ctp.forwarding.CtpForwardingConfig",
        "repro.net.multihoplqi.MhlqiConfig",
    }
    assert expected <= set(schema_closure())


def test_fingerprint_is_stable_across_hash_seeds():
    code = "from repro.runner.hashing import schema_fingerprint; print(schema_fingerprint())"
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        ).stdout.strip()
        for seed in ("1", "2")
    ]
    assert outputs == [schema_fingerprint()] * 2
