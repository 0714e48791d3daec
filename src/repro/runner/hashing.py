"""Canonical, cross-process-stable digests of experiment configurations.

The result cache keys each run by a BLAKE2b digest of its full
configuration.  Like :func:`repro.sim.rng.derive_seed`, every value is
serialized with an explicit type tag and length framing, so the digest is a
pure function of the *values*: stable across processes, Python versions,
and dict insertion orders (none of which is true of ``hash()`` or
``repr()``).  Two configs collide only if they would produce the same run.

Supported value types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, tuples/lists, dicts, and (possibly nested) dataclasses — which
covers :class:`~repro.sim.network.SimConfig` and everything a campaign
point carries.  Anything else raises ``TypeError`` rather than silently
hashing an unstable representation.  A dataclass field with metadata
``{"digest": "omit_empty"}`` is left out while empty (older digests hold).

The cache versions itself: every digest is salted with
:func:`schema_fingerprint`, a digest of the field schema of each dataclass
reachable from :data:`SCHEMA_ROOTS`.  Adding, removing, reordering,
re-typing or re-defaulting a field anywhere in that closure changes every
digest, so no cached result can outlive the schema it was computed under.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import re
import struct
import sys
import typing
from typing import Any, Dict, Iterator, List, Tuple, Union

#: Bump only for behaviour changes the schema fingerprint cannot see (a
#: simulator fix, a preset constant): schema changes re-key every digest by
#: themselves.  2: estimator reboot detection resets the PRR history;
#: 3-6: schema growth, bumped by hand before the fingerprint existed;
#: 7: spec values canonical (an integral float is its int, and a scenario
#: file is digested by content).
CACHE_SCHEMA_VERSION = 7

#: Dataclasses whose field schema a cached result depends on: the config
#: every run digest hashes, the campaign spec, and the two cached payloads.
#: ``FaultSchedule`` appears in ``SimConfig``'s annotations only as a name
#: imported under ``TYPE_CHECKING``, so the runtime walk cannot reach it
#: from ``SimConfig`` and lists it here.  No field holds the two protocol
#: configs, whose defaults every run scales, so they are listed too.
SCHEMA_ROOTS: Tuple[str, ...] = (
    "repro.sim.network.SimConfig",
    "repro.metrics.collection_stats.CollectionResult",
    "repro.campaign.spec.SimulationSpec",
    "repro.campaign.spec.SimulationResult",
    "repro.faults.schedule.FaultSchedule",
    "repro.net.ctp.protocol.CtpConfig",
    "repro.net.multihoplqi.MhlqiConfig",
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _frame(raw: bytes) -> bytes:
    """Length-prefix ``raw`` so concatenated encodings cannot alias."""
    return struct.pack("<I", len(raw)) + raw


def canonical_bytes(value: Any) -> bytes:
    """Deterministic byte encoding of ``value`` (see module docstring)."""
    # bool before int: True would otherwise encode identically to 1.
    if value is None:
        return b"n"
    if isinstance(value, bool):
        return b"b1" if value else b"b0"
    if isinstance(value, int):
        return b"i" + _frame(str(value).encode("ascii"))
    if isinstance(value, float):
        return b"f" + struct.pack("<d", value)
    if isinstance(value, str):
        return b"s" + _frame(value.encode("utf-8"))
    if isinstance(value, bytes):
        return b"y" + _frame(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        body = b"".join(
            _frame(canonical_bytes(f.name) + canonical_bytes(getattr(value, f.name)))
            for f in dataclasses.fields(value)
            if f.metadata.get("digest") != "omit_empty" or getattr(value, f.name)
        )
        return b"D" + _frame(f"{cls.__module__}.{cls.__qualname__}".encode("utf-8")) + _frame(body)
    if isinstance(value, (tuple, list)):
        tag = b"t" if isinstance(value, tuple) else b"l"
        return tag + struct.pack("<I", len(value)) + b"".join(
            _frame(canonical_bytes(v)) for v in value
        )
    if isinstance(value, dict):
        items = sorted(
            (canonical_bytes(k), canonical_bytes(v)) for k, v in value.items()
        )
        return b"d" + struct.pack("<I", len(items)) + b"".join(
            _frame(k) + _frame(v) for k, v in items
        )
    raise TypeError(
        f"cannot canonically encode {type(value).__qualname__!r}; "
        "use plain data or (nested) dataclasses in experiment configs"
    )


#: ``(name, annotation, default kind, default)`` of one dataclass field.
_FieldSchema = Tuple[str, str, str, Any]


def _qualified(obj: Any) -> str:
    return f"{obj.__module__}.{obj.__qualname__}"


def _resolve(root: Union[str, type]) -> type:
    if isinstance(root, type):
        return root
    module, _, name = root.rpartition(".")
    return getattr(importlib.import_module(module), name)


def _referenced_dataclasses(obj: Any, scope: Dict[str, Any]) -> Iterator[type]:
    """Dataclasses named by an annotation (a string under postponed
    evaluation, resolved through ``scope``) or reached through its type
    arguments, so ``Tuple[FaultEvent, ...]`` yields every ``Union`` member."""
    if isinstance(obj, str):
        for ident in _IDENT_RE.findall(obj):
            if ident in scope:
                yield from _referenced_dataclasses(scope[ident], scope)
    elif isinstance(obj, type) and dataclasses.is_dataclass(obj):
        yield obj
    else:
        for arg in typing.get_args(obj):
            yield from _referenced_dataclasses(arg, scope)


def _field_schema(f: "dataclasses.Field[Any]") -> _FieldSchema:
    """A factory is named by ``module.qualname``, never by its
    address-bearing ``repr``."""
    annotation = str(f.type)  # the source text under postponed evaluation
    if f.default is not dataclasses.MISSING:
        return (f.name, annotation, "default", f.default)
    if f.default_factory is not dataclasses.MISSING:
        return (f.name, annotation, "factory", _qualified(f.default_factory))
    return (f.name, annotation, "required", None)


def schema_closure(
    roots: Tuple[Union[str, type], ...] = SCHEMA_ROOTS,
) -> Dict[str, Tuple[_FieldSchema, ...]]:
    """``qualname -> field schemas`` (definition order) for every dataclass
    reachable from ``roots`` through field annotations and dataclass-valued
    defaults (``radio_params = CC2420`` reaches ``RadioParams``)."""
    closure: Dict[str, Tuple[_FieldSchema, ...]] = {}
    worklist: List[type] = [_resolve(r) for r in roots]
    while worklist:
        cls = worklist.pop()
        qual = _qualified(cls)
        if qual in closure:
            continue
        fields = dataclasses.fields(cls)
        closure[qual] = tuple(_field_schema(f) for f in fields)
        scope = vars(sys.modules[cls.__module__])
        for f in fields:
            worklist.extend(_referenced_dataclasses(f.type, scope))
            if dataclasses.is_dataclass(f.default):
                worklist.append(type(f.default))
    return closure


@functools.lru_cache(maxsize=None)
def schema_fingerprint(roots: Tuple[Union[str, type], ...] = SCHEMA_ROOTS) -> str:
    """Hex digest of :data:`CACHE_SCHEMA_VERSION` and the
    :func:`schema_closure` of ``roots``, computed once per process.  The
    roots are imported here, not at module load: ``repro.campaign.spec``
    imports this module."""
    schema = sorted(schema_closure(roots).items())
    return hashlib.blake2b(canonical_bytes((CACHE_SCHEMA_VERSION, schema)), digest_size=16).hexdigest()


def config_digest(value: Any) -> str:
    """Hex digest (128-bit BLAKE2b) of ``value``'s canonical encoding,
    salted with the :func:`schema_fingerprint` of the cached schema."""
    h = hashlib.blake2b(digest_size=16)
    h.update(_frame(schema_fingerprint(SCHEMA_ROOTS).encode("ascii")))
    h.update(canonical_bytes(value))
    return h.hexdigest()
