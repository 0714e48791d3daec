"""Every lint rule fires on its bad fixture and stays silent on the good one."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import RULES, lint_paths, rules_by_name

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule: str, *paths: Path):
    ctx = lint_paths(list(paths), [rules_by_name()[rule]])
    assert not ctx.errors
    return ctx.findings


# ----------------------------------------------------------------------
# registry sanity
# ----------------------------------------------------------------------
def test_registry_has_all_rules():
    ids = [rule.id for rule in RULES]
    names = [rule.name for rule in RULES]
    assert len(ids) == len(set(ids)) and len(names) == len(set(names))
    assert set(names) >= {
        "determinism",
        "layering",
        "units",
        "mutable-default",
        "float-equality",
        "unused-import",
        "rng-provenance",
        "backend-parity",
        "worker-state",
    }


def test_rules_by_name_accepts_id_or_name():
    table = rules_by_name()
    assert table["determinism"] is table["D001"]
    assert {table[r.name] for r in RULES} == {table[r.id] for r in RULES}
    assert len(table) == 2 * len(RULES)
    with pytest.raises(KeyError):
        table["no-such-rule"]


# ----------------------------------------------------------------------
# paired good/bad fixtures, one pair per rule
# ----------------------------------------------------------------------
def test_determinism_bad():
    findings = run_rule("determinism", FIXTURES / "determinism" / "bad.py")
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 16
    assert "random.random()" in messages
    assert "random.shuffle()" in messages
    assert "`time.time()` reads the wall clock" in messages
    assert "`datetime.now()` reads the wall clock" in messages
    assert "`os.urandom()` draws OS entropy" in messages
    assert "`uuid.uuid4()` draws OS entropy" in messages
    assert "from random import randint" in messages
    # Three original set-iteration sites plus the mobility visit-order one.
    assert messages.count("iteration over a set") == 4
    assert "random.uniform()" in messages
    assert "global numpy RNG `np.random.normal()`" in messages
    assert "global numpy RNG `np.random.seed()`" in messages
    assert "`default_rng()` without a seed draws OS entropy" in messages
    assert "from numpy.random import shuffle" in messages


def test_determinism_good():
    assert run_rule("determinism", FIXTURES / "determinism" / "good.py") == []


def test_layering_bad():
    findings = run_rule(
        "layering",
        FIXTURES / "layering" / "repro" / "net" / "bad_routing.py",
        FIXTURES / "layering" / "repro" / "phy" / "bad_upward.py",
    )
    by_path = {}
    for f in findings:
        by_path.setdefault(Path(f.path).name, []).append(f.message)
    assert len(by_path["bad_routing.py"]) == 4
    routing = "\n".join(by_path["bad_routing.py"])
    assert "repro.core.estimator" in routing  # concrete estimator, not the contract
    assert "skips layers" in routing  # net -> link.mac / phy internals
    assert "repro.phy.lqi" in routing and "repro.phy.channel" in routing
    assert by_path["bad_upward.py"] == [
        "layer `phy` imports upward into `repro.net.ctp.routing`; cross layers "
        "through repro.core.interfaces (the four-bit contract)"
    ]


def test_layering_good():
    assert (
        run_rule(
            "layering",
            FIXTURES / "layering" / "repro" / "net" / "good_routing.py",
            FIXTURES / "layering" / "repro" / "core" / "good_entry.py",
        )
        == []
    )


def test_units_bad():
    findings = run_rule("units", FIXTURES / "units" / "bad.py")
    assert len(findings) == 4
    messages = "\n".join(f.message for f in findings)
    assert "log-domain `signal_dbm` with linear-domain `noise_mw`" in messages
    assert "log-domain `rssi_dbm` with linear-domain `noise_floor_mw`" in messages
    assert "log-domain `power_db` with linear-domain `floor_w`" in messages
    assert "log-domain `tx_dbm` with linear-domain `interference_mw`" in messages


def test_units_good():
    assert run_rule("units", FIXTURES / "units" / "good.py") == []


def test_mutable_default_bad():
    findings = run_rule("mutable-default", FIXTURES / "hygiene" / "mutable_default_bad.py")
    assert len(findings) == 5
    flagged = {f.message.split("`")[1] for f in findings}
    assert flagged == {"append()", "index()", "dedupe()", "built()", "keyword_only()"}


def test_mutable_default_good():
    assert run_rule("mutable-default", FIXTURES / "hygiene" / "mutable_default_good.py") == []


def test_float_equality_bad():
    findings = run_rule("float-equality", FIXTURES / "hygiene" / "float_equality_bad.py")
    assert len(findings) == 4
    messages = "\n".join(f.message for f in findings)
    for literal in ("0.3", "1.5", "-2.5", "0.7"):
        assert f"float literal {literal}" in messages


def test_float_equality_good():
    assert run_rule("float-equality", FIXTURES / "hygiene" / "float_equality_good.py") == []


def test_unused_import_bad():
    findings = run_rule("unused-import", FIXTURES / "hygiene" / "unused_import_bad.py")
    messages = [f.message for f in findings]
    assert messages == [
        "`import json` is never used",
        "`import os.path` is never used",
        "`from math import sqrt` is never used",
        "`from typing import Dict` is never used",
    ]


def test_unused_import_good():
    # Exercises the __all__ exemption and quoted-annotation (TYPE_CHECKING) uses.
    assert run_rule("unused-import", FIXTURES / "hygiene" / "unused_import_good.py") == []


def test_findings_carry_location():
    findings = run_rule("float-equality", FIXTURES / "hygiene" / "float_equality_bad.py")
    for f in findings:
        assert f.rule == "H002" and f.name == "float-equality"
        assert f.line > 0 and f.col > 0
        assert f.path.endswith("float_equality_bad.py")
        assert f"{f.path}:{f.line}:{f.col}:" in f.render()
