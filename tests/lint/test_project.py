"""Project pass: facts extraction, index, and the R/P/W rules."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lint import build_index, extract_facts, lint_paths, rules_by_name
from repro.lint.core import Rule, iter_python_files, load_module

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule: str, path: Path, repo_root=None):
    ctx = lint_paths([path], [rules_by_name()[rule]], repo_root)
    assert not ctx.errors
    return ctx.findings


def module_from(source: str, path: str = "repro/sim/demo.py"):
    text = textwrap.dedent(source)
    from repro.lint.core import ModuleInfo, module_name_for

    return ModuleInfo(
        path=path,
        module=module_name_for(Path(path)),
        tree=ast.parse(text),
        source_lines=text.splitlines(),
    )


# ----------------------------------------------------------------------
# facts extraction
# ----------------------------------------------------------------------
def test_extract_facts_inventory():
    facts = extract_facts(
        module_from(
            '''
            from dataclasses import dataclass
            from repro.sim.rng import derive_seed

            LIMIT = 7
            TABLE = {}

            @dataclass
            class Cfg:
                rate: float = 1.0

            def fill(key):
                TABLE[key] = derive_seed(1, "noise", key)
            '''
        )
    )
    assert facts.module == "repro.sim.demo"
    assert [g["name"] for g in facts.mutable_globals] == ["TABLE"]
    (mutation,) = facts.mutations
    assert mutation["recv"] == ["TABLE"] and mutation["op"] == "[]="
    assert mutation["func"] == "fill"  # runtime, not import time
    (site,) = facts.rng_sites
    assert site["kind"] == "derive_seed"
    assert site["components"] == [["lit", "noise"], ["dyn", "key"]]


def test_extract_facts_tracks_stream_alias():
    facts = extract_facts(
        module_from(
            """
            class Medium:
                def finalize(self):
                    stream = self._rng.stream
                    return stream("rx", 3)
            """
        )
    )
    (site,) = facts.rng_sites
    assert site["kind"] == "stream" and site["recv"] == "self._rng"
    assert site["components"] == [["lit", "rx"], ["lit", 3]]


def test_extract_facts_sees_channel_one_shot_draws():
    repo = Path(__file__).resolve().parents[2]
    path = repo / "src" / "repro" / "phy" / "channel.py"
    facts = extract_facts(load_module(path, repo / "src"))
    once = sorted(
        (site["scope"], site["components"][0][1])
        for site in facts.rng_sites
        if site["kind"] == "once"
    )
    assert once == [
        ("ChannelModel._fade_for", "bimodal"),
        ("ChannelModel._static_shadowing_db", "shadow"),
        ("ChannelModel._temporal_for", "ou-init"),
    ]


# ----------------------------------------------------------------------
# index
# ----------------------------------------------------------------------
def test_index_import_graph_and_cross_module_mutations():
    root = FIXTURES / "worker_state" / "bad"
    modules = [load_module(p, root) for p in iter_python_files([root])]
    index = build_index(modules, root)
    assert index.import_graph["repro.sim.network"] == {"repro.sim.medium"}
    assert index.reachable_from(["repro.sim.network"]) == {
        "repro.sim.network",
        "repro.sim.medium",
    }
    registry_sites = index.runtime_mutations[("repro.sim.medium", "REGISTRY")]
    assert [s["in_module"] for s in registry_sites] == ["repro.sim.network"]
    assert index.runtime_mutations[("repro.sim.network", "_CACHE")]


# ----------------------------------------------------------------------
# R001 — RNG-stream provenance
# ----------------------------------------------------------------------
def test_rng_provenance_good_is_clean():
    assert run_rule("rng-provenance", FIXTURES / "rng" / "good") == []


def test_rng_provenance_bad_finds_every_class():
    findings = run_rule("rng-provenance", FIXTURES / "rng" / "bad")
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 12  # 9 in repro/sim + 3 in repro/campaign
    assert "unseeded Random construction" in messages
    assert "does not flow from derive_seed" in messages
    assert "`Generator(PCG64(12345))`" not in messages  # judged at PCG64 site
    assert "`PCG64(12345)`" in messages
    assert "dynamic stream name" in messages
    assert "string-built stream-name component" in messages
    assert "duplicate derive_seed stream tuple ('noise', 3)" in messages
    assert "duplicate stream stream tuple ('phy', 7)" in messages
    # once() sites: literal-first checked, and one keyspace with stream().
    assert "dynamic stream name in `once(...)`" in messages
    assert "duplicate stream stream tuple ('ou', 1, 2)" in messages
    # The campaign fixture's three classes: arithmetic point seeds, a
    # dynamic namespace, and sweep/optimizer call sites sharing a tuple.
    assert "`Random(seed * 1000 + i)`" in messages
    assert "first component `mode` is not a string literal" in messages
    assert "duplicate derive_seed stream tuple ('campaign', 0)" in messages


def test_rng_provenance_ignores_modules_outside_deterministic_packages(tmp_path):
    tools = tmp_path / "repro" / "tools"
    tools.mkdir(parents=True)
    f = tools / "probe.py"
    f.write_text("from random import Random\nr = Random()\n", encoding="utf-8")
    assert run_rule("rng-provenance", f, tmp_path) == []


# ----------------------------------------------------------------------
# P001 — backend parity
# ----------------------------------------------------------------------
def test_backend_parity_good_is_clean():
    assert run_rule("backend-parity", FIXTURES / "parity" / "good") == []


def test_backend_parity_bad_flags_method_and_surface():
    findings = run_rule("backend-parity", FIXTURES / "parity" / "bad")
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 2
    assert "`candidate_receivers()` on RadioMedium is not overridden" in messages
    assert "reads `channel.temporal_sigma_db`" in messages
    assert "channel.gain_db" not in messages  # allowlisted divergence


# ----------------------------------------------------------------------
# W001 — worker state
# ----------------------------------------------------------------------
def test_worker_state_good_is_clean():
    assert run_rule("worker-state", FIXTURES / "worker_state" / "good") == []


def test_worker_state_bad_flags_same_and_cross_module():
    findings = run_rule("worker-state", FIXTURES / "worker_state" / "bad")
    assert len(findings) == 2
    by_name = {f.message.split("`")[1]: f for f in findings}
    assert set(by_name) == {"_CACHE", "REGISTRY"}
    assert "repro.sim.network" in by_name["REGISTRY"].message  # the mutator


# ----------------------------------------------------------------------
# registry + inline suppression
# ----------------------------------------------------------------------
def test_rules_by_name_rejects_duplicates():
    class A(Rule):
        id = "X001"
        name = "xray"

    class B(Rule):
        id = "X001"
        name = "other"

    with pytest.raises(ValueError, match="duplicate rule registration"):
        rules_by_name([A(), B()])

    class C(Rule):
        id = "X002"
        name = "xray"

    with pytest.raises(ValueError, match="duplicate rule registration"):
        rules_by_name([A(), C()])

    class D(Rule):
        id = ""
        name = "anon"

    with pytest.raises(ValueError, match="empty id or name"):
        rules_by_name([D()])


def test_project_findings_respect_inline_suppression(tmp_path):
    src = tmp_path / "repro" / "sim"
    src.mkdir(parents=True)
    (src / "network.py").write_text(
        "TABLE = {}  # lint: disable=worker-state\n\n"
        "def build(cfg):\n    TABLE[1] = cfg\n",
        encoding="utf-8",
    )
    ctx = lint_paths([tmp_path], [rules_by_name()["worker-state"]], tmp_path)
    assert ctx.findings == [] and ctx.inline_suppressed == 1
