"""R001: every RNG stream in the simulated stack traces to ``derive_seed``.

The bit-reproducibility story (DESIGN.md §7, §11) rests on two properties
no single file shows:

* **Provenance** — every ``random.Random`` / numpy ``Generator`` lives on a
  seed derived via :func:`repro.sim.rng.derive_seed` from the master seed.
  A literal seed, an arithmetic seed (``master + nid``), or an unseeded
  construction silently decouples a component from the master seed, and
  unseeded constructions draw OS entropy.
* **Stream identity** — stream names are *structured literals*.  The first
  key component must be a string literal (the greppable namespace), no
  component may be built by string formatting (``f"mac-{nid}"`` defeats
  both grep and the collision check below — pass ``("mac", nid)``), and two
  distinct call sites must not derive the identical fully-literal stream
  tuple: they would receive correlated randomness while reading as
  independent.

Collision scope is deliberately conservative so that independent
``RngManager`` instances (one per scenario function, one per test) do not
cross-talk: ``derive_seed`` call sites collide per *module* (they share the
caller's master seed by construction), ``stream``/``once``/``fork`` call
sites collide only within one function scope and receiver expression.
``stream`` and ``once`` are the same keyspace (``once(key)`` draws what a
fresh ``stream(key)`` would) and are grouped together.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

from repro.lint.core import Finding
from repro.lint.project import ProjectIndex, ProjectRule
from repro.lint.rules.determinism import DETERMINISTIC_PACKAGES, EXEMPT_MODULES


def _in_scope(module: str) -> bool:
    if module in EXEMPT_MODULES:
        return False
    if not module.startswith("repro."):
        return False
    for pkg in DETERMINISTIC_PACKAGES:
        if module == pkg or module.startswith(pkg + "."):
            return True
    return False


def _literal_tuple(components: List[List[object]]) -> Tuple[object, ...]:
    """The stream tuple when every component is literal, else ``()``."""
    if not components or any(kind != "lit" for kind, _v in components):
        return ()
    return tuple(v for _k, v in components)


class RngProvenanceRule(ProjectRule):
    id = "R001"
    name = "rng-provenance"
    description = (
        "every Random/Generator flows from derive_seed with literal, "
        "collision-free stream names in the deterministic packages"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        # (group key) -> [(line, site, facts)] for collision detection.
        derive_groups: Dict[Tuple[object, ...], List[Tuple[int, Dict[str, object], str]]] = (
            defaultdict(list)
        )
        stream_groups: Dict[Tuple[object, ...], List[Tuple[int, Dict[str, object], str]]] = (
            defaultdict(list)
        )
        for module, facts in sorted(index.files.items()):
            if not _in_scope(module):
                continue
            for site in facts.rng_sites:
                kind = str(site["kind"])
                if kind in ("random", "bitgen", "default_rng", "generator"):
                    yield from self._check_construction(facts.path, site)
                    continue
                yield from self._check_components(facts.path, site)
                components = site.get("components", [])
                tup = _literal_tuple(list(components))  # type: ignore[arg-type]
                if not tup:
                    continue
                line = int(site["line"])  # type: ignore[arg-type]
                if kind == "derive_seed":
                    derive_groups[(module, tup)].append((line, site, facts.path))
                else:
                    norm = "stream" if kind == "once" else kind
                    key = (module, str(site["scope"]), str(site["recv"]), norm, tup)
                    stream_groups[key].append((line, site, facts.path))

        yield from self._collisions(derive_groups, "derive_seed")
        yield from self._collisions(stream_groups, "stream")

    # ------------------------------------------------------------------
    def _check_construction(
        self, path: str, site: Dict[str, object]
    ) -> Iterator[Finding]:
        kind = str(site["kind"])
        line, col = int(site["line"]), int(site["col"])  # type: ignore[arg-type]
        snippet = str(site.get("snippet", ""))
        labels = {
            "random": "Random",
            "bitgen": "bit generator",
            "default_rng": "default_rng",
            "generator": "Generator",
        }
        if not site.get("seeded"):
            yield self.project_finding(
                path,
                line,
                f"unseeded {labels[kind]} construction `{snippet}` draws OS "
                "entropy — seed it from derive_seed(master, ...)",
                col,
            )
            return
        provenance = str(site.get("provenance"))
        if kind == "generator" and provenance == "bitgen":
            return  # judged at the nested PCG64(...) site
        if provenance != "derive_seed":
            yield self.project_finding(
                path,
                line,
                f"{labels[kind]} seed in `{snippet}` does not flow from "
                "derive_seed — every simulated-stack stream must be a named "
                "derive_seed(master, ...) derivation",
                col,
            )

    def _check_components(
        self, path: str, site: Dict[str, object]
    ) -> Iterator[Finding]:
        kind = str(site["kind"])
        line, col = int(site["line"]), int(site["col"])  # type: ignore[arg-type]
        components = list(site.get("components", []))  # type: ignore[arg-type]
        if not components:
            if kind == "fork":
                return  # fork() with no key is not used, but harmless
            yield self.project_finding(
                path,
                line,
                f"`{kind}()` call with an empty stream name — name the "
                "stream with literal components",
                col,
            )
            return
        first_kind, first_value = components[0][0], components[0][1]
        if first_kind != "lit" or not isinstance(first_value, str):
            yield self.project_finding(
                path,
                line,
                f"dynamic stream name in `{kind}(...)`: first component "
                f"`{first_value}` is not a string literal — the leading "
                "component is the greppable stream namespace",
                col,
            )
        for comp_kind, comp_value in components[1:]:
            if comp_kind == "str-built":
                yield self.project_finding(
                    path,
                    line,
                    f"string-built stream-name component `{comp_value}` in "
                    f"`{kind}(...)` — pass structured parts "
                    '(e.g. ("mac", nid)) so collisions stay detectable',
                    col,
                )

    def _collisions(
        self,
        groups: Dict[Tuple[object, ...], List[Tuple[int, Dict[str, object], str]]],
        what: str,
    ) -> Iterator[Finding]:
        for key in sorted(groups, key=repr):
            sites = sorted(groups[key], key=lambda s: s[0])
            if len(sites) < 2:
                continue
            tup = key[-1]
            for line, site, path in sites[1:]:
                yield self.project_finding(
                    path,
                    line,
                    f"duplicate {what} stream tuple {tup!r} — another call "
                    "site already derives this stream; distinct draws need "
                    "distinct names (or hoist the shared stream to one site)",
                    int(site["col"]),  # type: ignore[arg-type]
                )
