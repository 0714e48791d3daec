"""R001 fixture: every construction flows from derive_seed, names are
literal-first, and no two call sites derive the same stream tuple."""

from random import Random

from numpy.random import PCG64, Generator

from repro.sim.rng import RngManager, derive_seed


def build(master: int, nid: int) -> None:
    noise = Random(derive_seed(master, "noise", nid))
    fast = Generator(PCG64(derive_seed(master, "fast", "fading")))
    mgr = RngManager(master)
    mac = mgr.stream("mac", nid)
    churn = mgr.stream("churn", nid)
    # A one-shot draw shares stream()'s keyspace: a distinct name is fine.
    shadow = mgr.once("shadow", nid, 0).gauss(0.0, 1.0)
    child = mgr.fork("channel")
    _ = noise, fast, mac, churn, shadow, child


def other_scope(master: int, nid: int) -> None:
    # Same tuples as build()'s mac stream and shadow draw, but a different
    # function scope on a different manager: not a collision.
    mgr = RngManager(master)
    _ = mgr.stream("mac", nid)
    _ = mgr.once("shadow", nid, 0)
