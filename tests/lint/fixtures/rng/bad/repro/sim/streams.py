"""R001 fixture: one of every violation class.

Expected findings (9):

1. unseeded ``Random()`` — OS entropy
2. arithmetic seed ``Random(master + nid)`` — no derive_seed provenance
3. literal-seeded bit generator ``Generator(PCG64(12345))``
4. dynamic first stream-name component
5. f-string stream-name component
6. duplicate ``derive_seed`` tuple within the module
7. duplicate ``stream`` tuple within one scope/receiver
8. dynamic first component in a one-shot ``once`` draw
9. a ``once`` draw repeating a ``stream`` tuple in the same scope/receiver
   (one keyspace: the draw replays the stream's first values)
"""

from random import Random

from numpy.random import PCG64, Generator

from repro.sim.rng import RngManager, derive_seed


def build(master: int, nid: int, name: str) -> None:
    wild = Random()  # 1: unseeded
    drift = Random(master + nid)  # 2: arithmetic seed
    fast = Generator(PCG64(12345))  # 3: literal seed
    mgr = RngManager(master)
    dyn = mgr.stream(name, nid)  # 4: dynamic namespace
    fmt = mgr.stream("mac", f"node-{nid}")  # 5: string-built component
    a = derive_seed(master, "noise", 3)
    b = derive_seed(master, "noise", 3)  # 6: duplicate derive_seed tuple
    first = mgr.stream("phy", 7)
    second = mgr.stream("phy", 7)  # 7: duplicate stream tuple, same scope
    shadow = mgr.once(name, nid, 0).gauss(0.0, 1.0)  # 8: dynamic namespace
    init = mgr.stream("ou", 1, 2)
    replay = mgr.once("ou", 1, 2).random()  # 9: same keyspace as stream
    _ = wild, drift, fast, dyn, fmt, a, b, first, second, shadow, init, replay
