"""Deterministic, named random-number streams.

Every stochastic component in the simulator (each node's MAC backoff, each
link's shadowing process, each workload timer, ...) draws from its own named
substream.  This gives two properties the experiments rely on:

* **Reproducibility** — a run is a pure function of the master seed.
* **Variance isolation** — changing how one component consumes randomness
  (e.g. adding a retransmission) does not perturb the random sequence seen
  by unrelated components, so A/B comparisons between protocols share the
  same channel realization.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Sequence, Tuple, Union

_KeyPart = Union[str, int]

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: The two int key parts of a one-shot draw, encoded exactly as
#: :func:`derive_seed` encodes them (tag, little-endian u64, terminator).
_TWO_INTS = struct.Struct("<cQccQc")


def derive_seed(master_seed: int, *key: _KeyPart) -> int:
    """Derive a 64-bit seed from a master seed and a structured key.

    Uses BLAKE2b over a canonical encoding of the key parts, so the result
    is stable across processes and Python versions (unlike ``hash()``).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", master_seed & _MASK64))
    for part in key:
        if isinstance(part, int):
            h.update(b"i")
            h.update(struct.pack("<Q", part & _MASK64))
        else:
            h.update(b"s")
            h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


class RngManager:
    """Factory of independent ``random.Random`` streams keyed by name.

    >>> mgr = RngManager(42)
    >>> a = mgr.stream("mac", 3)
    >>> b = mgr.stream("mac", 4)
    >>> a is mgr.stream("mac", 3)
    True
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self._streams: dict[Tuple[_KeyPart, ...], random.Random] = {}
        #: Scratch generator reseeded by every :meth:`once` call, and the
        #: per-name blake2b states that already hold the master seed and
        #: the name.
        self._scratch = random.Random(0)
        self._prefixes: dict[str, hashlib.blake2b] = {}

    def stream(self, *key: _KeyPart) -> random.Random:
        """Return the stream for ``key``, creating it on first use.

        Streams are interned and never replaced for the manager's
        lifetime, so hot paths may hold the returned reference.
        """
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = random.Random(derive_seed(self.master_seed, *key))
        return stream

    def once(self, name: str, a: int, b: int) -> random.Random:
        """A generator in the state a fresh ``stream(name, a, b)`` starts in.

        For per-pair draws that are taken once and never read again (static
        shadowing, initial fading state): the draws are bit-identical to the
        first draws of ``stream(name, a, b)``, but nothing is interned, so
        memory stays O(1) instead of one 2.5 KB generator per pair.  The
        returned object is a shared scratch generator: finish its draws
        before the next ``once`` call.
        """
        h = self._prefix(name).copy()
        h.update(_TWO_INTS.pack(b"i", a & _MASK64, b"\x00", b"i", b & _MASK64, b"\x00"))
        scratch = self._scratch
        # The public seed() also clears the cached Box-Muller spare.
        scratch.seed(int.from_bytes(h.digest(), "little"))
        return scratch

    def once_seeds(self, name: str, a: Sequence[int], b: Sequence[int]) -> bytearray:
        """The seeds :meth:`once` gives its generator, for many pairs at once.

        One little-endian 8-byte word per pair, in order: word ``k`` is the
        seed of ``once(name, a[k], b[k])``.  ``a`` and ``b`` hold Python
        ints (a numpy array's ``tolist()``).  Written into a single buffer,
        so a batched consumer (``repro.phy.vector.seeded_gauss``) reads it
        as one uint64 array without a Python object per seed.
        """
        copy = self._prefix(name).copy
        pack = _TWO_INTS.pack
        out = bytearray(8 * len(a))
        at = 0
        for x, y in zip(a, b):
            h = copy()
            h.update(pack(b"i", x & _MASK64, b"\x00", b"i", y & _MASK64, b"\x00"))
            out[at : at + 8] = h.digest()
            at += 8
        return out

    def _prefix(self, name: str) -> "hashlib.blake2b":
        """The blake2b state after the master seed and ``name``, cached."""
        prefix = self._prefixes.get(name)
        if prefix is None:
            prefix = hashlib.blake2b(digest_size=8)
            prefix.update(struct.pack("<Q", self.master_seed & _MASK64))
            prefix.update(b"s" + name.encode("utf-8") + b"\x00")
            self._prefixes[name] = prefix
        return prefix

    def fork(self, *key: _KeyPart) -> "RngManager":
        """Return a new manager whose master seed is derived from ``key``.

        Useful to hand a whole subsystem its own seed space.
        """
        return RngManager(derive_seed(self.master_seed, "fork", *key))
