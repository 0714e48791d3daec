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

import collections
import hashlib
import itertools
import operator
import random
import struct
from typing import Any, Tuple, Union

_KeyPart = Union[str, int]

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: An int key part as :func:`derive_seed` encodes it: tag, little-endian
#: u64, terminator.
_INT_PART = struct.Struct("<cQc")
#: :data:`_INT_PART` twice, as a packed numpy record: the 20-byte key
#: tail of a pair's one-shot draw.
_TWO_INTS_FIELDS = [
    ("tag_a", "S1"), ("a", "<u8"), ("end_a", "S1"), ("tag_b", "S1"), ("b", "<u8"), ("end_b", "S1")
]


def _key_bytes(part: _KeyPart) -> bytes:
    """The canonical encoding of one key part (see :func:`derive_seed`)."""
    if isinstance(part, int):
        return _INT_PART.pack(b"i", part & _MASK64, b"\x00")
    return b"s" + part.encode("utf-8") + b"\x00"


def derive_seed(master_seed: int, *key: _KeyPart) -> int:
    """Derive a 64-bit seed from a master seed and a structured key.

    Uses BLAKE2b over a canonical encoding of the key parts, so the result
    is stable across processes and Python versions (unlike ``hash()``).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", master_seed & _MASK64))
    for part in key:
        h.update(_key_bytes(part))
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
        self._prefixes: dict[_KeyPart, hashlib.blake2b] = {}

    def stream(self, *key: _KeyPart) -> random.Random:
        """Return the stream for ``key``, creating it on first use.

        Streams are interned and never replaced for the manager's
        lifetime, so hot paths may hold the returned reference.
        """
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = random.Random(self._seed(key))
        return stream

    def once(self, *key: _KeyPart) -> random.Random:
        """A generator in the state a fresh ``stream(*key)`` starts in.

        For draws that are taken once and never read again (static
        shadowing, initial fading state, a node's boot stagger): the draws
        are bit-identical to the first draws of ``stream(*key)``, but
        nothing is interned, so memory stays O(1) instead of one 2.5 KB
        generator per key.  The returned object is a shared scratch
        generator: finish its draws before the next ``once`` call.
        """
        scratch = self._scratch
        # The public seed() also clears the cached Box-Muller spare.
        scratch.seed(self._seed(key))
        return scratch

    def once_seeds(self, name: str, a: Any, b: Any) -> bytearray:
        """The seeds :meth:`once` gives its generator, for many pairs at once.

        One little-endian 8-byte word per pair, in order: word ``k`` is the
        seed of ``once(name, a[k], b[k])``.  ``a`` and ``b`` are int arrays
        (or sequences) of equal length; a length mismatch raises
        ``ValueError``.  Every pair's key tail is packed into one
        structured array in :func:`derive_seed`'s layout (``"i"``, u64,
        NUL, twice), and each tail is hashed from the cached name prefix
        (``copy``, ``update``, ``digest``) by ``map`` chains, so no Python
        bytecode runs per pair.  The digests go straight into the one
        returned buffer, which a batched consumer
        (``repro.phy.vector.seeded_gauss``) reads as a uint64 array.
        """
        # Imported here, as in ChannelModel.mean_gains: an exact run never
        # calls this and must not load numpy.
        import numpy as np

        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape != b.shape:
            raise ValueError(f"once_seeds needs equal-length id arrays: {a.shape} and {b.shape}")
        tails = np.zeros(a.size, _TWO_INTS_FIELDS)
        tails["tag_a"] = b"i"
        tails["tag_b"] = b"i"
        # int64 -> u64 wraps as ``& _MASK64`` does.
        tails["a"] = a
        tails["b"] = b
        # A void row's tolist() is its 20 raw bytes.
        rows = tails.view(f"V{tails.itemsize}").tolist()
        del tails
        blake = hashlib.blake2b
        copies = map(blake.copy, itertools.repeat(self._prefix(name), len(rows)))
        # Each copy is updated with its row and then digested.  tee hands
        # the same copy to both: zip pulls it, then the update.
        fresh, same = itertools.tee(copies)
        updated = map(operator.itemgetter(0), zip(same, map(blake.update, fresh, rows)))
        out = bytearray()
        collections.deque(map(out.extend, map(blake.digest, updated)), maxlen=0)
        return out

    def _seed(self, key: Tuple[_KeyPart, ...]) -> int:
        """``derive_seed(master_seed, *key)``, hashed from the cached prefix."""
        if not key:
            return derive_seed(self.master_seed)
        h = self._prefix(key[0]).copy()
        for part in key[1:]:
            h.update(_key_bytes(part))
        return int.from_bytes(h.digest(), "little")

    def _prefix(self, name: _KeyPart) -> "hashlib.blake2b":
        """The blake2b state after the master seed and ``name``, cached."""
        prefix = self._prefixes.get(name)
        if prefix is None:
            prefix = hashlib.blake2b(digest_size=8)
            prefix.update(struct.pack("<Q", self.master_seed & _MASK64))
            prefix.update(_key_bytes(name))
            self._prefixes[name] = prefix
        return prefix

    def fork(self, *key: _KeyPart) -> "RngManager":
        """Return a new manager whose master seed is derived from ``key``.

        Useful to hand a whole subsystem its own seed space.
        """
        return RngManager(derive_seed(self.master_seed, "fork", *key))
