"""Named, splittable random streams on a counter-based generator.

Every stochastic operation in the package takes an explicit stream, so a run
is fully determined by its seed. Streams split by label: the child key is a
hash of the parent key and the label, which makes derived streams independent
of draw order and cheap to re-create (e.g. per training step).
"""
from __future__ import annotations

import hashlib

import numpy as np

_CLIP_LO = 1e-10
_CLIP_HI = 1.0 - 1e-10


class RngStream:
    """A Philox-backed stream identified by a 128-bit key. The generator is
    built on the first draw or state access, so a stream that only splits
    never pays for one."""

    def __init__(self, seed: int | None = None, name: str = "root",
                 _key: bytes | None = None):
        if _key is None:
            if seed is None:
                raise ValueError("RngStream needs a seed or an explicit key")
            _key = hashlib.blake2b(f"{name}:{seed}".encode(), digest_size=16).digest()
        self.name = name
        self._key = _key
        self._gen = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.Philox(key=int.from_bytes(self._key, "little")))
        return self._gen

    def split(self, label: str) -> "RngStream":
        """Derive an independent child stream; same label, same child."""
        child = hashlib.blake2b(self._key + label.encode(), digest_size=16).digest()
        return RngStream(name=f"{self.name}/{label}", _key=child)

    # -- draws ------------------------------------------------------------

    def uniform(self, shape=None) -> np.ndarray:
        return self._generator().random(shape)

    def gumbel(self, shape=None) -> np.ndarray:
        """Standard Gumbel noise, u clamped away from {0,1} for finiteness."""
        u = np.clip(self._generator().random(shape), _CLIP_LO, _CLIP_HI)
        return -np.log(-np.log(u))

    def logistic(self, shape=None) -> np.ndarray:
        u = np.clip(self._generator().random(shape), _CLIP_LO, _CLIP_HI)
        return np.log(u) - np.log1p(-u)

    def integers(self, low: int, high: int | None = None, size=None) -> np.ndarray:
        return self._generator().integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator().permutation(n)

    def bernoulli(self, p: float) -> bool:
        return bool(self._generator().random() < p)

    # -- serialization ----------------------------------------------------

    def get_state(self) -> dict:
        s = self._generator().bit_generator.state
        return {
            "name": self.name,
            "key": self._key.hex(),
            "counter": [int(x) for x in s["state"]["counter"]],
            "buffer": [int(x) for x in s["buffer"]],
            "buffer_pos": int(s["buffer_pos"]),
            "has_uint32": int(s["has_uint32"]),
            "uinteger": int(s["uinteger"]),
        }

    @classmethod
    def from_state(cls, d: dict) -> "RngStream":
        """Rebuild a ``get_state`` dict; a field of the wrong type or out of
        its range raises ``ValueError`` naming the field."""
        def whole(field, value, end):
            if type(value) is not int or not 0 <= value < end:
                raise ValueError(f"stream {field}: {value!r} is not an int "
                                 f"in [0, {end})")
            return value

        def words(field):
            if type(d[field]) is not list or len(d[field]) != 4:
                raise ValueError(f"stream {field} must be a list of 4 ints; "
                                 f"got {d[field]!r}")
            return np.array([whole(field, x, 1 << 64) for x in d[field]],
                            dtype=np.uint64)

        if type(d["name"]) is not str:
            raise ValueError(f"stream name must be a string; got {d['name']!r}")
        try:
            key = bytes.fromhex(d["key"])
        except (TypeError, ValueError):
            key = b""
        if len(key) != 16:
            raise ValueError(f"stream key must be 16 bytes of hex; "
                             f"got {d['key']!r}")
        stream = cls(name=d["name"], _key=key)
        bitgen = stream._generator().bit_generator
        s = bitgen.state
        s["state"]["counter"] = words("counter")
        s["buffer"] = words("buffer")
        s["buffer_pos"] = whole("buffer_pos", d["buffer_pos"], 5)
        s["has_uint32"] = whole("has_uint32", d["has_uint32"], 2)
        s["uinteger"] = whole("uinteger", d["uinteger"], 1 << 32)
        bitgen.state = s
        return stream

    def __repr__(self) -> str:
        return f"RngStream({self.name!r})"
