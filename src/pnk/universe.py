"""Finite packet universes and packet-set primitives.

A universe is an ordered list of named fields, each with a finite integer
domain ``0 .. size-1``.  A packet is a full assignment of field values,
encoded as a single integer index in mixed radix with the *first declared
field least significant*.  Packet sets are frozensets of packet indices, so
a set costs memory in proportion to its members, and a universe's size is a
plain number: no step of the engine builds a set that grows with it, and
a universe of 2^71 packets costs what its sets cost.  What bounds a run are
the limits placed where it spends its resources: the pair-state budget of
each star chain (``star.DEFAULT_STATE_BUDGET``), the number of rows an
all-subsets input specification may list (2^``analysis.DEFAULT_SUBSET_CAP``)
and the nesting depth of a program (``syntax.MAX_DEPTH``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import UniverseError

#: Packet sets are plain frozensets of packet indices.
PacketSet = frozenset
EMPTY: PacketSet = frozenset()


@dataclass(frozen=True)
class FieldDecl:
    """A named field with domain ``0 .. size-1``."""

    name: str
    size: int


# Field name -> its bit in a field mask, made as names are first met.
_BITS: dict = {}


def field_bit(name: str) -> int:
    """The bit of the field ``name`` in a field mask: a set of fields is
    the sum of their bits (see ``syntax.footprint``), one int throughout."""
    bit = _BITS.get(name)
    if bit is None:
        bit = _BITS[name] = 1 << len(_BITS)
    return bit


def _ints(value) -> bool:
    """Whether ``value`` is an int, or a tuple of ints, and holds no bool."""
    if type(value) is tuple:
        return all([type(v) is int for v in value])
    return type(value) is int


class PacketUniverse:
    """The finite set of packets induced by an ordered field declaration list."""

    def __init__(self, decls):
        decls = tuple(decls)
        if not decls:
            raise UniverseError("universe needs at least one field")
        seen = set()
        for d in decls:
            if d.size < 1:
                raise UniverseError(f"field {d.name!r} has domain size {d.size} < 1")
            if d.name in seen:
                raise UniverseError(f"duplicate field {d.name!r}")
            seen.add(d.name)
        self.decls = decls
        # Per field, its mixed-radix weight and domain size; the first
        # field is least significant.  ``digits`` lists each field's (bit,
        # weight, size) in declaration order, and ``mask`` is every field.
        self._digits = {}
        digits, w = [], 1
        for d in decls:
            self._digits[d.name] = (w, d.size)
            digits.append((field_bit(d.name), w, d.size))
            w *= d.size
        self.digits = tuple(digits)
        self.mask = sum([bit for bit, _, _ in digits])
        self.packet_count = w
        self._readers: dict = {}
        self._projectors: dict = {}
        self._rewrites: dict = {}  # (name, value) of ``modify`` -> its rewrite
        # Footprint mask -> the layout kernels key node code by, shared by
        # every kernel over this universe (see ``bigstep._View._code``).
        self.layouts: dict = {}

    # -- field lookup -------------------------------------------------

    def has_field(self, name: str) -> bool:
        return name in self._digits

    def field(self, name: str) -> FieldDecl:
        return FieldDecl(name, self._digit(name, 0)[1])

    def check_value(self, name: str, value: int) -> None:
        self._digit(name, value)

    def _digit(self, name: str, value: int) -> tuple[int, int]:
        """Weight and domain size of field ``name``, after checking that
        ``value`` is an integer in that domain."""
        try:
            w, size = self._digits[name]
        except KeyError:
            raise UniverseError(f"unknown field {name!r}") from None
        if not isinstance(value, int) or isinstance(value, bool):
            raise UniverseError(f"value {value!r} of field {name!r} is not an integer")
        if not (0 <= value < size):
            raise UniverseError(
                f"value {value} out of range for field {name!r} (size {size})"
            )
        return w, size

    # -- packet coding ------------------------------------------------

    def encode(self, values) -> int:
        """Encode a full tuple of field values (declaration order) to an index."""
        values = tuple(values)
        if len(values) != len(self.decls):
            raise UniverseError(
                f"expected {len(self.decls)} field values, got {len(values)}"
            )
        idx = 0
        for d, v in zip(self.decls, values):
            idx += self._digit(d.name, v)[0] * v
        return idx

    def check_packets(self, *packets: int) -> None:
        """Refuse a packet index outside ``0 .. packet_count - 1``.  Given
        the least and the greatest of a collection, this checks all of it."""
        for idx in packets:
            if not (0 <= idx < self.packet_count):
                raise UniverseError(f"packet index {idx} out of range")

    def decode(self, idx: int) -> tuple[int, ...]:
        self.check_packets(idx)
        out = []
        for d in self.decls:
            out.append(idx % d.size)
            idx //= d.size
        return tuple(out)

    def packet(self, **fields) -> int:
        """Encode a packet from keyword field values (all fields required)."""
        missing = [d.name for d in self.decls if d.name not in fields]
        if missing:
            raise UniverseError(f"missing field values: {missing}")
        extra = [k for k in fields if k not in self._digits]
        if extra:
            raise UniverseError(f"unknown fields: {extra}")
        return self.encode(tuple(fields[d.name] for d in self.decls))

    def field_value(self, idx: int, name: str) -> int:
        w, size = self._digit(name, 0)
        return idx // w % size

    def reader(self, name: str):
        """The function from a packet index to its value of field ``name``:
        one digit read, for code that reads one field of many packets.
        Made once per field."""
        fn = self._readers.get(name)
        if fn is None:
            w, size = self._digit(name, 0)
            fn = self._readers[name] = lambda i: i // w % size
        return fn

    def projector(self, mask: int):
        """The function from a packet index to the index of the packet with
        its values of the fields in ``mask`` and 0 in every other field: the
        packet's *valuation* of those fields.  Valuations of disjoint fields
        add up.  Fields adjacent in the mixed radix are read as one digit
        run, one ``//`` and one ``%`` per run.  Made once per mask."""
        fn = self._projectors.get(mask)
        if fn is None:
            runs = []  # [weight, size] of each run of adjacent fields
            for bit, w, size in self.digits:  # ascending weight
                if not bit & mask:
                    continue
                if runs and runs[-1][0] * runs[-1][1] == w:
                    runs[-1][1] *= size
                else:
                    runs.append([w, size])
            if not runs:
                fn = lambda i: 0
            elif len(runs) == 1:
                (w, size), = runs
                fn = (lambda i: i % size) if w == 1 else (lambda i: i // w % size * w)
            else:
                fn = lambda i: sum([i // w % size * w for w, size in runs])
            fn = self._projectors[mask] = fn
        return fn

    def valuation(self, values: dict) -> int:
        """The valuation (see ``projector``) with the field values
        ``values``, a dict from names to values, each one checked."""
        return sum([self._digit(name, v)[0] * v for name, v in values.items()])

    def record(self, idx: int) -> dict[str, int]:
        vals = self.decode(idx)
        return {d.name: v for d, v in zip(self.decls, vals)}

    # -- packet sets ----------------------------------------------------

    def all_packets(self) -> PacketSet:
        return frozenset(range(self.packet_count))

    def select(self, aset: PacketSet, name: str, value: int) -> PacketSet:
        """Members of ``aset`` that pass the test ``name = value``."""
        w, size = self._digit(name, value)
        return frozenset([i for i in aset if (i // w) % size == value])

    def modify(self, aset: PacketSet, name, value) -> PacketSet:
        """Image of ``aset`` under the field update ``name := value``, or,
        with a tuple of names and one of values, under each update in turn,
        so the last write of a field wins.  The fields and values are checked
        once, when their rewrite is first made: the projector on the fields
        and the valuation of the values (see ``projector``)."""
        try:
            hit = self._rewrites.get((name, value))
        except TypeError:  # an unhashable value: ``_digit`` says what is wrong
            hit = None
        # An equal value is not enough (True == 1.0 == 1): the same object,
        # or ints, as the checked one was.
        if hit is None or hit[2] is not value and not _ints(value):
            hit = self._rewrite(name, value)
        clear, c, _ = hit
        if len(aset) == 1:
            for i in aset:
                return frozenset((i - clear(i) + c,))
        return frozenset([i - clear(i) + c for i in aset])

    def _rewrite(self, name, value) -> tuple:
        """(projector, valuation, ``value``) of the updates of ``modify``,
        each checked in turn, kept under (``name``, ``value``)."""
        names, values = (name, value) if type(name) is tuple else ((name,), (value,))
        last = {}
        for f, v in zip(names, values, strict=True):
            last[f] = self._digit(f, v)[0] * v
        mask = sum([field_bit(f) for f in last])
        out = self._rewrites[name, value] = self.projector(mask), sum(last.values()), value
        return out

    # -- serialization --------------------------------------------------

    def set_to_records(self, aset: PacketSet) -> list[dict[str, int]]:
        return [self.record(i) for i in sorted(aset)]

    def set_from_records(self, records) -> PacketSet:
        if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
            raise UniverseError("a packet set is a list of packet records, "
                                f"each an object of field values, not {records!r:.80}")
        return frozenset(self.packet(**r) for r in records)

    @classmethod
    def from_json(cls, text: str) -> "PacketUniverse":
        try:
            obj = json.loads(text)
            decls = [FieldDecl(f["name"], int(f["size"])) for f in obj["fields"]]
        except (KeyError, TypeError, ValueError) as e:
            raise UniverseError(f"bad universe JSON: {e}") from None
        return cls(decls)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, PacketUniverse) and self.decls == other.decls

    def __hash__(self):
        return hash(self.decls)

    def __repr__(self):
        inner = ", ".join(f"{d.name}:{d.size}" for d in self.decls)
        return f"PacketUniverse({inner})"
