import itertools
import random

import pytest
from hypothesis import given, strategies as st

from pnk.errors import UniverseError
from pnk.universe import FieldDecl, PacketUniverse, field_bit


def make(fg=(2, 2)):
    return PacketUniverse([FieldDecl("f", fg[0]), FieldDecl("g", fg[1])])


def test_mixed_radix_origin():
    u = make()
    assert u.encode((0, 0)) == 0


def test_first_field_least_significant():
    u = make()
    assert u.encode((1, 0)) == 1
    assert u.encode((0, 1)) == 2


def test_packet_count():
    u = PacketUniverse([FieldDecl("a", 3), FieldDecl("b", 5), FieldDecl("c", 2)])
    assert u.packet_count == 30


@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_decode_encode_roundtrip(fs, gs, data):
    u = make((fs, gs))
    idx = data.draw(st.integers(0, u.packet_count - 1))
    assert u.encode(u.decode(idx)) == idx


def test_encode_rejects_out_of_range():
    u = make()
    with pytest.raises(UniverseError):
        u.encode((2, 0))
    with pytest.raises(UniverseError):
        u.check_value("f", 2)


def test_duplicate_and_empty_fields_rejected():
    with pytest.raises(UniverseError):
        PacketUniverse([FieldDecl("f", 2), FieldDecl("f", 3)])
    with pytest.raises(UniverseError):
        PacketUniverse([])
    with pytest.raises(UniverseError):
        PacketUniverse([FieldDecl("f", 0)])


def test_a_universe_size_is_a_plain_number():
    u = PacketUniverse([FieldDecl("f", 1 << 40), FieldDecl("g", 1 << 30), FieldDecl("h", 2)])
    assert u.packet_count == 1 << 71
    top = u.packet(f=(1 << 40) - 1, g=5, h=1)
    assert top == (1 << 70) + 5 * (1 << 40) + (1 << 40) - 1
    assert u.decode(top) == ((1 << 40) - 1, 5, 1)
    assert [u.field_value(top, f) for f in "fgh"] == [(1 << 40) - 1, 5, 1]


def test_field_lookups_raise_universe_errors():
    u = make((3, 2))
    for lookup in (lambda: u.field_value(0, "h"), lambda: u.field("h"),
                   lambda: u.reader("h"), lambda: u.packet(f=0, g=0, h=0)):
        with pytest.raises(UniverseError, match="h"):
            lookup()
    assert u.field("f") == FieldDecl("f", 3) and u.has_field("g") and not u.has_field("h")


@pytest.mark.parametrize("records", [{"f": 0, "g": 0}, [1], 5, [{"f": "0", "g": 0}],
                                     [{"f": True, "g": 0}], [{"f": 1.0, "g": 0}]])
def test_malformed_records_raise_universe_errors(records):
    with pytest.raises(UniverseError):
        make().set_from_records(records)


def test_projectors_are_the_field_by_field_valuations():
    # A projector reads each run of fields adjacent in the mixed radix as
    # one digit: it must give the sum of the fields' own valuations, for
    # every mask of the fields, with a field of size 1 inside a run, also
    # in a universe that declares its fields in the reverse of the order
    # their bits were made.  (The fields are this test's own, so their
    # bits are made here, in order.)
    names = [f"proj_{n}" for n in "abcdef"]
    bits = [field_bit(n) for n in names]
    assert bits == sorted(bits)
    decls = [FieldDecl(n, s) for n, s in zip(names, (3, 2, 5, 1, 4, 2))]
    rng = random.Random(5)
    for u in (PacketUniverse(decls), PacketUniverse(decls[::-1])):
        packets = [rng.randrange(u.packet_count) for _ in range(40)] + [0, u.packet_count - 1]
        for r in range(len(u.decls) + 1):
            for chosen in itertools.combinations(names, r):
                read = u.projector(sum([field_bit(n) for n in chosen]))
                for i in packets:
                    want = u.encode(v if d.name in chosen else 0
                                    for d, v in zip(u.decls, u.decode(i)))
                    assert read(i) == want, (chosen, u.record(i))
                assert u.projector(sum([field_bit(n) for n in chosen])) is read


def test_modify_empty_is_empty():
    u = make()
    assert u.modify(frozenset(), "f", 1) == frozenset()


def test_modify_collapses():
    u = make()
    a = frozenset({u.packet(f=0, g=0), u.packet(f=1, g=0)})
    assert u.modify(a, "f", 1) == frozenset({u.packet(f=1, g=0)})


def test_modify_lands_in_test_set():
    u = make((3, 2))
    every = u.all_packets()
    for v in range(3):
        moved = u.modify(every, "f", v)
        assert u.select(moved, "f", v) == moved


def test_a_rewrite_of_several_fields_is_their_updates_in_turn():
    # ``modify`` over a tuple of fields equals one single-field ``modify``
    # per field, chained in order, on random sets; a field that repeats
    # takes its last value.
    u = PacketUniverse([FieldDecl("f", 3), FieldDecl("g", 2), FieldDecl("h", 4),
                        FieldDecl("k", 2)])
    rng = random.Random(5)
    names = [d.name for d in u.decls]
    for _ in range(200):
        fields = tuple(rng.choice(names) for _ in range(rng.randrange(1, 6)))
        values = tuple(rng.randrange(u.field(f).size) for f in fields)
        a = frozenset(i for i in range(u.packet_count) if rng.random() < 0.3)
        for x in (a, frozenset(list(a)[:1])):
            chained = x
            for f, v in zip(fields, values):
                chained = u.modify(chained, f, v)
            assert u.modify(x, fields, values) == chained, (fields, values)
    x = frozenset({u.packet(f=0, g=0, h=0, k=0), u.packet(f=2, g=1, h=3, k=1)})
    assert u.modify(x, ("h", "g", "h"), (1, 1, 2)) == frozenset(
        {u.packet(f=0, g=1, h=2, k=0), u.packet(f=2, g=1, h=2, k=1)})


@pytest.mark.parametrize("name, value, message", [
    ("x", 1, "unknown field 'x'"),
    ("f", 2, r"value 2 out of range for field 'f' \(size 2\)"),
    ("f", True, "value True of field 'f' is not an integer"),
    ("f", 1.0, "value 1.0 of field 'f' is not an integer"),
])
def test_modify_checks_each_field_and_value(name, value, message):
    # A bad field or value raises on every call, whatever set it is asked
    # for, also once an equal good one (1 == True == 1.0) made its rewrite,
    # and in a rewrite of several fields, the first bad one in order does.
    u = make()
    a = frozenset({u.packet(f=0, g=1)})
    assert u.modify(a, "f", 1) == u.modify(a, ("g", "f"), (1, 1)) == frozenset({3})
    for _ in range(2):
        for x in (a, frozenset()):
            with pytest.raises(UniverseError, match=f"^{message}$"):
                u.modify(x, name, value)
            with pytest.raises(UniverseError, match=f"^{message}$"):
                u.modify(x, ("g", name, "f", "nowhere"), (0, value, 1, 9))


def test_select():
    u = make()
    assert u.select(u.all_packets(), "f", 1) == frozenset(
        {u.packet(f=1, g=0), u.packet(f=1, g=1)})
    # On a proper subset only its own members can pass.
    a = frozenset({u.packet(f=0, g=0), u.packet(f=1, g=1)})
    assert u.select(a, "f", 1) == frozenset({u.packet(f=1, g=1)})
    assert u.select(a, "g", 1) == frozenset({u.packet(f=1, g=1)})
    assert u.select(frozenset(), "f", 0) == frozenset()
    with pytest.raises(UniverseError):
        u.select(a, "f", 2)


def test_universe_json_roundtrip():
    u = PacketUniverse([FieldDecl("sw", 8), FieldDecl("pt", 3)])
    text = '{"fields": [{"name": "sw", "size": 8}, {"name": "pt", "size": 3}]}'
    assert PacketUniverse.from_json(text) == u


def test_set_records_roundtrip():
    u = make((3, 2))
    s = frozenset({0, 3, 5})
    assert u.set_from_records(u.set_to_records(s)) == s
    # Serialized sets are sorted.
    recs = u.set_to_records(s)
    assert [u.packet(**r) for r in recs] == sorted(s)
