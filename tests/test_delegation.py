"""Delegation expressions, their payload encoding, and the local store API."""
from __future__ import annotations

import struct

import pytest
from hypothesis import given, strategies as st

from abd.core import NamespaceKey, RecordType
from abd.delegation import (
    DelegationExpression,
    DelegationSetEntry,
    add_delegation,
    decode_attr_payload,
    encode_attr_payload,
    expression,
    list_delegations,
    parse_expression,
    remove_delegation,
    render_expression,
)
from abd.errors import DecodeError, DuplicateDelegation, InvalidLabel, ParseError, UnknownPetname
from abd.namestore import NamespaceStore

CLOCK = 1_700_000_000_000_000


def key(tag: bytes) -> NamespaceKey:
    return NamespaceKey.generate(seed=tag.ljust(32, b"\0"))


A = key(b"a")
B = key(b"b")
C = key(b"c")
PETNAMES = {"aa": A.public_key, "bb": B.public_key, "cc": C.public_key}
NAMES = {v: k for k, v in PETNAMES.items()}


# --- expression structure -----------------------------------------------------


def test_expression_rejects_empty():
    with pytest.raises(ValueError):
        DelegationExpression(entries=())


def test_entry_validates_subject_and_labels():
    with pytest.raises(ValueError):
        DelegationSetEntry(subject=b"short", trail=())
    with pytest.raises(InvalidLabel):
        DelegationSetEntry(subject=B.public_key, trail=("UPPER",))


# --- payload codec ------------------------------------------------------------


def test_payload_layout_hand_packed():
    # entry count u32 | subject 32B | trail count u16 | (len u16 | label)*
    expr = expression([(B.public_key, ["team", "lead"])])
    expected = (
        struct.pack(">I", 1)
        + B.public_key
        + struct.pack(">H", 2)
        + struct.pack(">H", 4)
        + b"team"
        + struct.pack(">H", 4)
        + b"lead"
    )
    assert encode_attr_payload(expr) == expected


def test_payload_round_trip_conjunction():
    expr = expression([(B.public_key, ["x"]), (C.public_key, ["y", "z"])])
    assert decode_attr_payload(encode_attr_payload(expr)) == expr


def test_decode_rejects_zero_entries():
    with pytest.raises(DecodeError):
        decode_attr_payload(struct.pack(">I", 0))


def test_decode_rejects_trailing_bytes():
    good = encode_attr_payload(expression([(B.public_key, [])]))
    with pytest.raises(DecodeError):
        decode_attr_payload(good + b"\x00")


def test_decode_rejects_truncation_everywhere():
    good = encode_attr_payload(expression([(B.public_key, ["team", "lead"])]))
    for cut in range(len(good)):
        with pytest.raises(DecodeError):
            decode_attr_payload(good[:cut])


def test_a_payload_decoded_twice_gives_equal_expressions():
    expr = expression([(B.public_key, ["x"]), (C.public_key, [])])
    payload = encode_attr_payload(expr)
    first = decode_attr_payload(payload)
    assert decode_attr_payload(bytes(payload)) == first == expr


def test_a_malformed_payload_fails_on_every_call():
    bad = encode_attr_payload(expression([(B.public_key, ["x"])]))[:-1]
    for _ in range(3):
        with pytest.raises(DecodeError):
            decode_attr_payload(bad)


@given(
    st.lists(
        st.tuples(
            st.sampled_from([A.public_key, B.public_key, C.public_key]),
            st.lists(st.from_regex(r"[a-z0-9_-]{1,16}", fullmatch=True), max_size=4),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_payload_round_trip_property(raw_entries):
    expr = expression(raw_entries)
    assert decode_attr_payload(encode_attr_payload(expr)) == expr


# --- text syntax ----------------------------------------------------------------


def test_parse_petname_and_hex_terms():
    expr = parse_expression(f"bb.team.lead & {C.public_key.hex()}", PETNAMES)
    assert expr.entries[0].subject == B.public_key
    assert expr.entries[0].trail == ("team", "lead")
    assert expr.entries[1].subject == C.public_key
    assert expr.entries[1].trail == ()


def test_parse_render_round_trip():
    for text in ("bb", "bb.lead", "bb.team.lead", "bb.lead & cc.audit"):
        expr = parse_expression(text, PETNAMES)
        assert render_expression(expr, NAMES) == text
        assert parse_expression(render_expression(expr, NAMES), PETNAMES) == expr


def test_parse_unknown_petname():
    with pytest.raises(UnknownPetname):
        parse_expression("nobody.lead", PETNAMES)


def test_parse_errors_carry_position():
    # Position points at the start of the offending term region, here the
    # character right after the '&'.
    with pytest.raises(ParseError) as exc:
        parse_expression("bb.lead & ", PETNAMES)
    assert exc.value.position == 9
    with pytest.raises(ParseError):
        parse_expression("bb.BAD", PETNAMES)
    with pytest.raises(ParseError):
        parse_expression("", PETNAMES)


# --- store operations ------------------------------------------------------------


def issuer_store(tmp_path):
    store = NamespaceStore(tmp_path / "home")
    issuer = store.create_identity(petname="issuer", seed=b"i".ljust(32, b"\0"))
    return store, issuer


def test_add_and_list(tmp_path):
    store, issuer = issuer_store(tmp_path)
    expr = expression([(B.public_key, ["lead"])])
    record = add_delegation(store, issuer, "boss", expr, clock=CLOCK)
    assert record.record_type == RecordType.ATTR
    rows = list_delegations(store, issuer.public_key)
    assert [(label, e) for label, e, _ in rows] == [("boss", expr)]


def test_multiple_records_under_one_label_are_alternatives(tmp_path):
    store, issuer = issuer_store(tmp_path)
    add_delegation(store, issuer, "boss", expression([(B.public_key, [])]), clock=CLOCK)
    add_delegation(store, issuer, "boss", expression([(C.public_key, [])]), clock=CLOCK)
    rows = list_delegations(store, issuer.public_key)
    assert len(rows) == 2
    assert {e.entries[0].subject for _, e, _ in rows} == {B.public_key, C.public_key}


def test_duplicate_delegation_rejected(tmp_path):
    store, issuer = issuer_store(tmp_path)
    expr = expression([(B.public_key, ["lead"])])
    add_delegation(store, issuer, "boss", expr, clock=CLOCK)
    with pytest.raises(DuplicateDelegation):
        add_delegation(store, issuer, "boss", expr, clock=CLOCK)


def test_remove_delegation(tmp_path):
    store, issuer = issuer_store(tmp_path)
    expr_b = expression([(B.public_key, [])])
    expr_c = expression([(C.public_key, [])])
    add_delegation(store, issuer, "boss", expr_b, clock=CLOCK)
    add_delegation(store, issuer, "boss", expr_c, clock=CLOCK)
    assert remove_delegation(store, issuer, "boss", expr_b)
    rows = list_delegations(store, issuer.public_key)
    assert [e for _, e, _ in rows] == [expr_c]
    assert not remove_delegation(store, issuer, "boss", expr_b)
    # Removing the last alternative leaves an explicit empty set for deletion
    # to propagate on the next publish.
    assert remove_delegation(store, issuer, "boss", expr_c)
    assert "boss" in store.load_namespace(issuer.public_key)


def test_relative_lifetime_delegation(tmp_path):
    store, issuer = issuer_store(tmp_path)
    record = add_delegation(
        store,
        issuer,
        "boss",
        expression([(B.public_key, [])]),
        clock=CLOCK,
        lifetime_us=3_600_000_000,
        relative=True,
    )
    assert record.relative
    assert record.expiration_us == 3_600_000_000
    assert not record.is_expired(10**18)
