#!/usr/bin/env python3
"""Walk the bundled scenario end to end and narrate every step.

Builds the demo world in a scratch directory, shows the delegation graph,
runs chain discovery with a full trace, stands up the verifier over HTTP,
plays the four scripted access requests, then revokes the contractor
delegation and shows the decision flip. Exits 1 when a decision differs from
the story: bob and alice granted, bob with his employee credential only and
a stranger denied, and after the revocation bob denied and alice granted.
"""
from __future__ import annotations

import argparse
import tempfile
import threading
from pathlib import Path

from abd import scenario
from abd.authz import DENY, GRANT, PolicyStore, VerifierService, make_server, request_access
from abd.core import NamespaceKey
from abd.delegation import (
    list_delegations,
    parse_expression,
    remove_delegation,
    render_expression,
)
from abd.discovery import DiscoveryTrace, discover
from abd.namestore import NamespaceStore
from abd.netsim import FileBackend


def heading(text: str) -> None:
    print(f"\n=== {text} ===")


def run_demo(home: Path) -> int:
    # The name system `abd serve` uses: one signed file per record set.
    backend = FileBackend(home / "backend")
    store = NamespaceStore(home)
    fixture = scenario.build_fixture(store, backend, clock=scenario.FIXTURE_EPOCH_US)
    names = fixture.names_by_key()

    heading("identities")
    for name, hexkey in store.identities():
        print(f"  {name:<16} {hexkey}")

    heading("delegations (issuer-side, published)")
    for issuer in scenario.ISSUING:
        key = fixture.key(issuer)
        for label, expression, record in list_delegations(store, key.public_key):
            suffix = " [relative]" if record.relative else ""
            print(f"  {issuer}.{label} <- {render_expression(expression, names)}{suffix}")

    heading("chain discovery for bob (portal.user)")
    trace = DiscoveryTrace()
    chain = discover(
        issuer_pub=fixture.key("portal").public_key,
        attribute="user",
        subject_pub=fixture.key("bob").public_key,
        subject_creds=fixture.bob_creds,
        backend=backend,
        clock=fixture.clock,
        trace=trace,
    )
    for line in trace.render(names):
        print(f"  {line}")
    assert chain is not None
    print(f"  backend lookups: {backend.stats().lookups}")

    heading("decisions over HTTP")
    service = VerifierService(
        verifier_pub=fixture.key("portal").public_key,
        policies=PolicyStore.from_file(fixture.policy_path),
        backend=backend,
        clock_fn=lambda: fixture.clock,
    )
    server = make_server(service, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    endpoint = f"http://127.0.0.1:{server.server_address[1]}"
    print(f"  verifier at {endpoint}")

    employee_only = [c for c in fixture.bob_creds if c.attribute == "employee"]
    stranger = NamespaceKey.generate(seed=b"\x5a" * 32)
    requests = [
        ("bob (employee + controller)", fixture.key("bob"), fixture.bob_creds),
        ("alice (lab-one dco)", fixture.key("alice"), fixture.alice_creds),
        ("bob with employee only", fixture.key("bob"), employee_only),
        ("fresh keypair, no credentials", stranger, []),
    ]

    def play() -> list[str]:
        decisions = []
        for tag, subject, creds in requests:
            outcome = request_access(
                endpoint, scenario.RESOURCE_ID, subject, creds, backend, fixture.clock
            )
            print(f"  {tag:<34} -> {outcome.decision}")
            for reason in outcome.reasons:
                print(f"      reason: {reason}")
            for summary in outcome.chain_summaries:
                print(f"      chain:  {summary}")
            decisions.append(outcome.decision)
        return decisions

    before = play()

    heading("revoking us-agency.contractor <- lab-two")
    remove_delegation(
        store,
        fixture.key("us-agency"),
        "contractor",
        parse_expression("lab-two", store.petname_table()),
    )
    store.publish(fixture.key("us-agency"), backend, fixture.clock)
    print("  removed and republished; bob's chain now has a hole")
    after = play()

    server.shutdown()
    server.server_close()
    expected = ([GRANT, GRANT, DENY, DENY], [DENY, GRANT, DENY, DENY])
    if (before, after) != expected:
        print(f"\nunexpected decisions: {before} then {after}, expected {list(expected)}")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--home", type=Path, default=None,
        help="data directory (default: a temporary one)",
    )
    args = parser.parse_args()
    if args.home is not None:
        return run_demo(args.home)
    with tempfile.TemporaryDirectory() as tmp:
        return run_demo(Path(tmp) / "home")


if __name__ == "__main__":
    raise SystemExit(main())
