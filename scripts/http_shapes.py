#!/usr/bin/env python3
"""Measure what a decision over HTTP costs for several shapes of traffic.

The verifier and one client thread run in this process on the bundled
scenario, over loopback; a warm-up first finds every chain. One JSON line
per shape reports, per decision: CPU microseconds of the whole process
(client and verifier together), CPU microseconds the verifier spends in
``authorize_payload``, POSTs, and Ed25519 response signatures and verifies.

kept      three subjects take turns, back to back, on one kept connection
one-shot  each decision on a fresh connection, closed after it, as
          ``abd request`` decides
idle      one subject, each decision after a pause longer than the
          verifier's read timeout, so it finds its kept connection closed
many      twenty subjects take turns on one kept connection

To compare two revisions, run this script with each one's ``src`` first on
``PYTHONPATH``, e.g. from a ``git archive`` of each::

    PYTHONPATH=src python3 scripts/http_shapes.py --decisions 300
"""
from __future__ import annotations

import argparse
import collections
import json
import tempfile
import threading
import time
from pathlib import Path

from abd import authz, scenario
from abd.core import NamespaceKey
from abd.credential import issue_credential
from abd.namestore import NamespaceStore
from abd.netsim import DhtConfig, SimulatedDht

CLOCK = scenario.FIXTURE_EPOCH_US
IDLE_TIMEOUT_S = 0.05  # the verifier's read timeout in the idle shape
MANY_SUBJECTS = 20
SHAPES = ("kept", "one-shot", "idle", "many")


def measure(shape: str, decisions: int, root: Path) -> dict:
    backend = SimulatedDht(DhtConfig(node_count=1, replication_factor=1, cache_ttl_us=0))
    fixture = scenario.build_fixture(NamespaceStore(root / shape), backend, clock=CLOCK)
    subjects = [(fixture.key("bob"), fixture.bob_creds), (fixture.key("alice"), fixture.alice_creds)]
    extra = MANY_SUBJECTS - len(subjects) if shape == "many" else 1
    for index in range(extra):
        key = NamespaceKey.generate(seed=bytes([index + 1]) * 32)
        credential = issue_credential(
            fixture.key("lab-one"), key.public_key, "dco", clock=CLOCK,
            lifetime_us=scenario.CREDENTIAL_LIFETIME_US,
        )
        subjects.append((key, [credential]))
    if shape == "idle":
        subjects = subjects[:1]
    service = authz.VerifierService(
        verifier_pub=fixture.key("portal").public_key,
        policies=authz.PolicyStore.from_file(fixture.policy_path),
        backend=backend,
        clock_fn=lambda: CLOCK,
    )
    counts = collections.Counter()
    authorize_payload, sign, verify = service.authorize_payload, NamespaceKey.sign, authz.verify_signature

    def counting_authorize_payload(*args):
        started = time.thread_time()
        try:
            return authorize_payload(*args)
        finally:
            counts["posts"] += 1
            counts["verifier_s"] += time.thread_time() - started

    def counting_sign(self, message):
        counts["signs"] += 1
        return sign(self, message)

    def counting_verify(*args, **kwargs):
        counts["verifies"] += 1
        return verify(*args, **kwargs)

    service.authorize_payload = counting_authorize_payload
    read_timeout = authz.READ_TIMEOUT_S
    if shape == "idle":
        authz.READ_TIMEOUT_S = IDLE_TIMEOUT_S  # read when the server is made
    httpd = authz.make_server(service, "127.0.0.1", 0)
    authz.READ_TIMEOUT_S = read_timeout
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    endpoint = f"http://127.0.0.1:{httpd.server_address[1]}"

    def decide(index: int) -> None:
        subject, creds = subjects[index % len(subjects)]
        outcome = authz.request_access(endpoint, scenario.RESOURCE_ID, subject, creds, backend, CLOCK)
        if outcome.decision != authz.GRANT:
            raise SystemExit(f"{shape}: expected a grant, got {outcome}")
        if shape == "one-shot":
            authz.close_connection()

    try:
        for index in range(2 * len(subjects)):
            decide(index)
        counts.clear()
        NamespaceKey.sign, authz.verify_signature = counting_sign, counting_verify
        cpu_s = 0.0
        for index in range(decisions):
            if shape == "idle":
                time.sleep(2 * IDLE_TIMEOUT_S)
            started = time.process_time()
            decide(index)
            cpu_s += time.process_time() - started
    finally:
        NamespaceKey.sign, authz.verify_signature = sign, verify
        authz.close_connection()
        httpd.shutdown()
        httpd.server_close()
    return {
        "shape": shape,
        "decisions": decisions,
        "cpu_us": round(cpu_s / decisions * 1e6, 1),
        "verifier_us": round(counts["verifier_s"] / decisions * 1e6, 1),
        "posts": counts["posts"] / decisions,
        "signs": counts["signs"] / decisions,
        "verifies": counts["verifies"] / decisions,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shapes", nargs="+", choices=SHAPES, default=list(SHAPES))
    parser.add_argument("--decisions", type=int, default=300, help="timed decisions per shape")
    parser.add_argument("--idle-decisions", type=int, default=30, help="timed decisions in the idle shape")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        for shape in args.shapes:
            count = args.idle_decisions if shape == "idle" else args.decisions
            print(json.dumps(measure(shape, count, Path(scratch))), flush=True)


if __name__ == "__main__":
    main()
