#!/usr/bin/env python3
"""Measure revocation lag and failure behaviour on the simulated DHT.

Two experiments, reported as JSON lines on stdout:

revocation-lag
    Publish the scenario, warm every node's response cache, revoke the
    contractor delegation, then probe the authorization decision on a fixed
    interval. For each configured cache TTL the run records when the stale
    grant disappears.

replica-failures
    With cold caches, fail k of the replicas holding the root label and
    observe whether discovery succeeds, denies, or reports an outage.

The script exits 1 when a revocation did not show within one cache TTL,
or when a replica-failure run denied: losing replicas may cost an outage
(``error``), never a wrong answer.

Example:
    python scripts/dht_staleness.py --cache-ttl-s 30 60 120 --probe-interval-s 10
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from abd import scenario
from abd.delegation import parse_expression, remove_delegation
from abd.discovery import discover
from abd.errors import BackendError
from abd.namestore import NamespaceStore
from abd.netsim import DhtConfig, SimulatedDht, derive_query_key

SECOND = 1_000_000


@dataclass
class Args:
    cache_ttl_s: list[int]
    probe_interval_s: int
    node_count: int
    replicas: int
    seed: int


def emit(**payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def build_world(tmp: Path, tag: str, config: DhtConfig):
    dht = SimulatedDht(config)
    dht.now_us = scenario.FIXTURE_EPOCH_US
    store = NamespaceStore(tmp / tag)
    fixture = scenario.build_fixture(store, dht, clock=dht.now_us)
    return dht, store, fixture


def bob_outcome(fixture, dht) -> str:
    try:
        chain = discover(
            issuer_pub=fixture.key("portal").public_key,
            attribute="user",
            subject_pub=fixture.key("bob").public_key,
            subject_creds=fixture.bob_creds,
            backend=dht,
            clock=dht.now_us,
        )
    except BackendError:
        return "error"
    return "grant" if chain is not None else "deny"


def revocation_lag(tmp: Path, args: Args) -> list[str]:
    """Run the experiment; return a problem line per TTL that lagged."""
    problems = []
    for ttl_s in args.cache_ttl_s:
        config = DhtConfig(
            node_count=args.node_count,
            replication_factor=args.replicas,
            cache_ttl_us=ttl_s * SECOND,
            rng_seed=args.seed,
        )
        dht, store, fixture = build_world(tmp, f"lag-{ttl_s}", config)
        # Warm the response cache of every node for every published label.
        for name in scenario.ISSUING:
            namespace = fixture.key(name).public_key
            for label in store.load_namespace(namespace):
                key = derive_query_key(namespace, label)
                for node in range(config.node_count):
                    dht.get(key, dht.now_us, entry_node=node)

        remove_delegation(
            store,
            fixture.key("us-agency"),
            "contractor",
            parse_expression("lab-two", store.petname_table()),
        )
        store.publish(fixture.key("us-agency"), dht, dht.now_us)

        deny_after_s = None
        elapsed_s = 0
        while elapsed_s <= 2 * ttl_s:
            outcome = bob_outcome(fixture, dht)
            emit(
                experiment="revocation-lag",
                cache_ttl_s=ttl_s,
                t_after_removal_s=elapsed_s,
                outcome=outcome,
                cache_hits=dht.stats().cache_hits,
                messages=dht.stats().messages,
            )
            if outcome == "deny" and deny_after_s is None:
                deny_after_s = elapsed_s
                break
            dht.advance_clock(args.probe_interval_s * SECOND)
            elapsed_s += args.probe_interval_s
        within_one_ttl = deny_after_s is not None and deny_after_s <= ttl_s
        emit(
            experiment="revocation-lag",
            cache_ttl_s=ttl_s,
            summary=True,
            deny_after_s=deny_after_s,
            within_one_ttl=within_one_ttl,
        )
        if not within_one_ttl:
            problems.append(f"revocation not seen within one {ttl_s} s TTL")
    return problems


def replica_failures(tmp: Path, args: Args) -> list[str]:
    """Run the experiment; return a problem line per run that denied."""
    problems = []
    for failed in range(args.replicas + 1):
        config = DhtConfig(
            node_count=args.node_count,
            replication_factor=args.replicas,
            cache_ttl_us=60 * SECOND,
            rng_seed=args.seed + failed,
        )
        dht, store, fixture = build_world(tmp, f"fail-{failed}", config)
        key = derive_query_key(fixture.key("portal").public_key, "user")
        dht.fail_nodes(dht.replica_nodes(key)[:failed])
        outcome = bob_outcome(fixture, dht)
        emit(
            experiment="replica-failures",
            failed_replicas=failed,
            outcome=outcome,
            max_hops=math.ceil(math.log2(config.node_count)),
            messages=dht.stats().messages,
        )
        if outcome == "deny":
            problems.append(f"deny with {failed} failed replica(s)")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--cache-ttl-s", type=int, nargs="+", default=[30, 60, 120])
    parser.add_argument("--probe-interval-s", type=int, default=10)
    parser.add_argument("--node-count", type=int, default=16)
    parser.add_argument("--replicas", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = Args(**vars(parser.parse_args()))
    with tempfile.TemporaryDirectory() as tmp:
        problems = revocation_lag(Path(tmp), args) + replica_failures(Path(tmp), args)
    for problem in problems:
        print(f"dht_staleness: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
