"""Seeded federations shaped like ``abd.scenario``, and the model that
predicts every decision over them.

    portal.user          <- world.nado.dco
    world.nado           <- agency                (every agency but cycle tails)
    agency.dco           <- lab.dco               (direct agencies, one record per lab)
    agency.dco           <- agency.contractor.dco (contractor agencies)
    agency.contractor    <- lab                   (one record per lab)
    lab.dco              <- lab.employee & lab.controller   (conjunctive labs)
    head.dco <- tail1.dco, tail1.dco <- tail2.dco, tail2.dco <- head.dco  (cycles)

Officers hold ``lab.dco``, or ``lab.employee`` and ``lab.controller`` for a
conjunctive lab; one officer per conjunctive lab holds only ``employee``.
Strangers hold ``dco`` from a lab that no agency recognises.

Denies must exhaust the graph and cost ten times a grant, so the decision
stream has a fixed deny quota per block rather than a deny probability.

The shape is stratified so that two seeds give worlds that cost the same to
search: discovery expands agencies in key order, so a grant's cost grows with
its agency's position in that order. Agency roles are therefore assigned by
sorted position (a seeded phase picks which third are contractors), and the
Zipf ranks of officers walk the positions in a fixed van der Corput order.
The seed still picks every key, which labs are conjunctive, which officer of
an agency takes each rank, the DHT placement and the operation stream.
"""
from __future__ import annotations

import hashlib
import random
from bisect import bisect
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Iterator, Optional

from abd.core import DAYS, NamespaceKey
from abd.credential import Credential, issue_credential
from abd.delegation import (
    DelegationExpression,
    add_delegation,
    expression,
    list_delegations,
    remove_delegation,
)
from abd.discovery import oracle_entailed
from abd.namestore import NamespaceStore
from abd.netsim import NameSystemBackend

LIFETIME_US = 30 * DAYS
POLICY_ATTRIBUTE = "user"
DECOY_LABEL = "auditor"


@dataclass(frozen=True)
class Shape:
    agencies: int
    labs_per_agency: int
    officers_per_lab: int
    contractor_every: int  # every n-th agency in key order routes through a contractor trail
    conjunctive_share: float  # share of labs that require employee & controller
    cycles: int  # 3-agency recognition cycles; only the head is in world.nado
    strangers: int
    # Of every BLOCK decisions, this many come from strangers and this many
    # from officers holding half a conjunction; the rest are Zipf picks.
    strangers_per_block: int
    halves_per_block: int
    zipf_s: float


BLOCK = 20


@dataclass
class Lab:
    index: int
    agency: int
    key: NamespaceKey
    conjunctive: bool
    recognised: bool = True
    # Changes not yet older than a cache TTL, as (time, recognised after),
    # oldest first; ``settled`` is the state before the first of them.
    history: deque = field(default_factory=deque)
    settled: bool = True
    changed_us: int = 0


@dataclass
class Agency:
    index: int
    key: NamespaceKey
    contractor: bool
    labs: list[int] = field(default_factory=list)
    decoy: bool = False


@dataclass(frozen=True)
class Subject:
    key: NamespaceKey
    lab: Optional[int]  # None for strangers
    creds: tuple[Credential, ...]
    full: bool  # holds every credential its lab requires
    kind: str  # direct | contractor | conjunctive | half | cycle | stranger


def _key(seed: int, name: str) -> NamespaceKey:
    return NamespaceKey.generate(hashlib.sha256(b"abd-bench:%d:%s" % (seed, name.encode())).digest())


def spread_order(count: int) -> list[int]:
    """Positions 0..count-1, each next one far from those before it.

    Follows the base-2 van der Corput sequence, shifted to start mid-range.
    """
    def radical_inverse(i: int) -> float:
        out, base = 0.0, 0.5
        while i:
            out += base * (i & 1)
            i >>= 1
            base /= 2
        return out

    order: list[int] = []
    i = 0
    while len(order) < count:
        position = int(((radical_inverse(i) + 0.5) % 1.0) * count)
        if position not in order:
            order.append(position)
        i += 1
    return order


class Federation:
    """Builds a federation into a store and publishes it to a backend."""

    def __init__(self, shape: Shape, seed: int, root: Path, backend: NameSystemBackend, clock: int):
        self.shape = shape
        self.backend = backend
        self.store = NamespaceStore(root)
        rng = random.Random(seed)
        store = self.store

        def identity(name: str) -> NamespaceKey:
            key = _key(seed, name)
            return store.create_identity(seed=key.private_key)

        self.portal = identity("portal")
        self.world = identity("world")
        keys = sorted((identity(f"agency-{i}") for i in range(shape.agencies)), key=lambda k: k.public_key)
        phase = rng.randrange(shape.contractor_every)
        self.agencies = [
            Agency(i, key, contractor=(i % shape.contractor_every == phase)) for i, key in enumerate(keys)
        ]
        lab_total = shape.agencies * shape.labs_per_agency
        conjunctive = set(rng.sample(range(lab_total), round(lab_total * shape.conjunctive_share)))
        self.labs: list[Lab] = []
        for agency in self.agencies:
            for _ in range(shape.labs_per_agency):
                index = len(self.labs)
                key = identity(f"lab-{index}")
                self.labs.append(Lab(index, agency.index, key, index in conjunctive))
                agency.labs.append(index)

        # Cycle heads sit at evenly spaced positions; their two tails follow them.
        stride = shape.agencies // max(shape.cycles, 1)
        self.cycles = [
            tuple((c * stride + offset) % shape.agencies for offset in (stride // 2, stride // 2 + 1, stride // 2 + 2))
            for c in range(shape.cycles)
        ]
        tails = {i for cycle in self.cycles for i in cycle[1:]}

        def delegate(issuer: NamespaceKey, attribute: str, expr: DelegationExpression) -> None:
            add_delegation(store, issuer, attribute, expr, clock=clock, lifetime_us=LIFETIME_US)

        delegate(self.portal, POLICY_ATTRIBUTE, expression([(self.world.public_key, ("nado", "dco"))]))
        for agency in self.agencies:
            if agency.index not in tails:
                delegate(self.world, "nado", expression([(agency.key.public_key, ())]))
            if agency.contractor:
                delegate(agency.key, "dco", expression([(agency.key.public_key, ("contractor", "dco"))]))
            for lab_index in agency.labs:
                attribute, expr = self.lab_delegation(self.labs[lab_index])
                delegate(agency.key, attribute, expr)
        for cycle in self.cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                delegate(self.agencies[a].key, "dco", expression([(self.agencies[b].key.public_key, ("dco",))]))
        for lab in self.labs:
            if lab.conjunctive:
                delegate(
                    lab.key,
                    "dco",
                    expression([(lab.key.public_key, ("employee",)), (lab.key.public_key, ("controller",))]),
                )

        def grant(issuer: NamespaceKey, holder: NamespaceKey, attribute: str) -> Credential:
            return issue_credential(issuer, holder.public_key, attribute, clock=clock, lifetime_us=LIFETIME_US)

        self.officers: list[Subject] = []
        for lab in self.labs:
            agency = self.agencies[lab.agency]
            for n in range(shape.officers_per_lab):
                key = _key(seed, f"officer-{lab.index}-{n}")
                if lab.conjunctive:
                    half = n == 0
                    creds = [grant(lab.key, key, "employee")]
                    if not half:
                        creds.append(grant(lab.key, key, "controller"))
                    kind = "half" if half else "conjunctive"
                else:
                    half = False
                    creds = [grant(lab.key, key, "dco")]
                    kind = "contractor" if agency.contractor else "direct"
                if agency.index in tails and not half:
                    kind = "cycle"
                self.officers.append(Subject(key, lab.index, tuple(creds), not half, kind))
        rogue = _key(seed, "rogue-lab")
        self.strangers = [
            Subject(key, None, (grant(rogue, key, "dco"),), False, "stranger")
            for key in (_key(seed, f"stranger-{i}") for i in range(shape.strangers))
        ]

        for key in self.issuers():
            self.publish(key, clock)

        # Zipf ranks walk agency positions in van der Corput order; the seed
        # picks which officer of the agency takes each rank.
        self.halves = [o for o in self.officers if not o.full]
        full = [o for o in self.officers if o.full]
        by_agency = {a.index: [o for o in full if self.labs[o.lab].agency == a.index] for a in self.agencies}
        for officers in by_agency.values():
            rng.shuffle(officers)
        positions = spread_order(shape.agencies)
        self.ranked: list[Subject] = []
        while len(self.ranked) < len(full):
            for position in positions:
                if by_agency[position]:
                    self.ranked.append(by_agency[position].pop())
        weights = [1.0 / (rank + 1) ** shape.zipf_s for rank in range(len(self.ranked))]
        self._cumulative = list(accumulate(weights))

    # --- structure ----------------------------------------------------------

    def issuers(self) -> list[NamespaceKey]:
        labs = [lab.key for lab in self.labs if lab.conjunctive]
        return [self.portal, self.world] + [a.key for a in self.agencies] + labs

    def lab_delegation(self, lab: Lab) -> tuple[str, DelegationExpression]:
        """The record through which ``lab``'s agency recognises it."""
        if self.agencies[lab.agency].contractor:
            return "contractor", expression([(lab.key.public_key, ())])
        return "dco", expression([(lab.key.public_key, ("dco",))])

    def delegations(self) -> list[tuple[bytes, str, DelegationExpression]]:
        """Every published delegation, as the oracle takes them."""
        return [
            (key.public_key, label, expr)
            for key in self.issuers()
            for label, expr, _ in list_delegations(self.store, key.public_key)
        ]

    # --- operations ---------------------------------------------------------

    def publish(self, issuer: NamespaceKey, clock: int) -> bool:
        return self.store.publish(issuer, self.backend, clock).ok

    def set_recognised(self, lab: Lab, recognised: bool, clock: int) -> bool:
        """Revoke or restore ``lab`` at its agency and publish: one issuer-side change."""
        agency = self.agencies[lab.agency]
        attribute, expr = self.lab_delegation(lab)
        if recognised:
            add_delegation(self.store, agency.key, attribute, expr, clock=clock, lifetime_us=LIFETIME_US)
        else:
            remove_delegation(self.store, agency.key, attribute, expr)
        lab.history.append((clock, recognised))
        lab.recognised = recognised
        return self.publish(agency.key, clock)

    def toggle_decoy(self, agency: Agency, clock: int) -> bool:
        """Add or remove a delegation under a label no policy reaches, and publish."""
        expr = expression([(self.world.public_key, ())])
        if agency.decoy:
            remove_delegation(self.store, agency.key, DECOY_LABEL, expr)
        else:
            add_delegation(self.store, agency.key, DECOY_LABEL, expr, clock=clock, lifetime_us=LIFETIME_US)
        agency.decoy = not agency.decoy
        return self.publish(agency.key, clock)

    def subjects(self, rng: random.Random) -> Iterator[Subject]:
        """Endless seeded stream of the subjects that ask for decisions."""
        shape = self.shape
        block = ["stranger"] * shape.strangers_per_block + ["half"] * shape.halves_per_block
        block += ["ranked"] * (BLOCK - len(block))
        while True:
            rng.shuffle(block)
            for kind in block:
                if kind == "stranger":
                    yield rng.choice(self.strangers)
                elif kind == "half":
                    yield rng.choice(self.halves)
                else:
                    yield self.ranked[bisect(self._cumulative, rng.random() * self._cumulative[-1])]

    # --- model ----------------------------------------------------------------

    def expected(self, subject: Subject, clock: int, ttl_us: int) -> set[bool]:
        """Grant outcomes the published state allows at ``clock``.

        A response cache may serve any version of a record set that was
        current within the last ``ttl_us``, so a lab changed inside that
        window may be seen either way; afterwards only its current state.
        """
        if not subject.full:
            return {False}
        lab = self.labs[subject.lab]
        horizon = clock - ttl_us
        while lab.history and lab.history[0][0] <= horizon:
            lab.settled = lab.history.popleft()[1]
        return {lab.settled, *(recognised for _, recognised in lab.history)}

    def cross_check(self, rng: random.Random, per_kind: int = 4) -> list[str]:
        """Compare the model with ``oracle_entailed`` on a sample of subjects."""
        delegations = self.delegations()
        by_kind: dict[str, list[Subject]] = {}
        for subject in self.officers + self.strangers:
            by_kind.setdefault(subject.kind, []).append(subject)
        problems = []
        for kind in sorted(by_kind):
            for subject in rng.sample(by_kind[kind], min(per_kind, len(by_kind[kind]))):
                entailed = oracle_entailed(
                    delegations, subject.creds, self.portal.public_key, POLICY_ATTRIBUTE, subject.key.public_key
                )
                model = subject.full and self.labs[subject.lab].recognised
                if entailed != model:
                    problems.append(f"{kind} subject {subject.key.hex[:16]}: model {model}, oracle {entailed}")
        return problems
