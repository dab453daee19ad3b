"""A ready-made multi-party fixture for demos and tests.

A service portal trusts a world federation to say who may act as a doping
control officer; the federation recognizes national agencies, which delegate
to labs and contractors; two field officers hold credentials at the leaves:

    portal.user            <- world-agency.nado.dco
    world-agency.nado      <- national-agency
    world-agency.nado      <- us-agency
    national-agency.dco    <- lab-one.dco
    us-agency.dco          <- us-agency.contractor.dco
    us-agency.contractor   <- lab-two                (relative 1h lifetime)
    lab-two.dco            <- lab-two.employee & lab-two.controller
    credentials: lab-one.dco -> alice; lab-two.employee, lab-two.controller -> bob

Alice reaches portal.user through the national branch with one credential;
bob needs both lab-two credentials through the contractor branch. The seeds
are fixed so every run reproduces byte-identical namespaces; lab-one's
namespace stays empty, and the national-agency public key sorts below the
us-agency key so record order (and therefore discovery order) is stable.
"""
from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .core import DAYS, HOURS, NamespaceKey
from .credential import Credential, export_json, issue_credential, store_credential
from .delegation import add_delegation, parse_expression
from .errors import DataDirNotEmpty
from .namestore import NamespaceStore
from .netsim import NameSystemBackend

# 2026-01-01T00:00:00Z, the fixture's default epoch for deterministic runs.
FIXTURE_EPOCH_US = 1_767_225_600_000_000

CONTRACTOR_LIFETIME_US = 1 * HOURS
CREDENTIAL_LIFETIME_US = 30 * DAYS

RESOURCE_ID = "dco-portal"

SEEDS = {
    "portal": "17574161bc1504894d1c67751f6975aeb1d2e9acb9632e7aa66def346f88d2ec",
    "world-agency": "6319688e77adf66f589fb33c1123e2087439915a4df0da1c64ff55e32a93880f",
    "national-agency": "87d8635bdc90e7fc6f580e9dc21f777e81d02a2c72a568d07f8cc6dd9997e109",
    "us-agency": "700902d197950881ae93aa95a32a08ea2202b40281d8bd3d271ccdb7685984f4",
    "lab-one": "1d3fd68dc3fd876a45a4367c3a5bd6cbd0a0535dc3ef6388cbf1167095e0c600",
    "lab-two": "d5f8ff00ec933be11d90f3ca42cf06692b861334e800757f1fa1dc111eb2b3a7",
    "bob": "8ede22ad2bb1f6ee5efe516291443e6ecfa45b4f2a272db794540a9444c21f94",
    "alice": "2930bd9224562e21f6aeb2f4ac0be3bfe6d5d6fe9793ee5597e23b891f5a3d02",
}

# Namespaces that publish delegations (bob, alice, and lab-one do not).
ISSUING = ("portal", "world-agency", "national-agency", "us-agency", "lab-two")


@dataclass
class Fixture:
    store: NamespaceStore
    keys: dict[str, NamespaceKey]
    bob_creds: list[Credential]
    alice_creds: list[Credential]
    policy_path: Path
    clock: int

    def key(self, name: str) -> NamespaceKey:
        return self.keys[name]

    def names_by_key(self) -> dict[bytes, str]:
        return {key.public_key: name for name, key in self.keys.items()}


def build_fixture(
    store: NamespaceStore,
    backend: NameSystemBackend,
    clock: int = FIXTURE_EPOCH_US,
) -> Fixture:
    """Create identities, delegations, and credentials, then publish."""
    keys = {
        name: store.create_identity(petname=name, seed=bytes.fromhex(seed))
        for name, seed in SEEDS.items()
    }
    petnames = {name: key.public_key for name, key in keys.items()}

    def delegate(issuer: str, attribute: str, text: str, **kwargs) -> None:
        add_delegation(
            store,
            keys[issuer],
            attribute,
            parse_expression(text, petnames),
            clock=clock,
            **kwargs,
        )

    delegate("portal", "user", "world-agency.nado.dco")
    delegate("world-agency", "nado", "national-agency")
    delegate("world-agency", "nado", "us-agency")
    delegate("national-agency", "dco", "lab-one.dco")
    delegate("us-agency", "dco", "us-agency.contractor.dco")
    delegate(
        "us-agency",
        "contractor",
        "lab-two",
        lifetime_us=CONTRACTOR_LIFETIME_US,
        relative=True,
    )
    delegate("lab-two", "dco", "lab-two.employee & lab-two.controller")

    def issue(issuer: str, attribute: str, holder: str) -> Credential:
        credential = issue_credential(
            keys[issuer],
            keys[holder].public_key,
            attribute,
            clock=clock,
            lifetime_us=CREDENTIAL_LIFETIME_US,
        )
        store_credential(store, keys[holder], credential)
        return credential

    alice_creds = [issue("lab-one", "dco", "alice")]
    bob_creds = [
        issue("lab-two", "employee", "bob"),
        issue("lab-two", "controller", "bob"),
    ]

    policy_path = store.root / "policy.json"
    policy_path.write_text(json.dumps({RESOURCE_ID: ["user"]}, indent=2) + "\n")
    for holder, creds in (("bob", bob_creds), ("alice", alice_creds)):
        path = store.root / f"{holder}-credentials.json"
        path.write_text(json.dumps([export_json(c) for c in creds], indent=2) + "\n")

    for name in ISSUING:
        store.publish(keys[name], backend, clock)

    return Fixture(
        store=store,
        keys=keys,
        bob_creds=bob_creds,
        alice_creds=alice_creds,
        policy_path=policy_path,
        clock=clock,
    )


def scenario_init(
    data_dir: Path,
    backend_factory: Callable[[], NameSystemBackend],
    clock: int = FIXTURE_EPOCH_US,
    force: bool = False,
) -> Fixture:
    """Initialize the fixture into a data directory.

    Refuses to touch a non-empty directory unless ``force`` is given. The
    backend is made only after the directory has been cleared, so a file
    backend rooted inside ``data_dir`` starts fresh.
    """
    data_dir = Path(data_dir)
    if data_dir.exists() and any(data_dir.iterdir()):
        if not force:
            raise DataDirNotEmpty(f"{data_dir} is not empty (use force to overwrite)")
        for child in data_dir.iterdir():
            if child.is_dir():
                shutil.rmtree(child)
            else:
                child.unlink()
    return build_fixture(NamespaceStore(data_dir), backend_factory(), clock=clock)
