"""Local persistent store for namespaces, keys, and petnames.

Layout under the data directory:

    keys/<hexpub>.seed          private key seed, hex
    petnames.json               local petname -> hex public key
    names/<hexpub>/<label>.rrset      canonical record set bytes
    credentials/<hexpub>.json   the credentials a key holds, a JSON list

Every file is replaced whole, so a crash mid-write leaves the old file.
Record sets are written in canonical serialization and are read again from
disk at every read, through ``netsim.read_admitted``, the reader the file
backend uses too; only what happens to a refused file differs. A file that
is refused, or whose name is no label, is renamed to
``<label>.rrset.quarantined`` and reads as absent. A label file holds what
its label publishes; credentials are presented, never published, so they
live in a file of their own (see ``credential.store_credential``). Petnames
are purely local and never serialized into records.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .core import (
    NamespaceKey,
    RecordSet,
    RecordType,
    ResourceRecord,
    canonical_serialize,
    check_label,
    sign_record_set,
)
from .errors import BackendUnavailable, InvalidLabel, UnknownPetname
from .netsim import REFUSED, NameSystemBackend, derive_query_key, read_admitted, write_atomic

RRSET_SUFFIX = ".rrset"
QUARANTINE_SUFFIX = ".rrset.quarantined"
CRED_IN_LABEL = (
    "holds a credential, which is never published: import it with"
    " `abd cred import`, then delete the label's file"
)


@dataclass
class PublishEntry:
    label: str
    action: str  # "stored" | "deleted" | "failed"
    expiration_us: Optional[int] = None
    error: Optional[str] = None


@dataclass
class PublishReport:
    namespace: bytes
    entries: list[PublishEntry] = field(default_factory=list)
    error: Optional[str] = None  # why no label of the namespace was published

    @property
    def ok(self) -> bool:
        return self.error is None and all(e.error is None for e in self.entries)


class NamespaceStore:
    """Disk-backed store rooted at a data directory (ABD_HOME)."""

    def __init__(self, root: Path):
        self.root = Path(root)
        for directory in ("keys", "names", "credentials"):
            (self.root / directory).mkdir(parents=True, exist_ok=True)
        self._admitted: dict[str, tuple[bytes, RecordSet]] = {}  # read_admitted's memo

    # --- identities and petnames -------------------------------------------

    def _petnames_path(self) -> Path:
        return self.root / "petnames.json"

    def petname_table(self) -> dict[str, bytes]:
        path = self._petnames_path()
        if not path.exists():
            return {}
        raw = json.loads(path.read_text())
        return {name: bytes.fromhex(hexkey) for name, hexkey in raw.items()}

    def names_by_key(self) -> dict[bytes, str]:
        return {key: name for name, key in self.petname_table().items()}

    def set_petname(self, name: str, public_key: bytes) -> None:
        table = {n: k.hex() for n, k in self.petname_table().items()}
        table[name] = public_key.hex()
        text = json.dumps(table, indent=2, sort_keys=True) + "\n"
        write_atomic(self._petnames_path(), text.encode())

    def create_identity(
        self, petname: Optional[str] = None, seed: Optional[bytes] = None
    ) -> NamespaceKey:
        key = NamespaceKey.generate(seed=seed)
        seed = (key.private_key.hex() + "\n").encode()
        write_atomic(self._seed_path(key.public_key), seed, mode=0o600)
        if petname is not None:
            self.set_petname(petname, key.public_key)
        return key

    def key_for(self, name_or_hex: str) -> NamespaceKey:
        """Resolve a petname or hex public key, attaching the private key
        when this store holds it."""
        table = self.petname_table()
        if name_or_hex in table:
            public_key = table[name_or_hex]
        else:
            try:
                public_key = bytes.fromhex(name_or_hex)
            except ValueError:
                raise UnknownPetname(f"unknown petname {name_or_hex!r}")
            if len(public_key) != 32:
                raise UnknownPetname(f"unknown petname {name_or_hex!r}")
        return self._key(public_key)

    def _seed_path(self, public_key: bytes) -> Path:
        return self.root / "keys" / f"{public_key.hex()}.seed"

    def _key(self, public_key: bytes) -> NamespaceKey:
        """The namespace key, with its private half when this store holds it."""
        seed_path = self._seed_path(public_key)
        if not seed_path.exists():
            return NamespaceKey(public_key=public_key)
        return NamespaceKey(
            public_key=public_key,
            private_key=bytes.fromhex(seed_path.read_text().strip()),
        )

    def credentials_path(self, holder_pub: bytes) -> Path:
        return self.root / "credentials" / f"{holder_pub.hex()}.json"

    def identities(self) -> list[tuple[str, str]]:
        """(petname, hex public key) pairs, petnames sorted."""
        return sorted((name, key.hex()) for name, key in self.petname_table().items())

    # --- namespace entries ---------------------------------------------------

    # Paths are str, not Path: these run at every edit and publish, and
    # pathlib's joins and glob took a quarter of a five-label load_namespace.
    def _namespace_dir(self, public_key: bytes) -> str:
        return os.path.join(self.root, "names", public_key.hex())

    def _admit(self, public_key: bytes, label: str, directory: str) -> Optional[RecordSet]:
        """The set in ``label``'s file if ``read_admitted`` admits it for
        (public_key, label). A refused file, or one whose name is no label,
        is quarantined; a missing or refused file reads as None."""
        path = os.path.join(directory, label + RRSET_SUFFIX)
        try:
            record_set = read_admitted(path, derive_query_key(public_key, label), self._admitted)
        except InvalidLabel:
            record_set = REFUSED
        if record_set is REFUSED:
            os.rename(path, os.path.join(directory, label + QUARANTINE_SUFFIX))
            return None
        return record_set

    def entry(self, public_key: bytes, label: str) -> Optional[RecordSet]:
        """The set stored under one label, reading only that label's file."""
        check_label(label)
        return self._admit(public_key, label, self._namespace_dir(public_key))

    def load_namespace(self, public_key: bytes) -> dict[str, RecordSet]:
        """Every stored set by label; corrupt files are quarantined. A
        namespace with no directory has no labels."""
        directory = self._namespace_dir(public_key)
        try:
            names = sorted(n for n in os.listdir(directory) if n.endswith(RRSET_SUFFIX))
        except FileNotFoundError:
            return {}
        entries = {}
        for name in names:
            label = name[: -len(RRSET_SUFFIX)]
            record_set = self._admit(public_key, label, directory)
            if record_set is not None:
                entries[label] = record_set
        return entries

    def store(
        self, owner: NamespaceKey, label: str, records: Iterable[ResourceRecord]
    ) -> RecordSet:
        """Sign and persist the full record set for ``label``.

        Storing an empty record list is legal: the label then resolves to an
        empty set locally and publishes as a deletion.
        """
        record_set = sign_record_set(owner, label, records)
        directory = self._namespace_dir(owner.public_key)
        os.makedirs(directory, exist_ok=True)
        write_atomic(os.path.join(directory, label + RRSET_SUFFIX), canonical_serialize(record_set))
        return record_set

    # --- publication ---------------------------------------------------------

    def publish(
        self, owner: NamespaceKey, backend: NameSystemBackend, clock: int
    ) -> PublishReport:
        """Push this namespace's delegations into the name system.

        Each label publishes its live records: relative expirations are
        stamped absolute against ``clock``, records expired by then are
        dropped, and the set is re-signed, so republishing refreshes its
        lifetimes. A label whose live records are exactly its stored records
        is sent as stored: Ed25519 is deterministic, so signing again would
        give the same bytes. A label with no live record left publishes a
        signed empty set, a deletion. Every label is put at every publish, so
        a replica that missed one catches up. A label whose file holds a
        credential fails and puts nothing: credentials never leave the local
        store. Failures are reported per label; the rest of the publish
        proceeds.
        """
        owner.check_private()
        report = PublishReport(namespace=owner.public_key)
        for label, record_set in sorted(self.load_namespace(owner.public_key).items()):
            if any(r.record_type == RecordType.CRED for r in record_set.records):
                report.entries.append(
                    PublishEntry(label=label, action="failed", error=CRED_IN_LABEL)
                )
                continue
            stamped = (r.stamped(clock) for r in record_set.records)
            live = tuple(r for r in stamped if not r.is_expired(clock))
            if live == record_set.records:
                outgoing = record_set  # read_admitted decoded, bound and verified it
            else:
                outgoing = sign_record_set(owner, label, live)
            try:
                backend.put(derive_query_key(owner.public_key, label), outgoing, clock)
            except BackendUnavailable as exc:
                report.entries.append(
                    PublishEntry(label=label, action="failed", error=str(exc))
                )
                continue
            report.entries.append(
                PublishEntry(
                    label=label,
                    action="stored" if live else "deleted",
                    expiration_us=outgoing.min_expiration(clock),
                )
            )
        return report
