"""Local persistent store for namespaces, keys, and petnames.

Layout under the data directory:

    keys/<hexpub>.seed          private key seed, hex
    petnames.json               local petname -> hex public key
    names/<hexpub>/<label>.rrset      canonical record set bytes

Record sets are written in canonical serialization and re-verified on load;
entries that fail verification are quarantined (renamed aside and reported),
never silently dropped. Petnames are purely local and never serialized into
records.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .core import (
    NamespaceKey,
    RecordSet,
    RecordType,
    ResourceRecord,
    canonical_deserialize,
    canonical_serialize,
    check_label,
    sign_record_set,
    verify_record_set_signature,
)
from .errors import (
    BackendUnavailable,
    CorruptStore,
    DecodeError,
    MissingPrivateKey,
    UnknownPetname,
)
from .netsim import NameSystemBackend, derive_query_key

RRSET_SUFFIX = ".rrset"
QUARANTINE_SUFFIX = ".rrset.quarantined"


@dataclass
class Namespace:
    """One namespace's local view: its key, entries, and quarantine report."""

    key: NamespaceKey
    entries: dict[str, RecordSet] = field(default_factory=dict)
    quarantined: dict[str, CorruptStore] = field(default_factory=dict)


@dataclass
class PublishEntry:
    label: str
    action: str  # "stored" | "deleted" | "kept-local" | "failed"
    expiration_us: Optional[int] = None
    error: Optional[str] = None


@dataclass
class PublishReport:
    namespace: bytes
    entries: list[PublishEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.error is None for e in self.entries)


class NamespaceStore:
    """Disk-backed store rooted at a data directory (ABD_HOME)."""

    def __init__(self, root: Path):
        self.root = Path(root)
        (self.root / "keys").mkdir(parents=True, exist_ok=True)
        (self.root / "names").mkdir(parents=True, exist_ok=True)

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
        self._petnames_path().write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

    def create_identity(
        self, petname: Optional[str] = None, seed: Optional[bytes] = None
    ) -> NamespaceKey:
        key = NamespaceKey.generate(seed=seed)
        seed_path = self._seed_path(key.public_key)
        seed_path.write_text(key.private_key.hex() + "\n")
        seed_path.chmod(0o600)
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

    def identities(self) -> list[tuple[str, str]]:
        """(petname, hex public key) pairs, petnames sorted."""
        return sorted((name, key.hex()) for name, key in self.petname_table().items())

    # --- namespace entries ---------------------------------------------------

    def _namespace_dir(self, public_key: bytes, create: bool = False) -> Path:
        path = self.root / "names" / public_key.hex()
        if create:
            path.mkdir(parents=True, exist_ok=True)
        return path

    def load_namespace(self, public_key: bytes) -> Namespace:
        """Load all entries, quarantining any that fail verification."""
        namespace = Namespace(key=self._key(public_key))
        directory = self._namespace_dir(public_key)
        if not directory.exists():
            return namespace
        for path in sorted(directory.glob(f"*{RRSET_SUFFIX}")):
            label = path.name[: -len(RRSET_SUFFIX)]
            try:
                record_set = canonical_deserialize(path.read_bytes())
            except DecodeError as exc:
                problem = f"is undecodable: {exc}"
            else:
                if record_set.public_key != public_key or record_set.label != label:
                    problem = "names a different (key, label)"
                elif not verify_record_set_signature(record_set):
                    problem = "fails signature verification"
                else:
                    namespace.entries[label] = record_set
                    continue
            namespace.quarantined[label] = CorruptStore(f"entry {label!r} {problem}")
            path.rename(path.with_name(label + QUARANTINE_SUFFIX))
        return namespace

    def store(
        self, owner: NamespaceKey, label: str, records: Iterable[ResourceRecord]
    ) -> RecordSet:
        """Sign and persist the full record set for ``label``.

        Storing an empty record list is legal: the label then resolves to an
        empty set locally and publishes as a deletion.
        """
        check_label(label)
        if owner.private_key is None:
            raise MissingPrivateKey("storing requires the namespace private key")
        record_set = sign_record_set(owner, label, records)
        directory = self._namespace_dir(owner.public_key, create=True)
        (directory / f"{label}{RRSET_SUFFIX}").write_bytes(canonical_serialize(record_set))
        return record_set

    def list_labels(self, public_key: bytes) -> list[str]:
        return sorted(self.load_namespace(public_key).entries)

    # --- publication ---------------------------------------------------------

    def publish(
        self, owner: NamespaceKey, backend: NameSystemBackend, clock: int
    ) -> PublishReport:
        """Push this namespace's delegations into the name system.

        Relative expirations are stamped absolute against ``clock`` and the
        affected sets re-signed, so republishing refreshes their lifetimes.
        Credential records never leave the local store. A label stored with
        no records is published as a signed empty set, a deletion. Failures
        are reported per label; the rest of the publish proceeds.
        """
        if owner.private_key is None:
            raise MissingPrivateKey("publishing requires the namespace private key")
        report = PublishReport(namespace=owner.public_key)
        namespace = self.load_namespace(owner.public_key)

        for label in sorted(namespace.entries):
            record_set = namespace.entries[label]
            public_records = [
                r for r in record_set.records if r.record_type != RecordType.CRED
            ]
            if record_set.records and not public_records:
                # Credential-only labels are subject-held state, never published.
                report.entries.append(PublishEntry(label=label, action="kept-local"))
                continue
            stamped = [r.stamped(clock) for r in public_records]
            expired = [r for r in stamped if r.expiration_us <= clock]
            if expired:
                report.entries.append(
                    PublishEntry(
                        label=label,
                        action="failed",
                        error="record expiration is not in the future",
                    )
                )
                continue
            outgoing = sign_record_set(owner, label, stamped)
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
                    action="stored" if stamped else "deleted",
                    expiration_us=outgoing.min_expiration(clock),
                )
            )

        return report
