"""Exception taxonomy shared across the package.

Network-class failures (anything that means "we could not find out") derive
from BackendError so callers can distinguish "denied" from "unknown".
Absence is not an error: a lookup that finds no record set returns None.
"""
from __future__ import annotations


class AbdError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidLabel(AbdError):
    """Label does not match ``[a-z0-9_-]{1,63}``."""


class MissingPrivateKey(AbdError):
    """A signing operation was attempted with a public-only key."""


class KeyMismatch(AbdError):
    """A private key does not derive the public key it is paired with."""


class DecodeError(AbdError):
    """Byte-level decoding failed; carries the offset of the first bad byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class BadSignature(AbdError):
    """Signature verification failed where a valid signature is mandatory."""


class BackendError(AbdError):
    """Network-class failure. The result is unknown, not a denial."""


class BackendUnavailable(BackendError):
    """The backend refused or could not accept the operation."""


class AllReplicasDown(BackendError):
    """Timeout-class: every node that could hold the key is unreachable."""


class UnknownNode(AbdError):
    """A simulator operation referenced a node id outside the network."""


class ParseError(AbdError):
    """Delegation expression text is malformed; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownPetname(AbdError):
    """A local petname has no entry in the petname table."""


class DuplicateDelegation(AbdError):
    """The identical delegation expression is already present under the label."""


class LimitExceeded(AbdError):
    """Discovery hit a resource limit; ``limit`` names which one."""

    def __init__(self, limit: str, value: int):
        super().__init__(f"limit exceeded: {limit}={value}")
        self.limit = limit
        self.value = value


class JsonError(AbdError):
    """Credential JSON is malformed; the message names the offending field."""


class UnknownResource(AbdError):
    """No policy is configured for the requested resource id."""


class DataDirNotEmpty(AbdError):
    """Refusing to initialize a fixture into a non-empty data directory."""
