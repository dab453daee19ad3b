"""Authorization: policies, nonce handshake, and the verifier service.

Flow: the verifier challenges the subject with the policy for a resource
and a single-use nonce; the subject collects credentials proving each
required attribute and sends a signed response; the verifier independently
runs the same collection from its own namespace against the supplied
credentials and grants only if every required attribute is proved. Each
decision reply carries the next challenge, so over HTTP a client makes one
exchange per decision after its first: ``GET /policy`` fetches a challenge
only when the client holds none for that resource.

A chain is found once and then checked. ``VerifierService`` remembers, in a
``ChainTable``, the chain that last proved each (subject key, attribute),
and re-checks it with ``verify_chain`` before it searches; the client
thread remembers the credential sets that last granted and re-presents them
without a search. So a repeat grant over HTTP searches on neither side. A
remembered chain that no longer verifies is forgotten and the verifier
searches, so a grant always rests on a chain that holds now and a deny on a
full search; the client, denied what granted before, forgets it and answers
once more from a search: one extra exchange, only after a revocation.

Decisions are three-valued. Deny carries reasons; a backend failure during
collection is an Error ("could not find out"), never a silent Deny. The
verifier and the client both collect through ``_collect``, which turns a
failure into the one Error decision either side reports, and the client
reads every decision reply with ``AuthzDecision.from_json``.

Transport: persistent HTTP/1.1 with TCP_NODELAY, framed here (RFC 9112) on
both sides, without ``http.server``: ``_read_head`` reads every head, of at
most ``MAX_HEAD_LINES`` lines of ``MAX_LINE_BYTES`` each; a body is sent by
``Content-Length``, never ``Transfer-Encoding``. The verifier writes each
reply, a JSON decision unless it is a ``100 Continue``, in one send with a
``Date``, and says ``Connection: close`` when it closes after it: on every
status but 200, and when the request asked. A peer that closes mid-head, or
is silent ``READ_TIMEOUT_S``, is dropped without a reply. A client thread
keeps one connection, to the last endpoint it used, and for each resource
there the challenge its last reply carried. It sends a request in one write,
with no proxy, refuses a body over ``MAX_BODY_BYTES``, and resends once, on
a new connection, only when a reused one closed before the reply began.
"""
from __future__ import annotations

import http.client
import json
import re
import secrets
import socket
import socketserver
import ssl
import threading
import urllib.error
import urllib.request
from collections import OrderedDict
from dataclasses import dataclass, field
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Union
from urllib.parse import quote, unquote, urlsplit

from .core import KEY_LEN, U32, NamespaceKey, check_label, clip, pack_label, verify_signature
from .credential import Credential, collect, export_json, import_json, refusal
from .discovery import DelegationChain, verify_chain
from .errors import AbdError, BackendError, LimitExceeded, UnknownResource
from .netsim import NameSystemBackend

AUTHZ_CONTEXT = b"ABD-AUTHZ-V1"
NONCE_LEN = 16
NONCE_LIFETIME_US = 120_000_000  # two minutes
MAX_BODY_BYTES = 1 << 20  # an /authorize body for a few attributes is a few KB
MAX_NONCES = 65_536  # outstanding nonces; a few hundred bytes each
MAX_CHAINS = 4_096  # chains a verifier remembers, one per (subject, attribute)
MAX_KEPT_GRANTS = 64  # granting credential sets a client thread keeps
READ_TIMEOUT_S = 10.0  # a connection idle or stalled this long is closed
MAX_HEAD_LINES = 100  # header lines in a request or a reply
MAX_LINE_BYTES = 65_536  # one start line or header line, its line end included

GRANT, DENY, ERROR = "grant", "deny", "error"

# Why ``NonceTable.status`` refuses a nonce. A deny whose only reason is one
# of these is a refusal: the response was never judged.
NONCE_UNKNOWN = "nonce unknown or already used"
NONCE_EXPIRED = "nonce expired"
NONCE_OTHER_RESOURCE = "nonce was issued for a different resource"
NONCE_REFUSALS = (NONCE_UNKNOWN, NONCE_EXPIRED, NONCE_OTHER_RESOURCE)


@dataclass(frozen=True)
class Policy:
    resource_id: str
    required_attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.required_attributes:
            raise ValueError("a policy requires at least one attribute")
        if len(set(self.required_attributes)) != len(self.required_attributes):
            raise ValueError("duplicate attributes in policy")
        for attribute in self.required_attributes:
            check_label(attribute)

    @classmethod
    def from_json(cls, resource_id: str, value: object) -> "Policy":
        """A policy from its JSON form, a list of attribute labels. Raises
        ValueError, or InvalidLabel for a malformed label."""
        if not isinstance(value, list) or not all(isinstance(a, str) for a in value):
            raise ValueError(
                f"policy for resource {clip(resource_id)} must be a list of attribute labels"
            )
        return cls(resource_id, tuple(value))


class PolicyStore:
    """Policies from a JSON file: {resource_id: [attribute, ...]}."""

    def __init__(self, policies: Mapping[str, Policy]):
        self._policies = dict(policies)

    @classmethod
    def from_file(cls, path: Path) -> "PolicyStore":
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("policy file must be a JSON object")
        return cls({rid: Policy.from_json(rid, value) for rid, value in raw.items()})

    def get_policy(self, resource_id: str) -> Policy:
        policy = self._policies.get(resource_id)
        if policy is None:
            raise UnknownResource(f"no policy for resource {clip(resource_id)}")
        return policy


class ChainTable:
    """The chain that last proved each (subject key, attribute), at most
    ``MAX_CHAINS`` of them; the least recently used goes first.

    A remembered chain only says where to look: ``authorize`` grants on it
    only after ``verify_chain`` accepts it against the name system as it is.
    """

    def __init__(self) -> None:
        self._chains: OrderedDict[tuple[bytes, str], DelegationChain] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, subject: bytes, attribute: str) -> Optional[DelegationChain]:
        with self._lock:
            chain = self._chains.get((subject, attribute))
            if chain is not None:
                self._chains.move_to_end((subject, attribute))
            return chain

    def put(self, subject: bytes, attribute: str, chain: DelegationChain) -> None:
        with self._lock:
            self._chains[subject, attribute] = chain
            self._chains.move_to_end((subject, attribute))
            if len(self._chains) > MAX_CHAINS:
                self._chains.popitem(last=False)

    def drop(self, subject: bytes, attribute: str, chain: DelegationChain) -> None:
        """Forget ``chain``, unless another decision has replaced it since."""
        with self._lock:
            if self._chains.get((subject, attribute)) is chain:
                del self._chains[subject, attribute]


class NonceTable:
    """Single-use nonces that live ``NONCE_LIFETIME_US``, bound to a resource.

    Every nonce gets the same lifetime, so issue order is expiry order:
    ``issue`` drops expired nonces from the front of the table, and the
    oldest one while the table holds ``MAX_NONCES``.
    """

    def __init__(self) -> None:
        self._issued: OrderedDict[bytes, tuple[int, str]] = OrderedDict()
        self._lock = threading.Lock()

    def issue(self, resource_id: str, clock: int) -> bytes:
        nonce = secrets.token_bytes(NONCE_LEN)
        with self._lock:
            issued = self._issued
            while issued and (
                len(issued) >= MAX_NONCES or next(iter(issued.values()))[0] <= clock
            ):
                issued.popitem(last=False)
            issued[nonce] = (clock + NONCE_LIFETIME_US, resource_id)
        return nonce

    def status(self, nonce: bytes, resource_id: str, clock: int) -> Optional[str]:
        """None when the nonce is usable, else the reason it is not."""
        with self._lock:
            entry = self._issued.get(nonce)
            if entry is None:
                return NONCE_UNKNOWN
            expires, bound_resource = entry
            if clock >= expires:
                return NONCE_EXPIRED
            if bound_resource != resource_id:
                return NONCE_OTHER_RESOURCE
        return None

    def consume(self, nonce: bytes) -> bool:
        """Remove the nonce; False when another request already used it."""
        with self._lock:
            return self._issued.pop(nonce, None) is not None


@dataclass(frozen=True)
class AuthorizationResponse:
    """The subject's signed answer to a policy challenge."""

    nonce: bytes
    subject: bytes
    credential_sets: Mapping[str, tuple[Credential, ...]]
    signature: bytes

    def signing_bytes(self) -> bytes:
        return response_signing_bytes(self.nonce, self.subject, self.credential_sets)


def response_signing_bytes(
    nonce: bytes,
    subject: bytes,
    credential_sets: Mapping[str, Iterable[Credential]],
) -> bytes:
    """Canonical bytes covered by the subject's signature.

    Attributes are sorted and credentials ordered by their canonical bytes,
    so semantically equal responses sign identically.
    """
    out = bytearray()
    out += AUTHZ_CONTEXT
    out += nonce
    out += subject
    out += U32.pack(len(credential_sets))
    for attribute in sorted(credential_sets):
        out += pack_label(attribute)
        ordered = sorted(
            (credential.canonical_bytes() for credential in credential_sets[attribute])
        )
        out += U32.pack(len(ordered))
        for blob in ordered:
            out += blob
    return bytes(out)


def build_response(
    subject: NamespaceKey,
    nonce: bytes,
    credential_sets: Mapping[str, Iterable[Credential]],
) -> AuthorizationResponse:
    sets = {
        attribute: tuple(credentials)
        for attribute, credentials in credential_sets.items()
    }
    signature = subject.sign(response_signing_bytes(nonce, subject.public_key, sets))
    return AuthorizationResponse(
        nonce=nonce,
        subject=subject.public_key,
        credential_sets=sets,
        signature=signature,
    )


@dataclass(frozen=True)
class AuthzDecision:
    """A verifier's decision, or the subject's view of one."""

    decision: str  # grant | deny | error
    reasons: tuple[str, ...] = ()
    chain_summaries: tuple[str, ...] = ()

    @classmethod
    def error(cls, reason: str) -> "AuthzDecision":
        return cls(decision=ERROR, reasons=(reason,))

    @classmethod
    def from_json(cls, status: int, body: Mapping) -> "AuthzDecision":
        """The decision a verifier's reply states: an Error when it states
        none, and when its status is not 200, whatever it states."""
        decision = body.get("decision")
        reasons = body.get("reasons", [])
        summaries = body.get("chain_summaries", [])
        if decision not in (GRANT, DENY, ERROR) or not all(
            isinstance(lines, list) and all(isinstance(line, str) for line in lines)
            for lines in (reasons, summaries)
        ):
            return cls.error("bad reply from verifier: not a decision")
        if status != 200 and decision != ERROR:
            return cls.error(f"verifier answered {decision} with status {status}")
        return cls(decision, tuple(reasons), tuple(summaries))

    def to_json(self) -> dict:
        return {
            "decision": self.decision,
            "reasons": list(self.reasons),
            "chain_summaries": list(self.chain_summaries),
        }


def _summarize_chain(chain: DelegationChain) -> str:
    hops = [f"{chain.issuer.hex()[:8]}.{chain.attribute}"]
    hops += [f"{step.subject.hex()[:8]}.{step.label}" for step in chain.steps[1:]]
    # Without a credential, a record named the subject's key itself.
    leaf_bits = [
        f"cred {leaf.credential.issuer.hex()[:8]}.{leaf.credential.attribute}"
        for leaf in chain.leaves
    ] or ["subject key"]
    return " -> ".join(hops) + " -> " + ", ".join(leaf_bits)


def authorize(
    verifier_pub: bytes,
    response: AuthorizationResponse,
    policy: Policy,
    backend: NameSystemBackend,
    clock: int,
    nonce_table: NonceTable,
    chains: Optional[ChainTable] = None,
) -> AuthzDecision:
    """Decide a signed response against a policy.

    The verifier trusts nothing from the subject but the credentials
    themselves: it runs the subject's own ``collect`` from its own
    namespace over them. Given a ``ChainTable``, it first re-checks with
    ``verify_chain`` the chain that last proved each attribute for the
    subject, when every credential that chain rests on is presented, and
    collects only the attributes no remembered chain still proves; a chain
    that fails is forgotten. So a grant still rests on a chain that holds
    now, and a deny on a full search. Once the response signature verifies,
    the request uses up its nonce whatever it decides, so a response is
    decided at most once. Only the request that consumes the nonce grants,
    so one response cannot grant twice, even when two copies of it are
    decided at once.
    """
    problem = nonce_table.status(response.nonce, policy.resource_id, clock)
    if problem is not None:
        return AuthzDecision(decision=DENY, reasons=(problem,))
    if len(response.subject) != KEY_LEN:
        return AuthzDecision(decision=DENY, reasons=("malformed subject key",))
    if not verify_signature(
        response.subject, response.signature, response.signing_bytes(), remember=False
    ):
        return AuthzDecision(decision=DENY, reasons=("response signature invalid",))
    decision = _decide_signed(verifier_pub, response, policy, backend, clock, chains)
    if not nonce_table.consume(response.nonce) and decision.decision == GRANT:
        return AuthzDecision(decision=DENY, reasons=(NONCE_UNKNOWN,))
    return decision


def _collect(
    subject_pub: bytes,
    subject_creds: Iterable[Credential],
    verifier_pub: bytes,
    attributes: Iterable[str],
    backend: NameSystemBackend,
    clock: int,
) -> Union[dict, AuthzDecision]:
    """``collect``'s chains for the attributes, or the Error decision its
    failure comes to. The verifier and the client both collect through
    here, so a failure reads the same on either side."""
    try:
        return collect(
            subject_pub=subject_pub,
            subject_creds=subject_creds,
            verifier_pub=verifier_pub,
            policy_attrs=attributes,
            backend=backend,
            clock=clock,
        )
    except BackendError as exc:
        return AuthzDecision.error(f"name system unavailable: {exc}")
    except LimitExceeded as exc:
        return AuthzDecision.error(f"discovery budget exhausted: {exc}")


def _decide_signed(
    verifier_pub: bytes,
    response: AuthorizationResponse,
    policy: Policy,
    backend: NameSystemBackend,
    clock: int,
    chains: Optional[ChainTable],
) -> AuthzDecision:
    """The decision on a response whose signature verified, nonce aside."""
    supplied: list[Credential] = []
    for attribute, credentials in response.credential_sets.items():
        for credential in credentials:
            problem = refusal(credential, response.subject, clock)
            if problem is not None:
                return AuthzDecision(
                    decision=DENY, reasons=(f"credential under {attribute!r} {problem}",)
                )
            supplied.append(credential)

    subject = response.subject
    proved: dict[str, DelegationChain] = {}
    if chains is not None:
        presented = set(supplied)
        for attribute in policy.required_attributes:
            chain = chains.get(subject, attribute)
            if (
                chain is None
                or chain.issuer != verifier_pub
                or not all(leaf.credential in presented for leaf in chain.leaves)
            ):
                continue
            if verify_chain(chain, subject, backend, clock):
                proved[attribute] = chain
            else:
                chains.drop(subject, attribute, chain)
    unproved = [a for a in policy.required_attributes if a not in proved]
    if unproved:
        found = _collect(subject, supplied, verifier_pub, unproved, backend, clock)
        if isinstance(found, AuthzDecision):
            return found
        if chains is not None:
            for attribute, chain in found.items():
                chains.put(subject, attribute, chain)
        proved.update(found)
    unsatisfied = [
        attribute for attribute in policy.required_attributes if attribute not in proved
    ]
    if unsatisfied:
        return AuthzDecision(
            decision=DENY,
            reasons=tuple(
                f"no delegation chain proves {attribute!r}" for attribute in unsatisfied
            ),
        )
    return AuthzDecision(
        decision=GRANT,
        chain_summaries=tuple(
            _summarize_chain(proved[attribute]) for attribute in policy.required_attributes
        ),
    )


# --- HTTP framing and the verifier service --------------------------------------

_REQUEST_LINE = re.compile(rb"([^\x00-\x20\x7f]+) ([^\x00-\x20\x7f]+) (HTTP/1\.[01])\r?\n")
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([0-9]{3})(?: [^\r\n]*)?\r?\n")
# A token, a colon, a value: no line without a colon or starting with whitespace (obs-fold).
_HEADER_LINE = re.compile(r"([!#$%&'*+.^_`|~0-9A-Za-z-]+):([^\r\n]*)\r?\n")


def _read_head(rfile, start: re.Pattern) -> Optional[tuple[re.Match, dict[str, str]]]:
    """A start line matching ``start``, and the header lines up to the blank
    line as lower-case names to first values; None when the stream ends
    before the head does. Raises HTTPException(status, reason), the status
    a verifier answers with."""
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise http.client.HTTPException(414, "start line too long")
    if not line.endswith(b"\n"):
        return None
    start_line = start.fullmatch(line)
    if start_line is None:
        raise http.client.HTTPException(400, "malformed start line")
    headers: dict[str, str] = {}
    for count in range(MAX_HEAD_LINES + 1):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if line in (b"\r\n", b"\n"):
            break
        if len(line) > MAX_LINE_BYTES or count == MAX_HEAD_LINES:
            raise http.client.HTTPException(431, "header fields too large")
        if not line.endswith(b"\n"):
            return None
        field = _HEADER_LINE.fullmatch(line.decode("latin-1"))
        if field is None:
            raise http.client.HTTPException(400, "malformed header line")
        name, value = field[1].lower(), field[2].strip(" \t")
        if headers.setdefault(name, value) != value and name == "content-length":
            raise http.client.HTTPException(400, "Content-Length values differ")
    if "transfer-encoding" in headers:
        raise http.client.HTTPException(501, "Transfer-Encoding is not supported")
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()) or len(length) > 18:  # over any body cap
        raise http.client.HTTPException(400, "Content-Length must be a non-negative integer")
    return start_line, headers


@dataclass
class VerifierService:
    """State behind the two HTTP endpoints. Each decision on a known
    resource carries the next challenge, so a client answers it without
    another ``GET /policy``. The chain that last proved each subject's
    attribute is re-checked before any search for one."""

    verifier_pub: bytes
    policies: PolicyStore
    backend: NameSystemBackend
    clock_fn: Callable[[], int]
    nonces: NonceTable = field(default_factory=NonceTable, init=False)
    chains: ChainTable = field(default_factory=ChainTable, init=False)

    def policy_payload(self, resource_id: str) -> dict:
        return self._challenge(self.policies.get_policy(resource_id))

    def _challenge(self, policy: Policy) -> dict:
        """The policy and a fresh nonce: the body of ``GET /policy``, and
        the ``next`` of each decision on the resource."""
        nonce = self.nonces.issue(policy.resource_id, self.clock_fn())
        return {
            "resource_id": policy.resource_id,
            "required_attributes": list(policy.required_attributes),
            "verifier": self.verifier_pub.hex(),
            "nonce": nonce.hex(),
        }

    def authorize_payload(self, body: dict) -> tuple[int, dict]:
        try:
            resource_id = body["resource_id"]
            if not isinstance(resource_id, str):
                raise TypeError("resource_id must be a string")
            nonce = bytes.fromhex(body["nonce"])
            subject = bytes.fromhex(body["subject"])
            signature = bytes.fromhex(body["signature"])
            credential_sets = {
                check_label(attribute): tuple(import_json(item) for item in items)
                for attribute, items in body["credential_sets"].items()
            }
        except KeyError as exc:
            return 400, AuthzDecision.error(f"missing field {exc.args[0]!r}").to_json()
        except (AbdError, ValueError, TypeError, AttributeError) as exc:
            return 400, AuthzDecision.error(f"malformed request: {exc}").to_json()
        try:
            policy = self.policies.get_policy(resource_id)
        except UnknownResource as exc:
            return 404, AuthzDecision.error(str(exc)).to_json()
        response = AuthorizationResponse(
            nonce=nonce,
            subject=subject,
            credential_sets=credential_sets,
            signature=signature,
        )
        decision = authorize(
            verifier_pub=self.verifier_pub,
            response=response,
            policy=policy,
            backend=self.backend,
            clock=self.clock_fn(),
            nonce_table=self.nonces,
            chains=self.chains,
        )
        payload = decision.to_json()
        payload["next"] = self._challenge(policy)
        return (200 if decision.decision != ERROR else 503), payload


class _Connection(socketserver.StreamRequestHandler):
    """One client connection, Nagle's algorithm off. Its requests are
    answered in order, each reply in one send, until a reply is not 200, the
    client asks to close or closes, or any OSError, a read timeout included.
    Bytes left unread after a rejected request are never parsed as a new one."""

    service: VerifierService  # set on the subclass by make_server
    disable_nagle_algorithm = True

    def handle(self) -> None:
        keep = True
        try:
            while keep:
                try:
                    if (head := _read_head(self.rfile, _REQUEST_LINE)) is None:
                        return  # the client is gone: nobody is left to answer
                    (method, target, version), headers = head[0].groups(), head[1]
                    connection = headers.get("connection", "").lower()
                    keep = connection != "close" if version == b"HTTP/1.1" else connection == "keep-alive"
                    status, payload = self._dispatch(method, target.decode("latin-1"), version, headers)
                except http.client.HTTPException as exc:
                    status, payload = exc.args[0], AuthzDecision.error(exc.args[1]).to_json()
                keep = keep and status == 200
                body = json.dumps(payload).encode("utf-8")
                close = "" if keep else "Connection: close\r\n"
                self.wfile.write(
                    f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nDate: {formatdate(usegmt=True)}\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n{close}\r\n".encode()
                    + body
                )
        except OSError:
            pass  # the client is gone or went quiet

    def _dispatch(self, method: bytes, target: str, version: bytes, headers: dict) -> tuple[int, dict]:
        """The status and payload for ``GET /policy/<id>`` and ``POST
        /authorize``; raises HTTPException(status, reason) for any other."""
        if method == b"GET" and target.startswith("/policy/"):
            try:
                return 200, self.service.policy_payload(unquote(target[len("/policy/") :]))
            except UnknownResource as exc:
                raise http.client.HTTPException(404, str(exc)) from None
        if method not in (b"GET", b"POST"):
            raise http.client.HTTPException(501, f"method {clip(method.decode('latin-1'))} not supported")
        if method == b"GET" or target != "/authorize":
            raise http.client.HTTPException(404, "not found")
        length = int(headers.get("content-length", "0"))  # digits: _read_head checked
        if length > MAX_BODY_BYTES:
            raise http.client.HTTPException(413, f"request body over {MAX_BODY_BYTES} bytes")
        if version == b"HTTP/1.1" and headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            body = json.loads(self.rfile.read(length))
        except ValueError as exc:
            raise http.client.HTTPException(400, f"bad JSON: {exc}") from None
        return self.service.authorize_payload(body)


class _Server(socketserver.ThreadingTCPServer):
    # Daemon threads: closing the server does not wait on kept-alive connections.
    daemon_threads = True
    allow_reuse_address = True


def make_server(service: VerifierService, host: str, port: int) -> socketserver.ThreadingTCPServer:
    # ``timeout`` is set on each connection's socket: a body shorter than its
    # Content-Length ends in a timeout that closes the connection, rather
    # than in a handler thread blocked for good.
    handler = type(
        "BoundConnection", (_Connection,), {"service": service, "timeout": READ_TIMEOUT_S}
    )
    return _Server((host, port), handler)


# --- subject-side client ----------------------------------------------------------


class _Kept(threading.local):
    """Per client thread: the socket to the last endpoint used (Nagle off)
    with a buffered reader, the challenge last carried for each (endpoint,
    resource id), and the credential sets that last granted each (endpoint,
    resource id, subject key), at most ``MAX_KEPT_GRANTS``."""

    def __init__(self) -> None:
        self.endpoint: Optional[tuple[str, str]] = None
        self.sock: Optional[socket.socket] = None
        self.reader = None
        self.challenges: dict[tuple[str, str], Challenge] = {}
        self.grants: dict[tuple[str, str, bytes], dict[str, tuple[Credential, ...]]] = {}

    def connect(self, timeout: float) -> None:
        scheme, host = self.endpoint
        address = urlsplit(f"//{host}")
        port = address.port or (443 if scheme == "https" else 80)
        sock = socket.create_connection((address.hostname, port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=address.hostname)
        except BaseException:
            sock.close()
            raise
        self.sock, self.reader = sock, sock.makefile("rb")

    def disconnect(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None


_kept = _Kept()


def close_connection() -> None:
    """Close this thread's kept connection, if it has one, and drop its
    carried challenges and granting credential sets."""
    _kept.disconnect()
    _kept.challenges = {}
    _kept.grants = {}


def _exchange(request: urllib.request.Request) -> None:
    """Send the request in one write and wait for the reply's first byte."""
    head = [f"{request.get_method()} {request.selector} HTTP/1.1", f"Host: {request.host}"]
    head += [f"{name}: {value}" for name, value in request.header_items()]
    if request.data is not None:
        head.append(f"Content-Length: {len(request.data)}")
    _kept.sock.sendall("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + (request.data or b""))
    if not _kept.reader.peek(1):
        raise http.client.RemoteDisconnected("verifier closed the connection without a reply")


def _read_reply(reader) -> tuple[int, bytes, bool]:
    """The status and body of a reply, skipping a ``100 Continue``, and
    whether the connection stays open after it."""
    while (head := _read_head(reader, _STATUS_LINE)) is not None and head[0][2] == b"100":
        pass
    if head is None:
        raise http.client.HTTPException("verifier closed the connection mid-reply")
    status_line, headers = head
    length = headers.get("content-length")
    if length is not None and int(length) > MAX_BODY_BYTES:
        raise http.client.HTTPException(f"reply Content-Length {clip(length)}")
    body = reader.read(MAX_BODY_BYTES + 1 if length is None else int(length))  # no length: to EOF
    if len(body) > MAX_BODY_BYTES:
        raise http.client.HTTPException(f"reply body over {MAX_BODY_BYTES} bytes")
    if length is not None and len(body) < int(length):
        raise http.client.IncompleteRead(body, int(length) - len(body))
    keep = length is not None and status_line[1] == b"1" and headers.get("connection", "").lower() != "close"
    return int(status_line[2]), body, keep


def _http_json(request: urllib.request.Request, timeout: float) -> tuple[int, dict]:
    """The reply's status and JSON object; ValueError if it is not one.

    The request goes over this thread's kept connection, to the last
    endpoint it used; another endpoint closes it. If a reused connection
    turns out closed before any byte of the reply arrives, the server
    dropped it idle without reading the request, so it is sent once more on
    a fresh connection: a POST is never decided twice.
    """
    if _kept.endpoint != (request.type, request.host):
        close_connection()
        if request.type not in ("http", "https"):
            raise urllib.error.URLError(f"unknown url type: {request.type}")
        _kept.endpoint = (request.type, request.host)
    reused = _kept.sock is not None
    try:
        if reused:
            _kept.sock.settimeout(timeout)
        else:
            _kept.connect(timeout)
        try:
            _exchange(request)
        except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected too
            if not reused:
                raise
            _kept.disconnect()
            _kept.connect(timeout)
            _exchange(request)
        status, body, keep = _read_reply(_kept.reader)
        if not keep:
            _kept.disconnect()
    except BaseException:
        _kept.disconnect()
        raise
    payload = json.loads(body)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    return status, payload


@dataclass(frozen=True)
class Challenge:
    """A verifier's policy for a resource and a nonce to answer it with."""

    verifier: bytes
    nonce: bytes
    policy: Policy

    @classmethod
    def from_json(cls, resource_id: str, body: object) -> "Challenge":
        """Parse the body of ``GET /policy``, or the ``next`` of a decision.
        Raises KeyError, ValueError, TypeError or AbdError if malformed."""
        return cls(
            verifier=bytes.fromhex(body["verifier"]),
            nonce=bytes.fromhex(body["nonce"]),
            policy=Policy.from_json(resource_id, body["required_attributes"]),
        )


def _refused(decision: AuthzDecision) -> bool:
    """Whether the verifier refused the nonce rather than judge the response."""
    return (
        decision.decision == DENY
        and len(decision.reasons) == 1
        and decision.reasons[0] in NONCE_REFUSALS
    )


def _send(
    request: urllib.request.Request, timeout: float
) -> Union[tuple[int, dict], AuthzDecision]:
    """``_http_json``, or an Error decision when the exchange fails."""
    try:
        return _http_json(request, timeout)
    except OSError as exc:
        return AuthzDecision.error(f"verifier unreachable: {exc}")
    except (ValueError, http.client.HTTPException) as exc:
        return AuthzDecision.error(f"bad reply from verifier: {exc!r}")


def _fetch_challenge(
    endpoint: str, resource_id: str, timeout: float
) -> Union[Challenge, AuthzDecision]:
    """The policy and a fresh nonce from ``GET /policy``, or an Error decision."""
    sent = _send(
        urllib.request.Request(f"{endpoint}/policy/{quote(resource_id, safe='')}"),
        timeout,
    )
    if isinstance(sent, AuthzDecision):
        return sent
    status, body = sent
    if status != 200:
        return AuthzDecision.from_json(status, body)
    try:
        return Challenge.from_json(resource_id, body)
    except (KeyError, ValueError, TypeError, AbdError) as exc:
        return AuthzDecision.error(f"bad policy response: {exc}")


def _answer(
    endpoint: str,
    resource_id: str,
    challenge: Challenge,
    subject: NamespaceKey,
    credential_sets: Mapping[str, tuple[Credential, ...]],
    timeout: float,
) -> tuple[AuthzDecision, Optional[Challenge]]:
    """Sign and submit ``credential_sets`` as the answer to ``challenge``.
    Returns the decision and the challenge the reply carries, if it carries
    one."""
    response = build_response(subject, challenge.nonce, credential_sets)
    body = json.dumps(
        {
            "resource_id": resource_id,
            "nonce": response.nonce.hex(),
            "subject": response.subject.hex(),
            "signature": response.signature.hex(),
            "credential_sets": {
                attribute: [export_json(c) for c in credentials]
                for attribute, credentials in credential_sets.items()
            },
        }
    ).encode("utf-8")
    sent = _send(
        urllib.request.Request(
            f"{endpoint}/authorize",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        ),
        timeout,
    )
    if isinstance(sent, AuthzDecision):
        return sent, None
    status, reply = sent
    try:
        following = Challenge.from_json(resource_id, reply["next"])
    except (KeyError, ValueError, TypeError, AbdError):
        following = None
    return AuthzDecision.from_json(status, reply), following


def _presentable(
    granted: Mapping[str, tuple[Credential, ...]],
    policy: Policy,
    subject_pub: bytes,
    subject_creds: tuple[Credential, ...],
    clock: int,
) -> bool:
    """Whether credential sets that granted can answer ``policy`` again:
    they answer its attributes, and each credential is among those the
    caller holds and still counts."""
    if set(granted) != set(policy.required_attributes):
        return False
    held = set(subject_creds)
    return all(
        credential in held and refusal(credential, subject_pub, clock) is None
        for credentials in granted.values()
        for credential in credentials
    )


def request_access(
    endpoint: str,
    resource_id: str,
    subject: NamespaceKey,
    subject_creds: Iterable[Credential],
    backend: NameSystemBackend,
    clock: int,
    timeout: float = 10.0,
) -> AuthzDecision:
    """Full subject-side round trip against a verifier endpoint.

    Answers a challenge (the policy and a nonce): collects proof credentials
    via local discovery, signs the response, and submits it. Every decision
    reply carries the next challenge, which the thread keeps beside its
    connection, so after its first request a thread makes one exchange per
    decision on a resource. It keeps one challenge per endpoint and
    resource, and fetches one with ``GET /policy`` only when it holds none.
    A carried nonce can go stale (it expired, or the verifier restarted or
    dropped it); if the verifier refuses one, the answer is sent once more,
    to the challenge the refusal carries (or, if it carries none, to one
    fetched with ``GET /policy``).
    The thread also keeps the credential sets that last granted the subject
    the resource, and re-presents them without a search while each is still
    held and counts. If the verifier denies them, as after a revocation, they
    are forgotten and the answer is collected and sent once more, to the
    challenge the deny carries.
    Network failures reaching the verifier, replies that are not HTTP, not
    JSON objects or not decisions, replies whose status is not 200 unless
    they state an Error, and failures during collection surface as Error;
    a collection failure keeps the challenge it left unused.
    """
    subject_creds = tuple(subject_creds)  # a resend collects again
    kept = (endpoint, resource_id, subject.public_key)
    granted = _kept.grants.get(kept)
    challenge = _kept.challenges.pop((endpoint, resource_id), None)
    carried = challenge is not None
    while True:
        if challenge is None:
            challenge = _fetch_challenge(endpoint, resource_id, timeout)
            if isinstance(challenge, AuthzDecision):
                return challenge
        policy = challenge.policy
        reused = granted is not None and _presentable(
            granted, policy, subject.public_key, subject_creds, clock
        )
        if reused:
            credential_sets = granted
        else:
            chains = _collect(
                subject.public_key, subject_creds, challenge.verifier,
                policy.required_attributes, backend, clock,
            )
            if isinstance(chains, AuthzDecision):
                decision = chains  # the challenge is still unused: keep it
                break
            credential_sets = {
                attribute: tuple(chains[attribute].credentials()) if attribute in chains else ()
                for attribute in policy.required_attributes
            }
        granted = None  # sets are re-presented at most once per call
        decision, challenge = _answer(
            endpoint, resource_id, challenge, subject, credential_sets, timeout
        )
        if decision.decision == GRANT:
            _kept.grants.pop(kept, None)
            _kept.grants[kept] = credential_sets
            if len(_kept.grants) > MAX_KEPT_GRANTS:
                del _kept.grants[next(iter(_kept.grants))]
        elif reused and decision.decision == DENY and not _refused(decision):
            # What granted last time no longer does, as after a revocation:
            # forget it and answer once more, from a search.
            _kept.grants.pop(kept, None)
            carried = False
            continue
        if not (carried and _refused(decision)):
            break
        carried = False
    if challenge is not None:
        _kept.challenges[endpoint, resource_id] = challenge
    return decision
