"""The ``abd`` command line.

Exit codes: 0 success, 1 domain denial (access denied, nothing found),
2 operational error, 64 usage error. All state lives under --home (or
$ABD_HOME, default ~/.abd): the local namestore plus a file-backed name
system shared by every invocation against the same home.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import scenario
from .authz import (
    GRANT,
    DENY,
    PolicyStore,
    VerifierService,
    close_connection,
    make_server,
    request_access,
)
from .core import DAYS, HOURS, MILLISECONDS, MINUTES, SECONDS, RecordType
from .credential import (
    decode_cred_payload,
    export_json,
    import_json,
    issue_credential,
    list_credentials,
    store_credential,
)
from .delegation import (
    DEFAULT_RECORD_LIFETIME_US,
    add_delegation,
    decode_attr_payload,
    list_delegations,
    parse_expression,
    remove_delegation,
    render_expression,
)
from .discovery import DiscoveryTrace, discover
from .errors import AbdError
from .namestore import NamespaceStore, PublishReport
from .netsim import FileBackend, resolve

EXIT_OK = 0
EXIT_DENIED = 1
EXIT_ERROR = 2
EXIT_USAGE = 64

_DURATION_UNITS = {
    "us": 1,
    "ms": MILLISECONDS,
    "s": SECONDS,
    "m": MINUTES,
    "h": HOURS,
    "d": DAYS,
}


def parse_duration(text: str) -> int:
    """'30d', '1h', '90s', '500ms', '1000us', or a bare microsecond count.
    A lifetime must be positive: zero or less raises ValueError."""
    text = text.strip()
    for suffix, factor in sorted(_DURATION_UNITS.items(), key=lambda kv: -len(kv[0])):
        if text.endswith(suffix):
            duration = int(text[: -len(suffix)]) * factor
            break
    else:
        duration = int(text)
    if duration <= 0:
        raise ValueError(f"duration must be positive, not {text!r}")
    return duration


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class Cli:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.home = Path(args.home)
        self.json_mode: bool = args.json

    @property
    def store(self) -> NamespaceStore:
        return NamespaceStore(self.home)

    @property
    def backend(self) -> FileBackend:
        return FileBackend(self.home / "backend")

    @property
    def clock(self) -> int:
        if self.args.clock_us is not None:
            return self.args.clock_us
        return time.time_ns() // 1_000

    def emit(self, payload: dict, human: Optional[list[str]] = None) -> None:
        if self.json_mode:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in human if human is not None else [json.dumps(payload)]:
                print(line)


# --- identity -----------------------------------------------------------------


def cmd_identity_create(cli: Cli) -> int:
    seed = bytes.fromhex(cli.args.seed) if cli.args.seed else None
    key = cli.store.create_identity(petname=cli.args.name, seed=seed)
    cli.emit(
        {"petname": cli.args.name, "public_key": key.hex},
        [f"{cli.args.name} {key.hex}"],
    )
    return EXIT_OK


def cmd_identity_ls(cli: Cli) -> int:
    rows = cli.store.identities()
    cli.emit(
        {"identities": [{"petname": n, "public_key": k} for n, k in rows]},
        [f"{n} {k}" for n, k in rows],
    )
    return EXIT_OK


# --- delegations ----------------------------------------------------------------


def cmd_delegate_add(cli: Cli) -> int:
    store = cli.store
    issuer = store.key_for(cli.args.issuer)
    expr = parse_expression(cli.args.to, store.petname_table())
    lifetime = parse_duration(cli.args.ttl) if cli.args.ttl else DEFAULT_RECORD_LIFETIME_US
    record = add_delegation(
        store,
        issuer,
        cli.args.attr,
        expr,
        clock=cli.clock,
        lifetime_us=lifetime,
        relative=cli.args.relative,
    )
    cli.emit(
        {
            "issuer": issuer.hex,
            "attribute": cli.args.attr,
            "expression": render_expression(expr, store.names_by_key()),
            "relative": record.relative,
            "expiration_us": record.expiration_us,
        },
        [
            f"{cli.args.issuer}.{cli.args.attr} <- "
            f"{render_expression(expr, store.names_by_key())}"
            " (publish to make it resolvable)"
        ],
    )
    return EXIT_OK


def cmd_delegate_ls(cli: Cli) -> int:
    store = cli.store
    issuer = store.key_for(cli.args.issuer)
    names = store.names_by_key()
    rows = list_delegations(store, issuer.public_key)
    cli.emit(
        {
            "issuer": issuer.hex,
            "delegations": [
                {
                    "attribute": label,
                    "expression": render_expression(expr, names),
                    "relative": record.relative,
                    "expiration_us": record.expiration_us,
                }
                for label, expr, record in rows
            ],
        },
        [
            f"{cli.args.issuer}.{label} <- {render_expression(expr, names)}"
            for label, expr, _ in rows
        ],
    )
    return EXIT_OK


def cmd_delegate_rm(cli: Cli) -> int:
    store = cli.store
    issuer = store.key_for(cli.args.issuer)
    expr = parse_expression(cli.args.to, store.petname_table())
    removed = remove_delegation(store, issuer, cli.args.attr, expr)
    cli.emit({"removed": removed}, ["removed" if removed else "no such delegation"])
    return EXIT_OK if removed else EXIT_DENIED


# --- credentials -----------------------------------------------------------------


def cmd_cred_issue(cli: Cli) -> int:
    store = cli.store
    issuer = store.key_for(cli.args.issuer)
    subject = store.key_for(cli.args.subject)
    lifetime = parse_duration(cli.args.ttl) if cli.args.ttl else DEFAULT_RECORD_LIFETIME_US
    credential = issue_credential(
        issuer,
        subject.public_key,
        cli.args.attr,
        clock=cli.clock,
        lifetime_us=lifetime,
    )
    payload = export_json(credential)
    if cli.args.out:
        Path(cli.args.out).write_text(json.dumps(payload, indent=2) + "\n")
    cli.emit(payload, [json.dumps(payload)])
    return EXIT_OK


def cmd_cred_import(cli: Cli) -> int:
    store = cli.store
    holder = store.key_for(cli.args.holder)
    raw = json.loads(Path(cli.args.file).read_text())
    items = raw if isinstance(raw, list) else [raw]
    credentials = [import_json(item) for item in items]
    for credential in credentials:
        store_credential(store, holder, credential)
    cli.emit(
        {"imported": len(credentials)},
        [f"imported {len(credentials)} credential(s)"],
    )
    return EXIT_OK


def cmd_cred_ls(cli: Cli) -> int:
    store = cli.store
    holder = store.key_for(cli.args.holder)
    names = store.names_by_key()
    credentials = list_credentials(store, holder.public_key)
    cli.emit(
        {"credentials": [export_json(c) for c in credentials]},
        [
            f"{names.get(c.issuer, c.issuer.hex())}.{c.attribute}"
            f" -> {names.get(c.subject, c.subject.hex())}"
            f" (expires {c.expiration_us})"
            for c in credentials
        ],
    )
    return EXIT_OK


# --- name system -------------------------------------------------------------------


def cmd_publish(cli: Cli) -> int:
    store = cli.store
    backend = cli.backend
    if cli.args.all:
        # Every identity this home can sign for; the rest are others' keys.
        keys = [store.key_for(name) for name, _ in store.identities()]
        keys = [key for key in keys if key.has_private]
    else:
        keys = [store.key_for(cli.args.issuer)]  # publish raises without a private key
    reports = []
    for key in keys:
        try:
            reports.append(store.publish(key, backend, cli.clock))
        except (AbdError, OSError) as exc:
            if not cli.args.all:
                raise  # one namespace asked for: one stderr line
            reports.append(PublishReport(key.public_key, error=str(exc)))
    payload = {
        "reports": [
            {
                "namespace": report.namespace.hex(),
                "error": report.error,
                "entries": [
                    {
                        "label": entry.label,
                        "action": entry.action,
                        "expiration_us": entry.expiration_us,
                        "error": entry.error,
                    }
                    for entry in report.entries
                ],
            }
            for report in reports
        ]
    }
    human = []
    for report in reports:
        if report.error is not None:
            human.append(f"{report.namespace.hex()[:16]}: {report.error}")
        for entry in report.entries:
            status = entry.error or entry.action
            human.append(f"{report.namespace.hex()[:16]} {entry.label}: {status}")
    cli.emit(payload, human)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_ERROR


def cmd_resolve(cli: Cli) -> int:
    store = cli.store
    namespace = store.key_for(cli.args.ns)
    record_type = RecordType[cli.args.type]
    records = resolve(
        cli.args.label, namespace.public_key, record_type, cli.backend, cli.clock
    )
    if records is None:
        print(
            f"abd: no record set for label {cli.args.label!r}"
            f" in namespace {namespace.public_key.hex()[:16]}",
            file=sys.stderr,
        )
        return EXIT_DENIED
    names = store.names_by_key()
    human = []
    rows = []
    for record in records:
        if record.record_type == RecordType.ATTR:
            rendered = render_expression(decode_attr_payload(record.payload), names)
        else:
            rendered = json.dumps(export_json(decode_cred_payload(record.payload)))
        rows.append(
            {
                "type": record_type.name,
                "value": rendered,
                "expiration_us": record.expiration_us,
            }
        )
        human.append(f"{record_type.name} {rendered} expires={record.expiration_us}")
    cli.emit({"records": rows}, human or ["empty record set"])
    return EXIT_OK


def cmd_discover(cli: Cli) -> int:
    store = cli.store
    issuer = store.key_for(cli.args.issuer)
    subject = store.key_for(cli.args.subject)
    if cli.args.creds:
        raw = json.loads(Path(cli.args.creds).read_text())
        credentials = [import_json(item) for item in (raw if isinstance(raw, list) else [raw])]
    else:
        credentials = list_credentials(store, subject.public_key)
    trace = DiscoveryTrace()
    chain = discover(
        issuer_pub=issuer.public_key,
        attribute=cli.args.attr,
        subject_pub=subject.public_key,
        subject_creds=credentials,
        backend=cli.backend,
        clock=cli.clock,
        trace=trace,
    )
    names = store.names_by_key()
    if chain is None:
        cli.emit(
            {"found": False, "trace": trace.render(names)},
            ["no chain"] + [f"  {line}" for line in trace.render(names)],
        )
        return EXIT_DENIED
    cli.emit(
        {"found": True, "chain": chain.to_dict(names), "trace": trace.render(names)},
        ["chain found"]
        + [f"  {line}" for line in trace.render(names)]
        + [json.dumps(chain.to_dict(names), indent=2)],
    )
    return EXIT_OK


# --- authorization ------------------------------------------------------------------


def cmd_serve(cli: Cli) -> int:
    store = cli.store
    verifier = store.key_for(cli.args.identity)
    policies = PolicyStore.from_file(Path(cli.args.policy))
    host, _, port_text = cli.args.listen.rpartition(":")
    service = VerifierService(
        verifier_pub=verifier.public_key,
        policies=policies,
        backend=cli.backend,
        clock_fn=lambda: cli.clock,
    )
    server = make_server(service, host or "127.0.0.1", int(port_text))
    actual_host, actual_port = server.server_address[:2]
    print(f"listening on http://{actual_host}:{actual_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def cmd_request(cli: Cli) -> int:
    store = cli.store
    subject = store.key_for(cli.args.identity)
    credentials = list_credentials(store, subject.public_key)
    try:
        outcome = request_access(
            endpoint=cli.args.endpoint.rstrip("/"),
            resource_id=cli.args.resource,
            subject=subject,
            subject_creds=credentials,
            backend=cli.backend,
            clock=cli.clock,
        )
    finally:
        close_connection()
    cli.emit(
        outcome.to_json(),
        [outcome.decision]
        + [f"  reason: {reason}" for reason in outcome.reasons]
        + [f"  chain: {summary}" for summary in outcome.chain_summaries],
    )
    if outcome.decision == GRANT:
        return EXIT_OK
    if outcome.decision == DENY:
        return EXIT_DENIED
    return EXIT_ERROR


# --- scenario --------------------------------------------------------------------------


def cmd_scenario_init(cli: Cli) -> int:
    clock = cli.clock
    fixture = scenario.scenario_init(
        cli.home,
        lambda: FileBackend(cli.home / "backend"),
        clock=clock,
        force=cli.args.force,
    )
    rows = fixture.store.identities()
    cli.emit(
        {
            "identities": [{"petname": n, "public_key": k} for n, k in rows],
            "resource": scenario.RESOURCE_ID,
            "policy": str(fixture.policy_path),
            "clock_us": clock,
        },
        [f"{n} {k}" for n, k in rows]
        + [
            f"policy {fixture.policy_path}",
            f"resource {scenario.RESOURCE_ID}",
            "try: abd discover --issuer portal --attr user --subject bob",
        ],
    )
    return EXIT_OK


# --- wiring ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="abd", description=__doc__)
    parser.add_argument(
        "--home",
        default=os.environ.get("ABD_HOME", os.path.expanduser("~/.abd")),
        help="data directory (default $ABD_HOME or ~/.abd)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--clock-us",
        type=int,
        default=None,
        help="fixed clock in microseconds since epoch (default: system time)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    identity = sub.add_parser("identity", help="manage local keypairs")
    identity_sub = identity.add_subparsers(dest="subcommand", required=True)
    create = identity_sub.add_parser("create")
    create.add_argument("--name", required=True)
    create.add_argument("--seed", help="32-byte hex seed for deterministic keys")
    create.set_defaults(func=cmd_identity_create)
    ls = identity_sub.add_parser("ls")
    ls.set_defaults(func=cmd_identity_ls)

    delegate = sub.add_parser("delegate", help="manage attribute delegations")
    delegate_sub = delegate.add_subparsers(dest="subcommand", required=True)
    add = delegate_sub.add_parser("add")
    add.add_argument("--issuer", required=True)
    add.add_argument("--attr", required=True)
    add.add_argument("--to", required=True, help="expression, e.g. 'acme.team.lead & bob'")
    add.add_argument("--ttl", help="record lifetime (e.g. 30d, 1h)")
    add.add_argument(
        "--relative",
        action="store_true",
        help="stamp expiration at publish time instead of now",
    )
    add.set_defaults(func=cmd_delegate_add)
    dls = delegate_sub.add_parser("ls")
    dls.add_argument("--issuer", required=True)
    dls.set_defaults(func=cmd_delegate_ls)
    rm = delegate_sub.add_parser("rm")
    rm.add_argument("--issuer", required=True)
    rm.add_argument("--attr", required=True)
    rm.add_argument("--to", required=True)
    rm.set_defaults(func=cmd_delegate_rm)

    cred = sub.add_parser("cred", help="issue, import, and list credentials")
    cred_sub = cred.add_subparsers(dest="subcommand", required=True)
    issue = cred_sub.add_parser("issue")
    issue.add_argument("--issuer", required=True)
    issue.add_argument("--subject", required=True)
    issue.add_argument("--attr", required=True)
    issue.add_argument("--ttl")
    issue.add_argument("--out", help="also write the credential JSON to a file")
    issue.set_defaults(func=cmd_cred_issue)
    cimport = cred_sub.add_parser("import")
    cimport.add_argument("file")
    cimport.add_argument("--holder", required=True)
    cimport.set_defaults(func=cmd_cred_import)
    cls_ = cred_sub.add_parser("ls")
    cls_.add_argument("--holder", required=True)
    cls_.set_defaults(func=cmd_cred_ls)

    publish = sub.add_parser("publish", help="push namespaces into the name system")
    group = publish.add_mutually_exclusive_group(required=True)
    group.add_argument("--issuer")
    group.add_argument("--all", action="store_true")
    publish.set_defaults(func=cmd_publish)

    resolve_cmd = sub.add_parser("resolve", help="look up records under a label")
    resolve_cmd.add_argument("--ns", required=True)
    resolve_cmd.add_argument("--label", required=True)
    resolve_cmd.add_argument("--type", default="ATTR", choices=["ATTR", "CRED"])
    resolve_cmd.set_defaults(func=cmd_resolve)

    discover_cmd = sub.add_parser("discover", help="search for a delegation chain")
    discover_cmd.add_argument("--issuer", required=True)
    discover_cmd.add_argument("--attr", required=True)
    discover_cmd.add_argument("--subject", required=True)
    discover_cmd.add_argument("--creds", help="credential JSON file (default: holder's store)")
    discover_cmd.set_defaults(func=cmd_discover)

    serve = sub.add_parser("serve", help="run the verifier HTTP service")
    serve.add_argument("--policy", required=True)
    serve.add_argument("--identity", required=True)
    serve.add_argument("--listen", default="127.0.0.1:8080")
    serve.set_defaults(func=cmd_serve)

    request = sub.add_parser("request", help="request access from a verifier")
    request.add_argument("--endpoint", required=True)
    request.add_argument("--resource", required=True)
    request.add_argument("--identity", required=True)
    request.set_defaults(func=cmd_request)

    scenario_cmd = sub.add_parser("scenario", help="fixture management")
    scenario_sub = scenario_cmd.add_subparsers(dest="subcommand", required=True)
    init = scenario_sub.add_parser("init")
    init.add_argument("--force", action="store_true")
    init.set_defaults(func=cmd_scenario_init)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cli = Cli(args)
    try:
        return args.func(cli)
    except (AbdError, OSError, ValueError) as exc:
        print(f"abd: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
