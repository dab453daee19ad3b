"""End-to-end exercises of the ``abd`` command line via ``main(argv)``."""
from __future__ import annotations

import http.client
import json
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from abd import authz, scenario
from abd.cli import main, parse_duration
from abd.core import DAYS, HOURS, MILLISECONDS, MINUTES, SECONDS, NamespaceKey

EPOCH = scenario.FIXTURE_EPOCH_US
PORTAL_PUB = "3e172219bd37b625875e2741829fb1987418a37141d0a93885756eeab47b1025"


@pytest.fixture
def abd(tmp_path, capsys):
    """Run the CLI against a throwaway home; returns parsed JSON output."""
    home = tmp_path / "home"

    def run(*argv, expect=0, clock=EPOCH, json_mode=True):
        args = ["--home", str(home)]
        if clock is not None:
            args += ["--clock-us", str(clock)]
        if json_mode:
            args.append("--json")
        code = main(args + [str(item) for item in argv])
        captured = capsys.readouterr()
        assert code == expect, f"exit {code}: {captured.out}{captured.err}"
        if not json_mode:
            return captured.out
        return json.loads(captured.out) if captured.out.strip() else None

    run.home = home
    return run


# --- argument handling ------------------------------------------------------------


def test_missing_command_is_a_usage_error():
    assert main([]) == 64


def test_unknown_command_is_a_usage_error():
    assert main(["frobnicate"]) == 64


def test_missing_subcommand_is_a_usage_error(tmp_path):
    assert main(["--home", str(tmp_path), "identity"]) == 64


def test_publish_requires_a_target(tmp_path):
    assert main(["--home", str(tmp_path), "publish"]) == 64


def test_parse_duration_units():
    assert parse_duration("30d") == 30 * DAYS
    assert parse_duration("1h") == HOURS
    assert parse_duration("90s") == 90 * SECONDS
    assert parse_duration("5m") == 5 * MINUTES
    assert parse_duration("500ms") == 500 * MILLISECONDS
    assert parse_duration("1000us") == 1000
    assert parse_duration("42") == 42
    for text in ("soon", "-1h", "0", "0s"):
        with pytest.raises(ValueError):
            parse_duration(text)


# --- identities -----------------------------------------------------------------------


def test_identity_create_and_ls(abd):
    created = abd("identity", "create", "--name", "acme")
    assert created["petname"] == "acme"
    assert len(bytes.fromhex(created["public_key"])) == 32
    listed = abd("identity", "ls")
    assert listed["identities"] == [
        {"petname": "acme", "public_key": created["public_key"]}
    ]


def test_identity_create_with_seed_is_deterministic(abd):
    created = abd(
        "identity", "create", "--name", "portal", "--seed", scenario.SEEDS["portal"]
    )
    assert created["public_key"] == PORTAL_PUB


def test_unknown_petname_is_an_operational_error(abd, capsys):
    abd("delegate", "ls", "--issuer", "ghost", expect=2)


# --- scenario init -----------------------------------------------------------------


def test_scenario_init_builds_the_demo_world(abd):
    payload = abd("scenario", "init")
    names = {row["petname"] for row in payload["identities"]}
    assert names == set(scenario.SEEDS)
    assert payload["resource"] == scenario.RESOURCE_ID
    # A second init refuses to clobber the home without force.
    abd("scenario", "init", expect=2)
    assert abd("scenario", "init", "--force") is not None


# --- delegations --------------------------------------------------------------------


def test_delegate_add_ls_rm_round_trip(abd):
    abd("identity", "create", "--name", "acme")
    abd("identity", "create", "--name", "rob")
    added = abd(
        "delegate", "add", "--issuer", "acme", "--attr", "dev", "--to", "rob",
        "--ttl", "30d",
    )
    assert added["expression"] == "rob"
    assert added["expiration_us"] == EPOCH + 30 * DAYS
    listed = abd("delegate", "ls", "--issuer", "acme")
    assert [d["attribute"] for d in listed["delegations"]] == ["dev"]
    assert abd("delegate", "rm", "--issuer", "acme", "--attr", "dev", "--to", "rob")[
        "removed"
    ]
    abd("delegate", "rm", "--issuer", "acme", "--attr", "dev", "--to", "rob", expect=1)
    assert abd("delegate", "ls", "--issuer", "acme")["delegations"] == []


# --- credentials ---------------------------------------------------------------------


def test_cred_issue_import_ls(abd, tmp_path):
    abd("scenario", "init")
    out_path = tmp_path / "auditor.json"
    issued = abd(
        "cred", "issue", "--issuer", "lab-two", "--subject", "bob",
        "--attr", "auditor", "--ttl", "1h", "--out", out_path,
    )
    assert issued["attribute"] == "auditor"
    assert issued["expiration_us"] == EPOCH + HOURS
    assert json.loads(out_path.read_text())["attribute"] == "auditor"

    before = abd("cred", "ls", "--holder", "bob")["credentials"]
    abd("cred", "import", out_path, "--holder", "bob")
    after = abd("cred", "ls", "--holder", "bob")["credentials"]
    assert len(after) == len(before) + 1
    assert {c["attribute"] for c in after} == {"employee", "controller", "auditor"}


def test_cred_import_accepts_lists(abd):
    abd("scenario", "init")
    # The fixture writes bob's credentials as a JSON list.
    imported = abd(
        "cred", "import", abd.home / "bob-credentials.json", "--holder", "bob"
    )
    assert imported["imported"] == 2


# --- publish and resolve ----------------------------------------------------------------


def test_resolve_after_publish(abd):
    abd("scenario", "init")
    records = abd("resolve", "--ns", "portal", "--label", "user")["records"]
    assert [r["value"] for r in records] == ["world-agency.nado.dco"]
    both = abd("resolve", "--ns", "world-agency", "--label", "nado")["records"]
    assert sorted(r["value"] for r in both) == ["national-agency", "us-agency"]


def test_credentials_stay_local_after_publish(abd):
    abd("scenario", "init")
    abd("publish", "--all")
    # A holder's credentials live in a file of their own, never in a label,
    # so the name system has no set at all under bob's credential
    # attributes: authoritative absence, exit 1.
    payload = abd(
        "resolve", "--ns", "bob", "--label", "employee", "--type", "CRED",
        expect=1,
    )
    assert payload is None


def test_publish_all_reports_every_namespace(abd):
    abd("scenario", "init")
    payload = abd("publish", "--all")
    published = {report["namespace"] for report in payload["reports"]}
    assert len(published) == len(scenario.SEEDS)
    for report in payload["reports"]:
        assert all(entry["error"] is None for entry in report["entries"])


def test_revocation_beside_an_expired_delegation_publishes(abd):
    for name in ("agency", "lab-a", "lab-b"):
        abd("identity", "create", "--name", name)
    for subject, ttl in (("lab-a", "1d"), ("lab-b", "30d")):
        abd("delegate", "add", "--issuer", "agency", "--attr", "dco", "--to", subject, "--ttl", ttl)
    abd("publish", "--issuer", "agency")
    later = EPOCH + 2 * DAYS
    records = abd("resolve", "--ns", "agency", "--label", "dco", clock=later)["records"]
    assert [r["value"] for r in records] == ["lab-b"]

    abd("delegate", "rm", "--issuer", "agency", "--attr", "dco", "--to", "lab-b", clock=later)
    payload = abd("publish", "--issuer", "agency", clock=later)
    assert [e["action"] for e in payload["reports"][0]["entries"]] == ["deleted"]
    abd("resolve", "--ns", "agency", "--label", "dco", clock=later, expect=1)


def test_a_seed_file_of_another_key_fails_delegate_and_publish_on_one_line(abd, capsys):
    acme = abd("identity", "create", "--name", "acme")["public_key"]
    rob = abd("identity", "create", "--name", "rob")["public_key"]
    abd("delegate", "add", "--issuer", "acme", "--attr", "dev", "--to", "rob")
    keys = abd.home / "keys"
    (keys / f"{acme}.seed").write_bytes((keys / f"{rob}.seed").read_bytes())
    for argv in (
        ["delegate", "add", "--issuer", "acme", "--attr", "ops", "--to", "rob"],
        ["publish", "--issuer", "acme"],
    ):
        code = main(["--home", str(abd.home), *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("abd: the private key held for namespace")
    assert not (abd.home / "names" / acme / "ops.rrset").exists()


def test_publish_all_reports_a_namespace_it_cannot_sign_for_and_publishes_the_rest(abd, capsys):
    keys = {name: abd("identity", "create", "--name", name)["public_key"] for name in ("acme", "zed", "zoo")}
    for issuer, subject in (("acme", "zed"), ("zed", "acme"), ("zoo", "acme")):
        abd("delegate", "add", "--issuer", issuer, "--attr", "dev", "--to", subject)
    seeds = abd.home / "keys"
    (seeds / f"{keys['zed']}.seed").write_bytes((seeds / f"{keys['acme']}.seed").read_bytes())
    payload = abd("publish", "--all", expect=2)
    reports = {report["namespace"]: report for report in payload["reports"]}
    assert reports[keys["zed"]]["entries"] == []
    assert reports[keys["zed"]]["error"].startswith("the private key held for namespace")
    for name in ("acme", "zoo"):
        assert reports[keys[name]]["error"] is None
        assert [entry["action"] for entry in reports[keys[name]]["entries"]] == ["stored"]
        abd("resolve", "--ns", name, "--label", "dev")
    lines = abd("publish", "--all", expect=2, json_mode=False).splitlines()
    assert lines == [
        f"{keys['acme'][:16]} dev: stored",
        f"{keys['zed'][:16]}: {reports[keys['zed']]['error']}",
        f"{keys['zoo'][:16]} dev: stored",
    ]


def test_publish_of_an_issuer_without_its_private_key_fails_on_one_line(abd, capsys):
    acme = abd("identity", "create", "--name", "acme")["public_key"]
    abd("delegate", "add", "--issuer", "acme", "--attr", "dev", "--to", "acme")
    (abd.home / "keys" / f"{acme}.seed").unlink()
    code = main(["--home", str(abd.home), "publish", "--issuer", "acme"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.count("\n") == 1 and captured.err.startswith("abd: ")
    assert not list((abd.home / "backend").glob("*.rrset"))


def test_a_non_positive_ttl_is_refused_and_the_label_left_as_it_was(abd, capsys):
    abd("identity", "create", "--name", "me")
    abd("delegate", "add", "--issuer", "me", "--attr", "dev", "--to", "me")
    (label_file,) = (abd.home / "names").glob("*/dev.rrset")
    before = label_file.read_bytes()
    for ttl in ("-1h", "0", "0s"):
        argv = ["delegate", "add", "--issuer", "me", "--attr", "dev", "--to", "me", f"--ttl={ttl}"]
        code = main(["--home", str(abd.home), *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"abd: duration must be positive, not {ttl!r}\n"
    assert label_file.read_bytes() == before


def test_resolve_of_a_deleted_label_exits_1_naming_the_label(abd, capsys):
    agency = abd("identity", "create", "--name", "agency")["public_key"]
    abd("identity", "create", "--name", "lab")
    abd("delegate", "add", "--issuer", "agency", "--attr", "dco", "--to", "lab")
    abd("publish", "--issuer", "agency")
    abd("delegate", "rm", "--issuer", "agency", "--attr", "dco", "--to", "lab")
    abd("publish", "--issuer", "agency")
    code = main(["--home", str(abd.home), "resolve", "--ns", "agency", "--label", "dco"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"abd: no record set for label 'dco' in namespace {agency[:16]}\n"


# --- discovery ----------------------------------------------------------------------


def test_discover_finds_bobs_chain(abd):
    abd("scenario", "init")
    payload = abd(
        "discover", "--issuer", "portal", "--attr", "user", "--subject", "bob"
    )
    assert payload["found"]
    assert payload["chain"]["attribute"] == "user"
    assert any("resolve" in line for line in payload["trace"])


def test_discover_reads_credentials_from_a_file(abd):
    abd("scenario", "init")
    payload = abd(
        "discover", "--issuer", "portal", "--attr", "user", "--subject", "bob",
        "--creds", abd.home / "bob-credentials.json",
    )
    assert payload["found"]


def test_discover_denies_a_stranger(abd):
    abd("scenario", "init")
    abd("identity", "create", "--name", "nobody")
    payload = abd(
        "discover", "--issuer", "portal", "--attr", "user", "--subject", "nobody",
        expect=1,
    )
    assert not payload["found"]
    assert payload["trace"]


# --- serve and request -------------------------------------------------------------------


@contextmanager
def serving(home, stderr=subprocess.DEVNULL):
    """An ``abd serve`` child for the scenario's portal, its stderr going to
    ``stderr``; yields the child and its endpoint, and stops the child on
    exit."""
    server = subprocess.Popen(
        [
            sys.executable, "-m", "abd",
            "--home", str(home),
            "--clock-us", str(EPOCH),
            "serve",
            "--policy", str(home / "policy.json"),
            "--identity", "portal",
            "--listen", "127.0.0.1:0",
        ],
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    )
    try:
        banner = server.stdout.readline().strip()
        assert banner.startswith("listening on http://")
        yield server, banner.split()[-1]
    finally:
        if server.poll() is None:
            server.terminate()
        server.wait(timeout=10)
        server.stdout.close()


def test_serve_then_request_over_http(abd):
    abd("scenario", "init")
    abd("identity", "create", "--name", "nobody")
    with serving(abd.home) as (_, endpoint):
        granted = abd(
            "request", "--endpoint", endpoint,
            "--resource", scenario.RESOURCE_ID, "--identity", "bob",
        )
        assert granted["decision"] == "grant"
        assert granted["chain_summaries"]

        denied = abd(
            "request", "--endpoint", endpoint,
            "--resource", scenario.RESOURCE_ID, "--identity", "nobody",
            expect=1,
        )
        assert denied["decision"] == "deny"


def test_a_one_shot_request_grants_over_the_signed_path(abd, monkeypatch):
    abd("scenario", "init")
    signed, maced = [], []
    sign, mac = NamespaceKey.sign, authz._mac
    monkeypatch.setattr(NamespaceKey, "sign", lambda key, message: signed.append(message) or sign(key, message))
    monkeypatch.setattr(authz, "_mac", lambda *args: maced.append(args) or mac(*args))
    with serving(abd.home) as (_, endpoint):
        granted = abd(
            "request", "--endpoint", endpoint,
            "--resource", scenario.RESOURCE_ID, "--identity", "bob",
        )
    assert granted["decision"] == "grant" and "session_key" not in granted
    # A session it would never use is not offered: the answer is signed
    # under AUTHZ_CONTEXT, as a client that knows no sessions signs it.
    assert len(signed) == 1 and signed[0].startswith(authz.AUTHZ_CONTEXT)
    assert maced == []


def test_request_closes_its_connection_before_exit(abd):
    abd("scenario", "init")
    with serving(abd.home) as (_, endpoint):
        request = subprocess.run(
            [
                sys.executable, "-X", "dev", "-m", "abd",
                "--home", str(abd.home),
                "--clock-us", str(EPOCH),
                "request", "--endpoint", endpoint,
                "--resource", scenario.RESOURCE_ID, "--identity", "bob",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
    assert request.returncode == 0, request.stderr
    assert request.stdout.startswith("grant")
    assert "ResourceWarning" not in request.stderr


def test_serve_stops_promptly_with_a_kept_alive_connection_open(abd):
    abd("scenario", "init")
    with serving(abd.home) as (server, endpoint):
        host, port = endpoint.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            connection.request("GET", f"/policy/{scenario.RESOURCE_ID}")
            reply = connection.getresponse()
            reply.read()
            assert reply.status == 200 and connection.sock is not None  # kept open, idle
            server.send_signal(signal.SIGINT)
            # A healthy server exits at once; one that joins the kept-alive
            # connection's thread waits out READ_TIMEOUT_S. Half of that
            # tells the two apart, with room for a loaded machine.
            assert server.wait(timeout=authz.READ_TIMEOUT_S / 2) == 0
        finally:
            connection.close()


# Requests cut off before their head ends: a peer that closes then is gone,
# and nothing is answered or reported.
PARTIAL_HEADS = [
    b"",
    b"GET /pol",
    b"GET /policy/" + scenario.RESOURCE_ID.encode() + b" HTTP/1.1\r\n",
    b"POST /authorize HTTP/1.1\r\nContent-Len",
    b"GET /policy/" + scenario.RESOURCE_ID.encode() + b" HTTP/1.1\r\nHost: 127.0.0.1\r\n",
]


def test_serve_closes_quietly_when_a_client_hangs_up_mid_head(abd, tmp_path):
    abd("scenario", "init")
    with open(tmp_path / "serve.err", "w+") as errors:
        with serving(abd.home, stderr=errors) as (_, endpoint):
            host, port = endpoint.removeprefix("http://").split(":")
            for index in range(10):
                with socket.create_connection((host, int(port)), timeout=5) as sock:
                    sock.sendall(PARTIAL_HEADS[index % len(PARTIAL_HEADS)])
            # The server still answers, and has had time to read every close.
            connection = http.client.HTTPConnection(host, int(port), timeout=5)
            try:
                connection.request("GET", f"/policy/{scenario.RESOURCE_ID}")
                assert connection.getresponse().status == 200
            finally:
                connection.close()
            time.sleep(0.2)
        errors.seek(0)
        assert errors.read() == ""


@pytest.mark.parametrize("attributes", ["user", 5, [1]], ids=["string", "number", "list-of-number"])
def test_serve_refuses_a_policy_value_that_is_not_a_list_of_labels(
    abd, tmp_path, capsys, attributes
):
    abd("identity", "create", "--name", "portal")
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"wiki": attributes}))
    code = main(["--home", str(abd.home), "serve", "--policy", str(policy), "--identity", "portal"])
    assert code == 2
    assert "'wiki'" in capsys.readouterr().err


def test_request_against_a_dead_endpoint_is_an_error(abd):
    abd("scenario", "init")
    payload = abd(
        "request", "--endpoint", "http://127.0.0.1:9",
        "--resource", scenario.RESOURCE_ID, "--identity", "bob",
        expect=2,
    )
    assert payload["decision"] == "error"
