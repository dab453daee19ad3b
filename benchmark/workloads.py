"""The three workloads: a verifier over loopback HTTP, a large federation on
a simulated DHT, and revocation churn on a small ring.

Each workload builds its world (``build``, timed as set-up), warms up, then
runs a closed loop for a fixed wall-clock window (``measure``), in slices
with the host-speed reference timed between them (see ``hostspeed``). Every
operation is checked against the world's own model as it completes.
"""
from __future__ import annotations

import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from abd import authz, scenario
from abd.authz import DENY, ERROR, GRANT, NonceTable, Policy, build_response
from abd.core import SECONDS, NamespaceKey
from abd.credential import list_credentials
from abd.delegation import add_delegation, list_delegations, parse_expression, remove_delegation
from abd.discovery import oracle_entailed
from abd.namestore import NamespaceStore
from abd.netsim import DhtConfig, FileBackend, SimulatedDht

import hostspeed
from tracer import Tracer, merge, read_spans, summarize
from world import DECOY_LABEL, Federation, Shape

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CLOCK = scenario.FIXTURE_EPOCH_US
POLICY = Policy(resource_id=scenario.RESOURCE_ID, required_attributes=("user",))
SERVER_START_TIMEOUT_S = 30
SERVER_STOP_TIMEOUT_S = 10
REQUEST_TIMEOUT_S = 10

FAILURE_KINDS = (
    "false_grant",
    "false_deny",
    "stale_grant",
    "deny_during_outage",
    "error_outside_outage",
    "exception",
    "dropped_connection",
    "publish_failed",
    "bad_reply",
)


@dataclass
class Window:
    """What one measured window saw."""

    decide_ns: list[int] = field(default_factory=list)
    publish_ns: list[int] = field(default_factory=list)
    decisions: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    lookups: Counter = field(default_factory=Counter)  # LookupStats deltas over decisions
    examples: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.decide_ns) + len(self.publish_ns) + self.failures["exception"]

    def fail(self, kind: str, detail: str) -> None:
        self.failures[kind] += 1
        if len(self.examples) < 5:
            self.examples.append(f"{kind}: {detail}")

    def merge(self, other: "Window") -> None:
        self.elapsed_s += other.elapsed_s
        self.decide_ns += other.decide_ns
        self.publish_ns += other.publish_ns
        self.decisions += other.decisions
        self.failures += other.failures
        self.lookups += other.lookups
        self.examples += other.examples[: max(0, 5 - len(self.examples))]


def judge(window: Window, decision: str, expected: set[bool], who: str, outage=False, revoked=False) -> None:
    """Check one decision against the grant outcomes the model allows.

    During an outage ``error`` is also allowed. A grant for a lab whose
    revocation is older than the cache TTL is a stale grant.
    """
    window.decisions[decision] += 1
    if decision == ERROR:
        if not outage:
            window.fail("error_outside_outage", who)
    elif decision == GRANT and True not in expected:
        window.fail("stale_grant" if revoked else "false_grant", who)
    elif decision == DENY and False not in expected:
        window.fail("deny_during_outage" if outage else "false_deny", who)
    elif decision not in (GRANT, DENY):
        window.fail("bad_reply", f"{who}: unknown decision {decision!r}")


class Workload:
    name = ""
    clients = 1
    loopback = False
    # Spans a traced run must record; none of them may read zero calls.
    TRACED_SPANS: tuple[str, ...] = ()

    def __init__(self, seed: int, scratch: Path, spans_path: Path):
        self.seed = seed
        self.scratch = scratch
        self.spans_path = spans_path  # where traced runs keep their spans
        self.tracer: Optional[Tracer] = None

    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``build`` made; safe to call more than once."""

    def check_model(self) -> list[str]:
        """Disagreements between the workload's model and ``oracle_entailed``."""
        raise NotImplementedError

    def warm_up(self) -> Window:
        raise NotImplementedError

    def _run_for(self, seconds: float) -> Window:
        """Run the closed loop for about ``seconds`` of wall time."""
        raise NotImplementedError

    def measure(self, seconds: float) -> tuple[Window, float]:
        """Run for ``seconds`` in slices of ``hostspeed.SLICE_S`` with the
        reference timed between them. Returns the window as measured and the
        factor that scales its times to the reference host."""
        window, scale = Window(), hostspeed.Scale()
        deadline = time.perf_counter() + seconds
        while (left := deadline - time.perf_counter()) > 0:
            part = self._run_for(min(hostspeed.SLICE_S, left))
            scale.add(part.elapsed_s)
            window.merge(part)
        return window, scale.value

    def start_tracing(self, tracer: Tracer) -> Window:
        """Install ``tracer``; return what any extra warm-up this needed saw."""
        tracer.install()
        self.tracer = tracer
        return Window()

    def stop_tracing(self) -> dict:
        """Uninstall, save the spans and return their summary."""
        self.tracer.uninstall()
        self.tracer.write(self.spans_path)
        summary = summarize(self.tracer.spans)
        self.tracer = None
        return summary

    def describe(self) -> dict:
        return {}


# --- portal-http ------------------------------------------------------------------


class PortalHttp(Workload):
    """``abd serve`` as a child process; one client thread calls ``request_access``.

    The mix: bob (grant through the conjunction and contractor trail), alice
    (grant through the national branch), a stranger (deny) and bob holding
    only ``employee`` (deny). Client 0 is also the issuer: a WRITE_SHARE of
    its ops toggle a us-agency delegation under a label no policy reaches and
    publish it, so every workload reports publish_p50_ms. The server loaded
    its FileBackend at start-up and never sees these writes; the share is
    kept small so they take little from the clients.

    The bench and the server share one CPU (see run.py), so one client
    thread: a second would only queue behind the first for that CPU and put
    the scheduler's time slices into the tail latency.
    """

    name = "portal-http"
    clients = 1
    loopback = True
    MIX = (("bob", 0.3), ("alice", 0.3), ("stranger", 0.2), ("bob-employee", 0.2))
    WRITE_SHARE = 0.05
    WARMUP_S = 1.0
    TRACED_SPANS = (
        "authz.request_access", "authz.http.post", "credential.collect", "authz.authorize_payload",
        "authz.authorize", "authz.nonce", "credential.import_json", "credential.verify_credential",
        "discovery.discover", "netsim.resolve", "netsim.get.FileBackend", "core.verify_signature",
        "namestore.publish", "namestore.load_namespace", "netsim.put", "core.sign_record_set",
    )

    def __init__(self, seed: int, scratch: Path, spans_path: Path):
        super().__init__(seed, scratch, spans_path)
        self.server: Optional[subprocess.Popen] = None
        self.home: Optional[Path] = None
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    def build(self) -> None:
        self.home = Path(tempfile.mkdtemp(prefix="portal-", dir=self.scratch))
        subprocess.run(
            [sys.executable, "-m", "abd", "--home", str(self.home), "--clock-us", str(CLOCK), "scenario", "init"],
            env=self._env(),
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=SERVER_START_TIMEOUT_S,
        )
        self._start_server()
        self.store = NamespaceStore(self.home)
        self.backend = FileBackend(self.home / "backend")
        key, creds = self.store.key_for, lambda key: list_credentials(self.store, key.public_key)
        bob, alice = key("bob"), key("alice")
        stranger = NamespaceKey.generate(random.Random(self.seed).randbytes(32))
        self.subjects = {
            "bob": (bob, creds(bob), GRANT),
            "alice": (alice, creds(alice), GRANT),
            "stranger": (stranger, [], DENY),
            "bob-employee": (bob, [c for c in creds(bob) if c.attribute == "employee"], DENY),
        }
        self.issuer = key("us-agency")
        self.decoy = parse_expression("lab-two", self.store.petname_table())
        self.decoy_present = False
        self.rngs = [random.Random(f"{self.seed}/{index}") for index in range(self.clients)]
        self.ops = [0] * self.clients

    def _start_server(self, trace_path: Optional[Path] = None) -> None:
        launcher = ["-m", "abd"] if trace_path is None else [str(BENCH_DIR / "serve_traced.py"), str(trace_path)]
        command = [sys.executable, *launcher, "--home", str(self.home), "--clock-us", str(CLOCK), "serve",
                   "--policy", str(self.home / "policy.json"), "--identity", "portal", "--listen", "127.0.0.1:0"]
        self.server = subprocess.Popen(command, env=self._env(), stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.server.stdout], [], [], SERVER_START_TIMEOUT_S)
        line = self.server.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            self._stop_server()
            raise RuntimeError(f"abd serve did not start: {line!r}")
        self.endpoint = line.split()[-1]

    def _stop_server(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()
        self.server = None

    def close(self) -> None:
        self._stopping.set()
        for thread in self._threads:
            thread.join()
        self._stopping.clear()
        self._stop_server()
        if self.home is not None:
            shutil.rmtree(self.home, ignore_errors=True)
            self.home = None

    def check_model(self) -> list[str]:
        store = self.store
        delegations = [
            (issuer, label, expr)
            for issuer in (store.key_for(name).public_key for name in scenario.ISSUING)
            for label, expr, _ in list_delegations(store, issuer)
        ]
        portal = store.key_for("portal").public_key
        problems = []
        for who, (subject, creds, expected) in self.subjects.items():
            entailed = oracle_entailed(delegations, creds, portal, "user", subject.public_key)
            if entailed != (expected == GRANT):
                problems.append(f"{who}: model {expected}, oracle entails {entailed}")
        return problems

    def _toggle_decoy(self) -> bool:
        if self.decoy_present:
            remove_delegation(self.store, self.issuer, DECOY_LABEL, self.decoy)
        else:
            add_delegation(self.store, self.issuer, DECOY_LABEL, self.decoy, clock=CLOCK)
        self.decoy_present = not self.decoy_present
        return self.store.publish(self.issuer, self.backend, CLOCK).ok

    def _client(self, index: int, deadline: float, window: Window) -> None:
        rng, tracer = self.rngs[index], self.tracer
        names = [name for name, _ in self.MIX]
        weights = [weight for _, weight in self.MIX]
        while time.perf_counter() < deadline and not self._stopping.is_set():
            self.ops[index] += 1
            if tracer is not None:
                tracer.begin_op(index << 32 | self.ops[index])
            try:
                if index == 0 and rng.random() < self.WRITE_SHARE:
                    start = time.perf_counter_ns()
                    ok = self._toggle_decoy()
                    window.publish_ns.append(time.perf_counter_ns() - start)
                    if not ok:
                        window.fail("publish_failed", "us-agency decoy")
                    continue
                who = rng.choices(names, weights)[0]
                subject, creds, expected = self.subjects[who]
                start = time.perf_counter_ns()
                outcome = authz.request_access(
                    self.endpoint, scenario.RESOURCE_ID, subject, creds, self.backend, CLOCK, timeout=REQUEST_TIMEOUT_S
                )
                window.decide_ns.append(time.perf_counter_ns() - start)
            except Exception as exc:  # any raise is a failed op, never a crash of the bench
                window.fail("exception", repr(exc))
                continue
            if outcome.decision == ERROR and any("unreachable" in r for r in outcome.reasons):
                window.decisions[ERROR] += 1
                window.fail("dropped_connection", f"{who}: {outcome.reasons}")
            else:
                judge(window, outcome.decision, {expected == GRANT}, who)

    def _run_for(self, seconds: float) -> Window:
        windows = [Window() for _ in range(self.clients)]
        start = time.perf_counter()
        deadline = start + seconds
        self._threads = [
            threading.Thread(target=self._client, args=(i, deadline, windows[i])) for i in range(self.clients)
        ]
        for thread in self._threads:
            thread.start()
        for thread in self._threads:
            thread.join()
        total = Window(elapsed_s=time.perf_counter() - start)
        for window in windows:
            total.merge(window)
        return total

    def warm_up(self) -> Window:
        return self._run_for(self.WARMUP_S)

    def start_tracing(self, tracer: Tracer) -> Window:
        """Restart the verifier under the tracing launcher, warm it up, then
        trace the client. Returns the warm-up's window.

        The server also records its start-up and the warm-up requests;
        ``stop_tracing`` keeps only its spans inside the traced window, timed
        on the monotonic clock both processes share.
        """
        self._stop_server()
        self._trace_path = self.scratch / "server-spans.jsonl"
        self._start_server(self._trace_path)
        warm = self._run_for(self.WARMUP_S)
        super().start_tracing(tracer)
        self._traced_from_ns = time.perf_counter_ns()
        return warm

    def stop_tracing(self) -> dict:
        traced_until_ns = time.perf_counter_ns()
        client = super().stop_tracing()
        self._stop_server()
        shutil.copyfile(self._trace_path, self.spans_path.with_suffix(".server.jsonl"))
        inside = [s for s in read_spans(self._trace_path) if self._traced_from_ns <= s[2] and s[3] <= traced_until_ns]
        return merge(client, summarize(inside))

    def describe(self) -> dict:
        return {"clients": self.clients, "mix": dict(self.MIX), "client0_write_share": self.WRITE_SHARE}


# --- in-process workloads on the simulated DHT ------------------------------------


class DhtWorkload(Workload):
    """One thread calls ``authorize`` in process against a SimulatedDht.

    Simulated time moves only through ``advance_clock``: ADVANCE_STEP_US
    every ADVANCE_EVERY decisions, so response caches expire and stay
    bounded, and the share of writes does not change how much simulated time
    a decision sees. Warm-up runs the stream for WARMUP_TTLS cache TTLs of
    simulated time.
    """

    shape: Shape
    dht: DhtConfig
    ADVANCE_EVERY = 10
    ADVANCE_STEP_US = 0
    WARMUP_TTLS = 1
    TRACED_SPANS = (
        "authz.authorize", "authz.nonce", "discovery.discover", "netsim.resolve", "netsim.get.SimulatedDht",
        "netsim.dht.replica_nodes", "netsim.dht.advance_clock", "core.verify_signature",
        "credential.verify_credential", "delegation.decode_attr_payload", "namestore.publish",
        "namestore.load_namespace", "netsim.put", "core.sign_record_set", "core.canonical_deserialize",
    )

    def __init__(self, seed: int, scratch: Path, spans_path: Path):
        super().__init__(seed, scratch, spans_path)
        self.world: Optional[Federation] = None
        self.root: Optional[Path] = None
        self.index = 0
        self.decided = 0
        self.failed_nodes: list[int] = []

    def build(self) -> None:
        self.root = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))
        config = DhtConfig(**{**vars(self.dht), "rng_seed": self.seed})
        self.backend = SimulatedDht(config)
        self.backend.now_us = CLOCK
        self.world = Federation(self.shape, self.seed, self.root, self.backend, CLOCK)
        self.nonces = NonceTable()
        self.rng = random.Random(f"{self.seed}/ops")
        self.subjects = self.world.subjects(random.Random(f"{self.seed}/subjects"))

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def check_model(self) -> list[str]:
        return self.world.cross_check(random.Random(f"{self.seed}/oracle"))

    def decide(self, window: Window) -> None:
        world, dht = self.world, self.backend
        self.decided += 1
        if self.decided % self.ADVANCE_EVERY == 0:
            dht.advance_clock(self.ADVANCE_STEP_US)
        if self.tracer is not None:
            self.tracer.begin_op(self.index)
        clock = dht.now_us
        subject = next(self.subjects)
        nonce = self.nonces.issue(POLICY.resource_id, clock)
        response = build_response(subject.key, nonce, {"user": subject.creds})
        expected = world.expected(subject, clock, self.dht.cache_ttl_us)
        before = dht.stats().as_dict()
        start = time.perf_counter_ns()
        try:
            decision = authz.authorize(world.portal.public_key, response, POLICY, dht, clock, nonce_table=self.nonces)
        except Exception as exc:  # LimitExceeded and the like escape authorize
            window.fail("exception", f"{subject.kind}: {exc!r}")
            return
        window.decide_ns.append(time.perf_counter_ns() - start)
        after = dht.stats().as_dict()
        window.lookups.update({k: after[k] - before[k] for k in ("lookups", "cache_hits", "messages", "bad_signatures")})
        revoked = subject.lab is not None and not world.labs[subject.lab].recognised
        judge(window, decision.decision, expected, subject.kind, outage=bool(self.failed_nodes), revoked=revoked)

    def publish(self, window: Window, change) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(self.index)
        start = time.perf_counter_ns()
        try:
            ok = change()
        except Exception as exc:
            window.fail("exception", f"publish: {exc!r}")
            return
        window.publish_ns.append(time.perf_counter_ns() - start)
        if not ok:
            window.fail("publish_failed", "publish report not ok")

    def step(self, window: Window) -> None:
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "shape": vars(self.shape),
            "dht": {**vars(self.dht), "rng_seed": self.seed},
            "write_share": self.WRITE_SHARE,
            "advance_every_decisions": self.ADVANCE_EVERY,
            "advance_step_us": self.ADVANCE_STEP_US,
        }

    def _run(self, until) -> Window:
        window = Window()
        start = time.perf_counter()
        while not until():
            self.index += 1
            self.step(window)
        window.elapsed_s = time.perf_counter() - start
        return window

    def warm_up(self) -> Window:
        target = self.backend.now_us + self.WARMUP_TTLS * self.dht.cache_ttl_us
        return self._run(lambda: self.backend.now_us >= target)

    def _run_for(self, seconds: float) -> Window:
        deadline = time.perf_counter() + seconds
        return self._run(lambda: time.perf_counter() >= deadline)


class FederationDht(DhtWorkload):
    """About 10^3 namespaces on a 1024-node ring: discovery, signature checks
    and DHT routing do the work. Strangers force exhaustive denies.

    A WRITE_SHARE of the ops toggle a delegation under a label no policy
    reaches at a random agency and publish it, so every workload reports
    publish_p50_ms. They change no decision, and the share is kept small so
    decisions do almost all the work; at 5% a run had about 60 publishes and
    their p50 spread by 0.12-0.16 across seeds, so the share is 10%.

    Officers are Zipf-weighted with exponent 0.5. At 1.0 the top ten of
    about 660 ranked officers took some 40% of the decisions, so which kind
    of lab the seed gave them moved the whole run's figures.
    """

    name = "federation-dht"
    shape = Shape(
        agencies=40, labs_per_agency=6, officers_per_lab=3, contractor_every=3, conjunctive_share=0.25,
        cycles=2, strangers=24, strangers_per_block=2, halves_per_block=1, zipf_s=0.5,
    )
    dht = DhtConfig(node_count=1024, replication_factor=5, cache_ttl_us=3600 * SECONDS)
    ADVANCE_EVERY = 10
    ADVANCE_STEP_US = 600 * SECONDS
    WRITE_SHARE = 0.10

    def step(self, window: Window) -> None:
        if self.rng.random() < self.WRITE_SHARE:
            agency = self.rng.choice(self.world.agencies)
            self.publish(window, lambda: self.world.toggle_decoy(agency, self.backend.now_us))
        else:
            self.decide(window)


class RevocationChurn(DhtWorkload):
    """A small federation on a 32-node ring with a short cache TTL.

    A write picks one of the churning labs (a quarter of all labs) and, if
    its last change is at least CHANGE_GAP_TTLS cache TTLs old, revokes or
    restores it at its agency; otherwise it toggles a delegation under a
    label no policy reaches. Either way the agency publishes. The gap leaves
    every change a window after its TTL in which the model knows the only
    right answer, so a stale grant cannot hide behind the next change.
    Every OUTAGE_PERIOD ops, OUTAGE_NODES nodes fail for OUTAGE_OPS ops,
    then heal and every issuer republishes. Officers are picked uniformly
    (zipf_s=0), so the share of decisions that meet a revoked lab does not
    hinge on which labs the seed makes churn.
    """

    name = "revocation-churn"
    shape = Shape(
        agencies=10, labs_per_agency=4, officers_per_lab=3, contractor_every=3, conjunctive_share=0.25,
        cycles=1, strangers=8, strangers_per_block=2, halves_per_block=1, zipf_s=0.0,
    )
    dht = DhtConfig(node_count=32, replication_factor=5, cache_ttl_us=300 * SECONDS)
    ADVANCE_EVERY = 10
    ADVANCE_STEP_US = 10 * SECONDS
    WRITE_SHARE = 0.30
    CHURN_SHARE = 0.25
    CHANGE_GAP_TTLS = 2
    OUTAGE_PERIOD = 500
    OUTAGE_OPS = 50
    OUTAGE_NODES = 3

    def build(self) -> None:
        super().build()
        labs = self.world.labs
        self.churning = random.Random(f"{self.seed}/churn").sample(labs, round(len(labs) * self.CHURN_SHARE))

    def step(self, window: Window) -> None:
        phase = self.index % self.OUTAGE_PERIOD
        if phase == 0:
            self.failed_nodes = self.rng.sample(range(self.dht.node_count), self.OUTAGE_NODES)
            self.backend.fail_nodes(self.failed_nodes)
        elif phase == self.OUTAGE_OPS and self.failed_nodes:
            self.backend.heal_nodes(self.failed_nodes)
            self.failed_nodes = []
            for issuer in self.world.issuers():
                if not self.world.publish(issuer, self.backend.now_us):
                    window.fail("publish_failed", "republish after heal")
        if self.rng.random() < self.WRITE_SHARE:
            now, world = self.backend.now_us, self.world
            lab = self.rng.choice(self.churning)
            if now - lab.changed_us >= self.CHANGE_GAP_TTLS * self.dht.cache_ttl_us:
                lab.changed_us = now
                self.publish(window, lambda: world.set_recognised(lab, not lab.recognised, now))
            else:
                agency = world.agencies[lab.agency]
                self.publish(window, lambda: world.toggle_decoy(agency, now))
        else:
            self.decide(window)

    def describe(self) -> dict:
        return {
            **super().describe(),
            "churn_share": self.CHURN_SHARE,
            "change_gap_ttls": self.CHANGE_GAP_TTLS,
            "outage": {"period_ops": self.OUTAGE_PERIOD, "length_ops": self.OUTAGE_OPS, "nodes": self.OUTAGE_NODES},
        }


WORKLOADS = {cls.name: cls for cls in (PortalHttp, FederationDht, RevocationChurn)}
