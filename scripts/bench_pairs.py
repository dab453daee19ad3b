#!/usr/bin/env python3
"""Compare two revisions on the benchmark, or count one tree's work exactly.

Pairs mode runs the unchanged ``benchmark/run.py`` of each revision::

    python3 scripts/bench_pairs.py BASE CHANGE --workloads revocation-churn --seeds 1 2 --pairs 5 --seconds 15

BASE and CHANGE are any git revisions (``git stash create`` names an
uncommitted tree). Each is checked out in a detached ``git worktree`` under
``.bench_pairs/`` in this checkout, with no network, and removed at the end.
For each workload and seed the two sides run in alternating pairs, the side
that goes first swapping from pair to pair. ``BENCH_<change>.json`` in this
checkout holds every run and, per workload and end-to-end metric, each
side's median and IQR, the change of the median, and the pairs the change
won. A metric is flagged ``noisy`` when the base's own IQR is wider than
the metric's bound in ``BENCHMARK.json``: a regression smaller than that
spread cannot be told from noise.

A workload whose simulated clock advances has a horizon: the decisions a
timed run can make before the world's delegations and credentials expire
(``world.LIFETIME_US`` after the build), after which every grant becomes a
false deny. Each such run records its decisions as ``horizon_share``, and a
share above HORIZON_SHARE_FLAG is flagged ``near_horizon``: a faster tree,
or a faster host, would push that run past it.

Ops mode counts instead of timing, so both sides do identical work::

    python3 scripts/bench_pairs.py --ops 1500 [--tree DIR]
    python3 scripts/bench_pairs.py BASE CHANGE --ops 1500

It imports ``benchmark.workloads`` from DIR (this checkout by default, each
revision's worktree when revisions are given), builds each in-process
workload's world, warms up, drives its ``step`` for N seeded ops and prints
one JSON line per workload and seed: ops, decisions and publishes, DHT
lookups and messages, ``lookup_digest`` (a sha256 of the query keys of
every get, in order), Ed25519 verifies and signatures, record-set decodes
and decodes per publish. Two runs of one tree print the same line, and two
trees that search alike print the same lookups and digest.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREES = ROOT / ".bench_pairs"
RUN_TIMEOUT_S = 600
HORIZON_SHARE_FLAG = 0.85


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def checkout(sha: str) -> Path:
    """A detached worktree of commit ``sha`` under WORKTREES, made afresh."""
    path = WORKTREES / sha[:12]
    if path.exists():
        shutil.rmtree(path)
        git("worktree", "prune")
    git("worktree", "add", "--detach", str(path), sha)
    return path


def remove(path: Path) -> None:
    git("worktree", "remove", "--force", str(path))


def load_benchmark(tree: Path):
    """The ``benchmark.workloads`` and ``world`` modules of ``tree``, over the
    abd of ``tree``."""
    for path in (tree / "benchmark", tree / "src", tree):
        sys.path.insert(0, str(path))
    import abd
    import abd.cli  # noqa: F401  (loads every abd module)

    if Path(abd.__file__).resolve().parent != (tree / "src" / "abd").resolve():
        raise SystemExit(f"bench_pairs: imported abd from {abd.__file__}, not from {tree / 'src'}")
    return importlib.import_module("benchmark.workloads"), importlib.import_module("world")


def horizon(workloads, world, workload: str) -> int | None:
    """The decisions a timed run of ``workload`` can make before the world's
    records expire, or None when its clock does not advance.

    Simulated time moves ADVANCE_STEP_US every ADVANCE_EVERY decisions, and
    warm-up has spent WARMUP_TTLS cache TTLs of it already.
    """
    cls = workloads.WORKLOADS[workload]
    step = getattr(cls, "ADVANCE_STEP_US", 0)
    if not step:
        return None
    left = world.LIFETIME_US - cls.WARMUP_TTLS * cls.dht.cache_ttl_us
    return left // step * cls.ADVANCE_EVERY


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# --- pairs mode ----------------------------------------------------------------------


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_pairs: {' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and IQR, the median's change and the pairs won."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [r[side]["result"]["metrics"][name]["value"] for r in runs] for side in ("base", "change")}
        figures = {}
        for side, values in sides.items():
            q1, median, q3 = quartiles(values)
            figures[side] = {"median": median, "iqr": q3 - q1, "values": values}
        base = figures["base"]
        won = sum((c > b) if higher else (c < b) for b, c in zip(sides["base"], sides["change"]))
        out[name] = {
            **figures,
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "median_change": figures["change"]["median"] / base["median"] - 1 if base["median"] else None,
            "pairs_won": f"{won}/{len(runs)}",
            "noisy": bool(base["median"]) and base["iqr"] / base["median"] > metric["bound"],
        }
    return out


def pairs(args, base_tree: Path, change_tree: Path, revs: dict) -> Path:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"revisions": revs, "seconds": args.seconds, "pairs": args.pairs, "seeds": args.seeds,
              "workloads": {}}
    modules = load_benchmark(change_tree)
    for workload in workloads:
        limit = horizon(*modules, workload)
        runs = []
        for seed in args.seeds:
            for index in range(args.pairs):
                order = ("base", "change") if index % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    tree = base_tree if side == "base" else change_tree
                    run = pair[side] = run_once(tree, workload, seed, args.seconds)
                    if limit:
                        run["horizon_share"] = run["detail"]["samples"]["decide"] / limit
                runs.append(pair)
                print(json.dumps({"workload": workload, "seed": seed, "pair": index, **{
                    side: {"correct": pair[side]["result"]["correct"],
                           **{k: round(v["value"], 4) for k, v in pair[side]["result"]["metrics"].items()},
                           **({"horizon_share": round(pair[side]["horizon_share"], 4)} if limit else {})}
                    for side in ("base", "change")}}), flush=True)
        summary = summarize(runs, spec["end_to_end"])
        report["workloads"][workload] = {
            "all_correct": all(r[s]["result"]["correct"] for r in runs for s in ("base", "change")),
            "summary": summary,
            "runs": runs,
        }
        if limit:
            report["workloads"][workload]["horizon"] = {
                "decisions": limit,
                "near_horizon": [
                    {"seed": r["seed"], "side": side, "horizon_share": r[side]["horizon_share"]}
                    for r in runs for side in ("base", "change") if r[side]["horizon_share"] > HORIZON_SHARE_FLAG
                ],
            }
        print(json.dumps({"workload": workload, **{
            name: {k: m[k] for k in ("median_change", "pairs_won", "noisy")} | {
                side: {k: round(m[side][k], 4) for k in ("median", "iqr")} for side in ("base", "change")}
            for name, m in summary.items()}, **({"horizon": report["workloads"][workload]["horizon"]} if limit else {})}),
            flush=True)
    path = ROOT / f"BENCH_{revs['change'][:12]}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


# --- ops mode ------------------------------------------------------------------------


def count_calls(counts: Counter, owner, attribute: str, name: str, modules=()) -> None:
    """Count calls to ``owner.attribute`` under ``name``, through every
    binding of it in ``modules`` too (functions are imported by name)."""
    original = getattr(owner, attribute)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    setattr(owner, attribute, counted)
    for module in modules:
        for binding, value in list(vars(module).items()):
            if value is original:
                setattr(module, binding, counted)


def ops(tree: Path, names: list[str], seeds: list[int], n: int) -> None:
    """Print the counts of ``n`` ops after warm-up, per workload and seed,
    for the abd and benchmark of ``tree``."""
    workloads, _ = load_benchmark(tree)
    from abd import core, namestore

    counts: Counter = Counter()
    modules = [m for name, m in sorted(sys.modules.items()) if name == "abd" or name.startswith("abd.")]
    count_calls(counts, core, "canonical_deserialize", "decodes", modules)
    count_calls(counts, core.NamespaceKey, "sign", "signatures")
    count_calls(counts, namestore.NamespaceStore, "publish", "publishes")
    verify_key = core.Ed25519PublicKey

    class CountingKey:
        @staticmethod
        def from_public_bytes(data):
            counts["ed25519_verifies"] += 1
            return verify_key.from_public_bytes(data)

    core.Ed25519PublicKey = CountingKey
    runs = tree / ".bench_runs"
    runs.mkdir(exist_ok=True)
    for name in names:
        cls = workloads.WORKLOADS[name]
        if getattr(cls, "step", None) is None:
            raise SystemExit(f"bench_pairs: {name} has no step; ops mode drives the in-process workloads")
        for seed in seeds:
            scratch = Path(tempfile.mkdtemp(prefix="ops-", dir=runs))
            workload = cls(seed, scratch, scratch / "spans.jsonl")
            core._verified.clear()  # earlier workloads signed and checked the same sets
            try:
                workload.build()
                warm = workload.warm_up()
                counts.clear()
                digest = hashlib.sha256()
                get = workload.backend.get

                def recorded(query_key, *args, **kwargs):
                    digest.update(query_key)
                    return get(query_key, *args, **kwargs)

                workload.backend.get = recorded
                before = workload.backend.stats().as_dict()
                window = workloads.Window()
                for _ in range(n):
                    workload.index += 1
                    workload.step(window)
                after = workload.backend.stats().as_dict()
            finally:
                workload.close()
                shutil.rmtree(scratch, ignore_errors=True)
            publishes = counts["publishes"]
            print(json.dumps({
                "workload": name, "seed": seed, "ops": n,
                "decisions": len(window.decide_ns), "publishes": publishes,
                "failures": sum(window.failures.values()) + sum(warm.failures.values()),
                "lookups": after["lookups"] - before["lookups"],
                "messages": after["messages"] - before["messages"],
                "lookup_digest": digest.hexdigest(),
                "ed25519_verifies": counts["ed25519_verifies"],
                "signatures": counts["signatures"],
                "decodes": counts["decodes"],
                "decodes_per_publish": round(counts["decodes"] / publishes, 4) if publishes else None,
            }), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("revisions", nargs="*", metavar="REV", help="BASE and CHANGE, or none with --ops")
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=5, help="alternating pairs per workload and seed")
    parser.add_argument("--seconds", type=float, default=15.0, help="run.py --seconds for each run")
    parser.add_argument("--ops", type=int, help="count the work of N seeded ops instead of timing")
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout ops mode imports (default this one)")
    args = parser.parse_args()
    if len(args.revisions) not in (0, 2) or (not args.revisions and args.ops is None):
        parser.error("give BASE and CHANGE, or --ops N for one tree")

    if not args.revisions:
        names = args.workloads or ["federation-dht", "revocation-churn"]
        ops(args.tree.resolve(), names, args.seeds, args.ops)
        return 0

    revs = dict(zip(("base", "change"), (git("rev-parse", "--verify", f"{r}^{{commit}}") for r in args.revisions)))
    trees = []
    try:
        for rev in revs.values():
            trees.append(checkout(rev))
        if args.ops is not None:
            for side, tree in zip(revs, trees):
                print(json.dumps({"side": side, "revision": revs[side]}), flush=True)
                command = [sys.executable, __file__, "--ops", str(args.ops), "--tree", str(tree), "--seeds",
                           *map(str, args.seeds)] + (["--workloads", *args.workloads] if args.workloads else [])
                subprocess.run(command, check=True)
        else:
            print(f"wrote {pairs(args, trees[0], trees[1], revs)}")
    finally:
        for tree in dict.fromkeys(trees):  # BASE and CHANGE may be one revision
            remove(tree)
        if WORKTREES.exists() and not os.listdir(WORKTREES):
            WORKTREES.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
