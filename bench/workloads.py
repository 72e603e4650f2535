"""Seeded inputs, operations and output checks for the agentpad benchmark.

Every input is a pure function of (workload, seed, item index, twin), so the
same seed gives the same inputs and no two inputs repeat. The twins of an
item share its shape (host count, route, payload lengths, modes, policies,
file sizes) and so cost the same work, but draw their content (payload and
file octets, scenario and key seeds) apart. A workload yields items;
running an item performs one or more timed operations and returns, per
operation, its duration, the list of output mismatches found, and the
octets that go into the workload's result digest.

Expected outcomes come from a symbolic replay of the visit rules over host
labels and payloads, written here independently of the package's tests.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

TAMPER_KINDS = ("counterfeit", "erase_foreign", "brainwash_replay", "orphan_key")
# one item per kind in turn, so every run sees the same mix whatever its length
ATTACK_MIX_KINDS = TAMPER_KINDS + ("key_reuse", "honest", "honest_insecure")
REVISITS = ("edit", "append", "remove", "idle")
CLI_COMBOS = tuple((w, m) for w in (8, 16, 32, 64) for m in ("sign", "encrypt"))


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload: items in the fixed prefix, and input sizes."""

    prefix_items: int
    hosts: int = 0
    revisits: int = 0
    file_octets: int = 0
    prop3_per_round: int = 0
    tail_percentile: float = 99.0  # see README.md, End-to-end metrics


SPECS = {
    "attack_mix": Spec(prefix_items=350, tail_percentile=99.0),
    "long_route": Spec(prefix_items=3, hosts=100, revisits=10, tail_percentile=75.0),
    "cli_files": Spec(
        prefix_items=1, file_octets=64 * 1024, prop3_per_round=1, tail_percentile=75.0
    ),
}


@dataclass
class OpResult:
    """One timed operation: its duration, output mismatches and digest input.

    ``outcome`` names a scenario's verdict and reason; ``work`` is the
    octets (protect, verify) or candidate keys (prop3) a command processed.
    """

    kind: str
    seconds: float
    errors: list[str]
    digest_parts: list[bytes]
    outcome: str = ""
    work: int = 0


def item_rngs(workload: str, seed: int, index: int, twin: int):
    """(shape, fill): the item's shape rng and its twin's content rng."""
    shape = random.Random(f"agentpad-bench/{workload}/{seed}/{index}")
    fill = random.Random(f"agentpad-bench/{workload}/{seed}/{index}/twin{twin}")
    return shape, fill


# --- symbolic replay ------------------------------------------------------------


def replay_registers(raw: dict) -> list[tuple[str, bytes]]:
    """(owner label, plaintext) per register of the returned area, in order.

    Honest visit rules: a first visit with a payload appends it; a revisit
    appends (append), rewrites the host's first register in place or appends
    when it has vanished (edit), drops the host's first register (remove), or
    does nothing (idle). Revisit payloads carry the suffix "/v2".
    """
    hosts = {h["id"]: h for h in raw["hosts"]}
    regs: list[list] = []
    seen: set[str] = set()
    for label in raw["route"]:
        cfg = hosts[label]
        first = label not in seen
        seen.add(label)
        if cfg.get("payload") is None:
            continue
        payload = bytes.fromhex(cfg["payload"])
        if first:
            regs.append([label, payload])
            continue
        policy = cfg.get("revisit", "edit")
        mine = next((r for r in regs if r[0] == label), None)
        if policy == "append" or (policy == "edit" and mine is None):
            regs.append([label, payload + b"/v2"])
        elif policy == "edit":
            mine[1] = payload + b"/v2"
        elif policy == "remove" and mine is not None:
            regs.remove(mine)
    return [(label, payload) for label, payload in regs]


def expected_violations(raw: dict, regs: list[tuple[str, bytes]]) -> list[dict]:
    """Policy records for encryption keys surrendered over insecure channels."""
    insecure = {
        tuple(sorted(ch["endpoints"]))
        for ch in raw.get("channels", [])
        if ch["security"] == "insecure"
    }
    hosts = {h["id"]: h for h in raw["hosts"]}
    out = []
    for label in dict.fromkeys(raw["route"]):
        keys = sum(1 for owner, _ in regs if owner == label)
        ends = tuple(sorted((label, raw["agent_server"])))
        if keys and hosts[label]["mode"] == "encrypt" and ends in insecure:
            out.append(
                {
                    "kind": "insecure_key_transfer",
                    "channel": list(ends),
                    "encryption_keys": keys,
                    "aborted": False,
                }
            )
    return out


# --- scenario generation -----------------------------------------------------------


def _scenario(fill, hosts, route, channels=()) -> dict:
    return {
        "params": {"block_width_bits": 64},
        "seed": fill.getrandbits(64),
        "agent_server": "server",
        "route_servers": ["rs1", "rs2"],
        "hosts": hosts,
        "route": route,
        "channels": list(channels),
        "policy_mode": "record",
    }


def _host(rng, fill, label, max_payload, revisit):
    return {
        "id": label,
        "payload": fill.randbytes(rng.randint(1, max_payload)).hex(),
        "mode": rng.choice(["sign", "encrypt"]),
        "revisit": revisit,
    }


def attack_mix_scenario(rng, fill, kind: str) -> dict:
    """One short scenario: 1-5 hosts, at most 8 hops, 1-16 octet payloads.

    Tampering kinds keep every host on the edit policy so that the tamper
    cannot be undone by its victim; the route shapes guarantee the adversary
    acts after at least one foreign register exists.
    """
    if kind not in TAMPER_KINDS:
        labels = [f"h{i}" for i in range(rng.randint(1, 5))]
        hosts = [_host(rng, fill, label, 16, rng.choice(REVISITS)) for label in labels]
        route = [rng.choice(labels) for _ in range(rng.randint(1, 8))]
        channels = []
        if kind == "key_reuse":
            culprit = rng.choice(route)
            next(h for h in hosts if h["id"] == culprit)["behavior"] = {"profile": kind}
        elif kind == "honest_insecure":
            channels = [
                {"endpoints": [label, "server"], "security": "insecure"}
                for label in labels
                if rng.random() < 0.5
            ]
        return _scenario(fill, hosts, route, channels)

    labels = [f"h{i}" for i in range(rng.randint(2, 5))]
    adversary = rng.choice(labels)
    honest = [label for label in labels if label != adversary]
    hosts = [_host(rng, fill, label, 16, "edit") for label in labels]
    if kind == "brainwash_replay":
        middle = [rng.choice(honest)] + [rng.choice(labels) for _ in range(rng.randint(0, 5))]
        rng.shuffle(middle)
        route = [adversary, *middle, adversary]
    elif kind in ("counterfeit", "erase_foreign"):
        route = [rng.choice(honest)] + [rng.choice(labels) for _ in range(rng.randint(1, 7))]
        if adversary not in route:
            route[rng.randint(1, len(route) - 1)] = adversary
    else:
        route = [rng.choice(labels) for _ in range(rng.randint(1, 8))]
        if adversary not in route:
            route[rng.randrange(len(route))] = adversary

    behavior = {"profile": kind}
    if kind == "erase_foreign":
        behavior["target_index"] = 0
    elif kind == "counterfeit":
        # register 0 holds route[0]'s payload, possibly edited; a forgery equal
        # to it would change nothing and rightly be accepted
        victim = next(h["payload"] for h in hosts if h["id"] == route[0])
        forged, octets = victim, rng.randint(1, 16)
        while forged in (victim, victim + b"/v2".hex()):
            forged = fill.randbytes(octets).hex()
        behavior.update(target_index=0, forged_payload=forged)
    next(h for h in hosts if h["id"] == adversary)["behavior"] = behavior
    return _scenario(fill, hosts, route)


def long_route_scenario(rng, fill, hosts: int, revisits: int) -> dict:
    """Honest hosts, each visited once in shuffled order, plus some revisits."""
    labels = [f"h{i}" for i in range(hosts)]
    configs = [_host(rng, fill, label, 32, rng.choice(REVISITS)) for label in labels]
    route = list(labels)
    rng.shuffle(route)
    for _ in range(revisits):
        label = rng.choice(labels)
        route.insert(rng.randint(route.index(label) + 1, len(route)), label)
    return _scenario(fill, configs, route)


# --- checks -------------------------------------------------------------------------------


def check_report(kind: str, raw: dict, report, ap) -> list[str]:
    """Mismatches between a scenario report and the symbolic replay."""
    errors = []
    v = report.verification
    for name, ok in report.assertions.items():
        if not ok:
            errors.append(f"trace assertion {name} false")
    if kind in TAMPER_KINDS:
        if v.verdict is not ap.protocol.Verdict.DISCARD:
            errors.append(f"{kind}: verdict {v.verdict.value}, expected discard")
        return errors

    regs = replay_registers(raw)
    if v.verdict is not ap.protocol.Verdict.ACCEPT:
        reason = v.reason.value if v.reason else None
        return errors + [f"{kind}: verdict {v.verdict.value} ({reason}), expected accept"]
    got = [(ri, ap.protocol.host_label(h)) for ri, h in v.attribution]
    if got != [(ri, label) for ri, (label, _) in enumerate(regs)]:
        errors.append(f"{kind}: attribution {got} differs from replay")
    modes = {h["id"]: h["mode"] for h in raw["hosts"]}
    plain = {ri: p for ri, (label, p) in enumerate(regs) if modes[label] == "encrypt"}
    if v.plaintexts != plain:
        errors.append(f"{kind}: recovered plaintexts differ from payloads")
    if kind == "key_reuse":
        if report.assertions.get("key_reuse_blocked") is not True:
            errors.append("key_reuse: key_reuse_blocked is not true")
    elif report.policy_violations != expected_violations(raw, regs):
        errors.append(f"{kind}: policy violations {report.policy_violations}")
    return errors


# --- workloads ------------------------------------------------------------------------------


class ScenarioWorkload:
    """attack_mix and long_route: one run_scenario call per item."""

    def __init__(self, name: str, seed: int, spec: Spec, ap, workdir: Path):
        self.name, self.seed, self.spec, self.ap = name, seed, spec, ap

    def item(self, index: int, twin: int = 0):
        rng, fill = item_rngs(self.name, self.seed, index, twin)
        if self.name == "attack_mix":
            kind = ATTACK_MIX_KINDS[index % len(ATTACK_MIX_KINDS)]
            raw = attack_mix_scenario(rng, fill, kind)
        else:
            kind = "long_route"
            raw = long_route_scenario(rng, fill, self.spec.hosts, self.spec.revisits)
        return kind, raw, self.ap.simulator.scenario_from_dict(raw)

    def run(self, item, digest: bool) -> list[OpResult]:
        kind, raw, scenario = item
        started = perf_counter()
        report = self.ap.simulator.run_scenario(scenario)
        elapsed = perf_counter() - started
        errors = check_report(kind, raw, report, self.ap)
        v = report.verification
        outcome = v.verdict.value + (f"/{v.reason.value}" if v.reason else "")
        parts = [report.to_json().encode()] if digest else []
        return [OpResult(kind, elapsed, errors, parts, outcome=outcome)]

    def discard(self, item) -> None:
        pass


class CliWorkload:
    """cli_files: one round of CLI commands per item, one operation per command.

    A round protects and verifies one fresh file at each (W, mode) pair, then
    runs the prop3 sweeps; its input files live in a directory of their own
    that is deleted once the round is checked.
    """

    def __init__(self, name: str, seed: int, spec: Spec, ap, workdir: Path):
        self.name, self.seed, self.spec, self.ap = name, seed, spec, ap
        self.workdir = workdir

    def item(self, index: int, twin: int = 0):
        _, fill = item_rngs(self.name, self.seed, index, twin)
        where = self.workdir / f"round{index}-{twin}"
        where.mkdir(parents=True, exist_ok=True)
        files = []
        for width, mode in CLI_COMBOS:
            path = where / f"w{width}-{mode}.in"
            path.write_bytes(fill.randbytes(self.spec.file_octets))
            files.append((width, mode, path, fill.getrandbits(32)))
        sweeps = [fill.getrandbits(32) for _ in range(self.spec.prop3_per_round)]
        return where, files, sweeps

    def _command(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = perf_counter()
            code = self.ap.cli.main(argv)
            elapsed = perf_counter() - started
        return code, out.getvalue(), err.getvalue(), elapsed

    def run(self, item, digest: bool) -> list[OpResult]:
        where, files, sweeps = item
        results = []
        for width, mode, path, seed in files:
            key, reg, rec = (path.with_suffix(s) for s in (".key", ".reg", ".rec"))
            w = str(width)
            code, out, err, t = self._command(
                ["protect", str(path), "--key", str(key), "--mode", mode,
                 "--width", w, "--seed", str(seed), "--out", str(reg)]
            )
            errors = [f"protect W={w} {mode}: exit {code} {err.strip()}"] if code else []
            parts = [out.encode(), key.read_bytes(), reg.read_bytes()] if digest and not code else []
            results.append(OpResult("protect", t, errors, parts, work=self.spec.file_octets))

            code, out, err, t = self._command(
                ["verify", str(reg), "--key", str(key), "--width", w, "--out", str(rec)]
            )
            errors = []
            if code:
                errors.append(f"verify W={w} {mode}: exit {code} {err.strip()}")
            elif rec.read_bytes() != path.read_bytes():
                errors.append(f"verify W={w} {mode}: recovered octets differ from input")
            parts = [out.encode(), rec.read_bytes()] if digest and not code else []
            results.append(OpResult("verify", t, errors, parts, work=self.spec.file_octets))

        for seed in sweeps:
            code, out, err, t = self._command(["prop3", "--width", "8", "--seed", str(seed)])
            words = out.split()
            errors = []
            if code:
                errors.append(f"prop3 seed={seed}: exit {code} {err.strip()}")
            elif words[:3] != [str(1 << 8), "of", str(1 << 16)]:
                errors.append(f"prop3 seed={seed}: {out.strip()!r}, expected 256 of 65536")
            parts = [out.encode()] if digest else []
            results.append(OpResult("prop3", t, errors, parts, work=1 << 16))
        return results

    def discard(self, item) -> None:
        shutil.rmtree(item[0], ignore_errors=True)


WORKLOADS = {
    "attack_mix": ScenarioWorkload,
    "long_route": ScenarioWorkload,
    "cli_files": CliWorkload,
}
