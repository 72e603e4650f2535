"""Deterministic discrete-event simulation of agent runs under attack.

A scenario names one agent server, one or more route servers, a set of peer
hosts with behavior profiles, and a route (revisits allowed). The simulator
is a single-threaded bus: every protocol message goes through one
``deliver()``, which applies the channel policy, encodes the message with
its wire codec, decodes it, stamps it with a monotonically increasing
logical time and records it in the trace. The receiving role acts only on
the decoded copy, so the trace is the execution. Given the same scenario
and seed the report is bit-identical; there is no latency model because
nothing in the protocol depends on timing.

A host reports each visit to every route server before it acts. Its first
visit appends its payload. A revisit follows its ``revisit`` policy: ``edit``
re-protects its first register in place (or appends when none is left),
``append`` adds another, ``remove`` deletes the first, ``idle`` does nothing;
an edit or append writes the payload plus ``/v2``. A host without a payload
is idle on every visit. Adversary profiles act at these points:

    counterfeit       first visit, before the append: overwrite a foreign
                      register's data field (the key is out of reach, so
                      the signature cannot be redone)
    erase_foreign     first visit, before the append: delete a foreign
                      register; the victim's key survives as evidence
    brainwash_replay  every revisit: forward the area the host forwarded on
                      its first visit, bit for bit (visited once, honest)
    orphan_key        key response: report one extra random key
    key_reuse         first visit, after the append: protect again with the
                      consumed key, which the protection layer blocks

A counterfeit or erase_foreign target past the end of the area is noted as
``adversary_target_missing``, with the host's label.

Sender identities are authentic by construction and no host can read another
host's keystore. Agents carry no log of their own (it would be as writable
as the data area), so replay detection rests entirely on the route servers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .cipher import (
    CipherParams,
    KeyConsumedError,
    OneTimeKey,
    ProtectionMode,
    Register,
    pad_to_blocks,
    protect_register,
)
from .codec import AgentDataArea
from .protocol import (
    MESSAGE_CODECS,
    AgentServerState,
    PeerHostState,
    Verdict,
    DiscardReason,
    VerificationReport,
    host_handle_agent,
    host_id,
    host_label,
    host_send_keys,
    merge_route_answers,
    server_dispatch,
    server_reconcile,
)


class InvalidScenarioError(Exception):
    pass


class ChannelSecurity(Enum):
    SECURE = "secure"
    INSECURE = "insecure"


@dataclass(frozen=True)
class Channel:
    """A link between two participants; its endpoints are kept sorted."""

    endpoints: tuple[str, str]
    security: ChannelSecurity

    def __post_init__(self):
        # a pair of strings is put in order; validate_scenario names other endpoints
        ends = self.endpoints
        if type(ends) is tuple and len(ends) == 2 and type(ends[0]) is type(ends[1]) is str:
            object.__setattr__(self, "endpoints", (ends[1], ends[0]) if ends[1] < ends[0] else ends)


HONEST = "honest"
COUNTERFEIT = "counterfeit"
ERASE_FOREIGN = "erase_foreign"
BRAINWASH_REPLAY = "brainwash_replay"
ORPHAN_KEY = "orphan_key"
KEY_REUSE = "key_reuse"

PROFILE_KINDS = (HONEST, COUNTERFEIT, ERASE_FOREIGN, BRAINWASH_REPLAY, ORPHAN_KEY, KEY_REUSE)

MODE_WORDS = {"sign": ProtectionMode.SIGNATURE, "encrypt": ProtectionMode.ENCRYPTION}
SECURITY_WORDS = {security.value: security for security in ChannelSecurity}
REVISIT_ACTIONS = ("edit", "remove", "append", "idle")
POLICY_MODES = ("record", "abort")


@dataclass(frozen=True)
class BehaviorProfile:
    """How a host acts while it holds the agent; honest unless told otherwise."""

    kind: str = HONEST
    target_index: int | None = None
    forged_payload: bytes | None = None


@dataclass(frozen=True)
class HostConfig:
    id: str
    behavior: BehaviorProfile = BehaviorProfile()
    payload: bytes | None = None
    mode: ProtectionMode = ProtectionMode.SIGNATURE
    revisit: str = "edit"


@dataclass(frozen=True)
class Scenario:
    """A run to simulate, validated whenever one is made (``replace`` too)."""

    params: CipherParams
    seed: int
    agent_server: str
    route_servers: tuple[str, ...]
    hosts: tuple[HostConfig, ...]
    route: tuple[str, ...]
    channels: tuple[Channel, ...] = ()
    default_channel_security: ChannelSecurity = ChannelSecurity.SECURE
    policy_mode: str = "record"

    def __post_init__(self):
        validate_scenario(self)


class SimEvent(NamedTuple):
    """One delivered message. A named tuple: immutable, and cheap to build."""

    time: int
    kind: str
    src: str
    dst: str
    security: str
    detail: dict


@dataclass
class SimReport:
    trace: list[SimEvent]
    verification: VerificationReport
    policy_violations: list[dict]
    assertions: dict[str, bool]

    def to_dict(self) -> dict:
        v = self.verification
        return {
            "trace": [ev._asdict() for ev in self.trace],
            "verification": {
                "verdict": v.verdict.value,
                "reason": v.reason.value if v.reason else None,
                "attribution": [
                    {"register": ri, "host": host_label(h)} for ri, h in v.attribution
                ],
                "plaintexts": {str(ri): data.hex() for ri, data in v.plaintexts.items()},
            },
            "policy_violations": self.policy_violations,
            "assertions": self.assertions,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# --- scenario files ----------------------------------------------------------


_TYPE_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string", list: "an array",
    dict: "an object", type(None): "null", tuple: "a tuple", bytes: "octets",
}


def _check(value, kind: type, where: str, optional: bool = False):
    """``value`` if its type is exactly ``kind``, or it is None and ``optional``."""
    if type(value) is not kind and not (optional and value is None):
        expected = _TYPE_NAMES.get(kind, kind.__name__)
        got = _TYPE_NAMES.get(type(value), type(value).__name__)
        raise InvalidScenarioError(f"{where} must be {expected}, got {got}")
    return value


def _one_of(value, words, where: str) -> str:
    """``value``, refused unless it is one of the strings in ``words``."""
    if type(value) is not str or value not in words:
        raise InvalidScenarioError(f"{where} must be one of {', '.join(words)}, got {value!r}")
    return value


def _label(value, where: str) -> None:
    try:
        host_id(_check(value, str, where))
    except ValueError as exc:
        raise InvalidScenarioError(f"{where}: {exc}") from None


def _object(value, where: str, keys: tuple[str, ...]) -> dict:
    """``value``, refused unless it is an object with no keys but ``keys``."""
    extra = set(_check(value, dict, where)) - set(keys)
    if extra:
        raise InvalidScenarioError(f"{where}: unknown keys {sorted(extra)}")
    return value


def _array(raw: dict, key: str, where: str = "") -> tuple:
    """``raw[key]``, an array (empty when absent), as a tuple."""
    return tuple(_check(raw.get(key, []), list, where + key))


def _hex_or_none(value, where: str) -> bytes | None:
    if value is None:
        return None
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise InvalidScenarioError(f"{where}: expected hex octets, got {value!r}") from None


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from its JSON form; making it validates it.

    The document is walked only as far as building needs: objects, arrays,
    known keys, hex octets and the mode and security words. Every other rule
    is validate_scenario's, so a malformed document raises
    InvalidScenarioError and nothing else.
    """
    _object(raw, "scenario", (
        "params", "seed", "agent_server", "route_servers", "hosts", "route",
        "channels", "default_channel_security", "policy_mode",
    ))
    try:
        params = CipherParams(**_object(raw.get("params", {}), "params", ("block_width_bits",)))
    except ValueError as exc:
        raise InvalidScenarioError(f"params.block_width_bits: {exc}") from None

    hosts = []
    for i, h in enumerate(_array(raw, "hosts")):
        where = f"hosts[{i}]"
        _object(h, where, ("id", "behavior", "payload", "mode", "revisit"))
        mode = MODE_WORDS[_one_of(h.get("mode", "sign"), MODE_WORDS, f"{where}.mode")]
        payload = _hex_or_none(h.get("payload"), f"{where}.payload")
        where += ".behavior"
        b = _object(h.get("behavior", {}), where, ("profile", "target_index", "forged_payload"))
        forged = _hex_or_none(b.get("forged_payload"), f"{where}.forged_payload")
        behavior = BehaviorProfile(b.get("profile", HONEST), b.get("target_index"), forged)
        hosts.append(HostConfig(h.get("id"), behavior, payload, mode, h.get("revisit", "edit")))

    channels = []
    for i, c in enumerate(_array(raw, "channels")):
        where = f"channels[{i}]"
        _object(c, where, ("endpoints", "security"))
        security = _one_of(c.get("security"), SECURITY_WORDS, f"{where}.security")
        channels.append(Channel(_array(c, "endpoints", f"{where}."), SECURITY_WORDS[security]))

    default_security = _one_of(
        raw.get("default_channel_security", "secure"), SECURITY_WORDS, "default_channel_security"
    )
    return Scenario(
        params=params,
        seed=raw.get("seed", 0),
        agent_server=raw.get("agent_server", ""),
        route_servers=_array(raw, "route_servers"),
        hosts=tuple(hosts),
        route=_array(raw, "route"),
        channels=tuple(channels),
        default_channel_security=SECURITY_WORDS[default_security],
        policy_mode=raw.get("policy_mode", "record"),
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InvalidScenarioError(f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidScenarioError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidScenarioError("JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise InvalidScenarioError("scenario file must hold a JSON object")
    return scenario_from_dict(raw)


def validate_scenario(scenario: Scenario) -> None:
    """Refuse a scenario that a run could not play out as written.

    Every value a run reads must have its exact type, and every per-host and
    cross-field rule must hold. The error names the path of the field at
    fault, as in ``hosts[1].behavior.target_index``.
    """
    _check(scenario.params, CipherParams, "params")
    if not 0 <= _check(scenario.seed, int, "seed") < 2**64:
        raise InvalidScenarioError("seed must fit in 64 bits")
    _one_of(scenario.policy_mode, POLICY_MODES, "policy_mode")
    _check(scenario.default_channel_security, ChannelSecurity, "default_channel_security")
    _label(scenario.agent_server, "agent_server")
    for name in ("route_servers", "hosts", "route"):
        if not _check(getattr(scenario, name), tuple, name):
            raise InvalidScenarioError(f"{name} must not be empty")
    for i, label in enumerate(scenario.route_servers):
        _label(label, f"route_servers[{i}]")

    for i, cfg in enumerate(scenario.hosts):
        where = f"hosts[{i}]"
        _check(cfg, HostConfig, where)
        _label(cfg.id, f"{where}.id")
        _check(cfg.payload, bytes, f"{where}.payload", optional=True)
        _check(cfg.mode, ProtectionMode, f"{where}.mode")
        _one_of(cfg.revisit, REVISIT_ACTIONS, f"{where}.revisit")
        where += ".behavior"
        profile = _check(cfg.behavior, BehaviorProfile, where)
        kind = _one_of(profile.kind, PROFILE_KINDS, f"{where}.profile")
        target = _check(profile.target_index, int, f"{where}.target_index", optional=True)
        forged = _check(profile.forged_payload, bytes, f"{where}.forged_payload", optional=True)
        if kind == COUNTERFEIT and (target is None or forged is None):
            raise InvalidScenarioError(f"{where}: counterfeit needs target_index and forged_payload")
        if kind == ERASE_FOREIGN and target is None:
            raise InvalidScenarioError(f"{where}: erase_foreign needs target_index")
        if kind == KEY_REUSE and cfg.payload is None:
            raise InvalidScenarioError(f"{where}: key_reuse needs a payload to protect")

    labels = [cfg.id for cfg in scenario.hosts]
    everyone: dict[str, str] = {}  # each participant's label -> the field that names it
    for where, label in (
        ("agent_server", scenario.agent_server),
        *((f"route_servers[{i}]", name) for i, name in enumerate(scenario.route_servers)),
        *((f"hosts[{i}].id", name) for i, name in enumerate(labels)),
    ):
        if label in everyone:
            raise InvalidScenarioError(f"{where}: {label!r} is also {everyone[label]}")
        everyone[label] = where
    for i, label in enumerate(scenario.route):
        if _check(label, str, f"route[{i}]") not in labels:
            raise InvalidScenarioError(f"route[{i}] names an unknown host {label!r}")

    listed = set()
    for i, ch in enumerate(_check(scenario.channels, tuple, "channels")):
        where = f"channels[{i}]"
        ends = _check(_check(ch, Channel, where).endpoints, tuple, f"{where}.endpoints")
        if len(ends) != 2:
            raise InvalidScenarioError(f"{where}.endpoints must name two participants")
        for j, end in enumerate(ends):
            if _check(end, str, f"{where}.endpoints[{j}]") not in everyone:
                raise InvalidScenarioError(f"{where}.endpoints[{j}]: {end!r} is not a participant")
        _check(ch.security, ChannelSecurity, f"{where}.security")
        if ends[0] == ends[1]:
            raise InvalidScenarioError(f"{where}: channel from {ends[0]!r} to itself")
        if ends in listed:
            raise InvalidScenarioError(f"{where}: channel {ends[0]!r}-{ends[1]!r} listed twice")
        listed.add(ends)


# --- channel policy ----------------------------------------------------------


def enforce_channel_policy(
    kind: str, value, ends: tuple[str, str], security: ChannelSecurity
) -> dict | None:
    """None when the delivery is allowed, else a violation record.

    ``ends`` is the sorted endpoint pair of the channel and ``security`` its
    security. Encryption keys are only as secret as the channel that carries
    them, so a key_response holding any encryption-mode key over an insecure
    channel is a violation. Signature keys are past their one use and may
    travel in the clear; everything else always passes.
    """
    if kind == "key_response" and security is ChannelSecurity.INSECURE:
        exposed = sum(1 for k in value if k.mode is ProtectionMode.ENCRYPTION)
        if exposed:
            return {
                "kind": "insecure_key_transfer",
                "channel": list(ends),
                "encryption_keys": exposed,
            }
    return None


# --- adversary behaviors -------------------------------------------------------


def apply_adversary(
    profile: BehaviorProfile,
    area: AgentDataArea,
    params: CipherParams,
) -> tuple[AgentDataArea, dict | None]:
    """Area transformation for the tampering profiles.

    Counterfeit rewrites a foreign register's clear fields but cannot touch
    the masked signature; erase_foreign deletes the register outright. Other
    profiles leave the area alone. Returns the new area and, when the
    configured target does not exist, a note record.
    """
    if profile.kind not in (COUNTERFEIT, ERASE_FOREIGN):
        return area, None
    idx = profile.target_index
    if idx is None or not 0 <= idx < len(area.registers):
        return area, {"kind": "adversary_target_missing", "target_index": idx}
    if profile.kind == ERASE_FOREIGN:
        registers = area.registers[:idx] + area.registers[idx + 1 :]
        return replace(area, registers=registers), None
    reg = area.registers[idx]
    forged = profile.forged_payload or b""
    padded = pad_to_blocks(forged, params)
    fake = Register(reg.mode, len(forged), padded, reg.masked_cw, reg.masked_mfd)
    registers = list(area.registers)
    registers[idx] = fake
    return replace(area, registers=tuple(registers)), None


# --- the event loop ------------------------------------------------------------


def _intent_for(cfg: HostConfig, first: bool) -> tuple[str, bytes | None]:
    """The (action, payload) of a host's visit."""
    if cfg.payload is None or (not first and cfg.revisit == "idle"):
        return "idle", None
    if first:
        return "append", cfg.payload
    if cfg.revisit == "remove":
        return "remove", None
    # fresh content for edit/append revisits, distinct per visit
    return cfg.revisit, cfg.payload + b"/v2"


def run_scenario(scenario: Scenario) -> SimReport:
    """Play out a scenario end to end and reconcile the returned agent.

    Flow: dispatch along the route applying each host's behavior (every visit
    is reported to every route server before the host acts); on return,
    query the route servers, and if they agree, request keys from each logged
    host and reconcile. Pure in everything but its own local state: the same
    scenario yields a bit-identical report.
    """
    params = scenario.params
    abort = scenario.policy_mode == "abort"
    master = random.Random(scenario.seed)
    # seeded reports depend on this draw order: the server's rng, then each host's
    server = AgentServerState(random.Random(master.getrandbits(64)))
    configs = {cfg.id: cfg for cfg in scenario.hosts}
    hosts = {
        cfg.id: PeerHostState(host_id(cfg.id), random.Random(master.getrandbits(64)))
        for cfg in scenario.hosts
    }
    visited: set[str] = set()
    # a brainwash host's label -> the area it first forwarded, replayed on each revisit
    snapshots: dict[str, AgentDataArea] = {}
    logs: dict[str, dict[bytes, list[bytes]]] = {label: {} for label in scenario.route_servers}

    trace: list[SimEvent] = []
    violations: list[dict] = []
    # sorted endpoint pair -> security; a pair no channel lists has the default
    channels = {ch.endpoints: ch.security for ch in scenario.channels}
    default = scenario.default_channel_security

    def deliver(src: str, dst: str, kind: str, value):
        """Police, encode, decode and trace one message of ``kind``; the
        receiver acts on the decoded value returned. None when the abort
        policy stops it."""
        ends = (src, dst) if src < dst else (dst, src)  # the order Channel keeps
        security = channels.get(ends, default)
        violation = enforce_channel_policy(kind, value, ends, security)
        if violation:
            violations.append({**violation, "aborted": abort})
            if abort:
                return None
        encode, decode = MESSAGE_CODECS[kind]
        raw = encode(value, params)
        received = decode(raw, params)
        detail = {"octets": len(raw)}
        if kind == "route_answer":
            detail["hosts"] = [host_label(h) for h in received]
        elif kind == "key_response":
            detail["keys"] = len(received)
        trace.append(SimEvent(len(trace) + 1, kind, src, dst, security.value, detail))
        return received

    area = server_dispatch(server)
    agent = area.agent

    carrier = scenario.agent_server
    for label in scenario.route:
        area = deliver(carrier, label, "agent_transfer", area)
        carrier = label
        cfg, state = configs[label], hosts[label]
        for server_label, log in logs.items():
            logged_agent, hid = deliver(label, server_label, "route_log", (area.agent, state.id))
            log.setdefault(logged_agent, []).append(hid)
        if label in snapshots:
            # looks like any other visit to the route servers, then swaps the area
            area = snapshots[label]
            continue
        first = label not in visited
        visited.add(label)
        if first:
            area, note = apply_adversary(cfg.behavior, area, params)
            if note:
                violations.append({**note, "host": label})
        action, payload = _intent_for(cfg, first)
        area = host_handle_agent(state, area, action, payload, cfg.mode, params)
        if first and cfg.behavior.kind == KEY_REUSE:
            # the first visit appended the payload, so the last key held is the one just used
            try:
                protect_register(cfg.payload, 0, state.keystore[area.agent][-1], params)
            except KeyConsumedError:
                why = "second use of a one-time key rejected locally"
                violations.append({"kind": "key_reuse_blocked", "host": label, "note": why})
            else:
                violations.append({"kind": "key_reuse_not_blocked", "host": label})
        if first and cfg.behavior.kind == BRAINWASH_REPLAY:
            snapshots[label] = area
    area = deliver(carrier, scenario.agent_server, "agent_transfer", area)

    answers = []
    for label, log in logs.items():
        queried = deliver(scenario.agent_server, label, "route_query", agent)
        logged = tuple(log.get(queried, ()))
        answers.append(deliver(label, scenario.agent_server, "route_answer", logged))

    merged = merge_route_answers(answers)
    if merged is None:
        # no trustworthy route, so no key requests can be driven from it
        verification = VerificationReport(Verdict.DISCARD, DiscardReason.ROUTE_MISMATCH)
    else:
        collected: dict[bytes, tuple[OneTimeKey, ...]] = {}
        for hid in dict.fromkeys(merged):
            label = host_label(hid)
            state = hosts[label]
            requested = deliver(scenario.agent_server, label, "key_request", agent)
            keys = host_send_keys(state, requested)
            if configs[label].behavior.kind == ORPHAN_KEY:
                bogus_bits = state.rng.randbytes(params.signature_width_bits // 8)
                keys += (OneTimeKey(ProtectionMode.SIGNATURE, bogus_bits),)
            response = deliver(label, scenario.agent_server, "key_response", keys)
            if response is not None:
                collected[hid] = response
        verification = server_reconcile(server, agent, area, collected, merged, params)

    assertions = _trace_assertions(trace, scenario, violations)
    return SimReport(trace, verification, violations, assertions)


def _trace_assertions(
    trace: list[SimEvent], scenario: Scenario, violations: list[dict]
) -> dict[str, bool]:
    """Mechanical checks over the delivered-message trace."""
    transfers = [event.time for event in trace if event.kind == "agent_transfer"]
    dispatch_time, return_time = transfers[0], transfers[-1]
    host_labels = {cfg.id for cfg in scenario.hosts}
    server = scenario.agent_server

    non_interactive = True
    for event in trace:
        if dispatch_time < event.time < return_time:
            if (event.src == server and event.dst in host_labels) or (
                event.dst == server and event.src in host_labels
            ):
                non_interactive = False

    key_release_after_return = all(
        event.time > return_time for event in trace if event.kind == "key_response"
    )

    nonempty_responses: dict[str, int] = {}
    for event in trace:
        if event.kind == "key_response" and event.detail.get("keys", 0) > 0:
            nonempty_responses[event.src] = nonempty_responses.get(event.src, 0) + 1
    drain_once = all(count <= 1 for count in nonempty_responses.values())

    assertions = {
        "non_interactive": non_interactive,
        "key_release_after_return": key_release_after_return,
        "drain_once": drain_once,
    }
    if any(cfg.behavior.kind == KEY_REUSE for cfg in scenario.hosts):
        assertions["key_reuse_blocked"] = any(
            v["kind"] == "key_reuse_blocked" for v in violations
        ) and not any(v["kind"] == "key_reuse_not_blocked" for v in violations)
    return assertions
