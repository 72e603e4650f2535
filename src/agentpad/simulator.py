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

Adversary profiles:

    counterfeit       overwrite a foreign register's data field (the key is
                      out of reach, so the signature cannot be redone)
    erase_foreign     delete a foreign register; the victim's keystore is
                      out of reach, so its key survives as evidence
    brainwash_replay  on a revisit, restore the bit-copy of the area the
                      host forwarded on its first visit
    orphan_key        behave honestly but report one extra random key
    key_reuse         attempt a second protection with a consumed key; the
                      protection layer blocks it locally

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

from .cipher import (
    CipherParams,
    KeyConsumedError,
    OneTimeKey,
    ProtectionMode,
    Register,
    padded_octets,
    protect_register,
)
from .codec import AgentDataArea, decode_area, encode_area
from .protocol import (
    MESSAGE_CODECS,
    AgentServerState,
    AgentTransfer,
    KeyRequest,
    KeyResponse,
    PeerHostState,
    RouteLogEntry,
    RouteQuery,
    RouteAnswer,
    RouteServerState,
    Verdict,
    DiscardReason,
    VerificationReport,
    host_handle_agent,
    host_id,
    host_label,
    host_send_keys,
    merge_route_answers,
    route_get,
    route_log_visit,
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
    endpoints: tuple[str, str]
    security: ChannelSecurity


HONEST = "honest"
COUNTERFEIT = "counterfeit"
ERASE_FOREIGN = "erase_foreign"
BRAINWASH_REPLAY = "brainwash_replay"
ORPHAN_KEY = "orphan_key"
KEY_REUSE = "key_reuse"

PROFILE_KINDS = (HONEST, COUNTERFEIT, ERASE_FOREIGN, BRAINWASH_REPLAY, ORPHAN_KEY, KEY_REUSE)

MODE_WORDS = {"sign": ProtectionMode.SIGNATURE, "encrypt": ProtectionMode.ENCRYPTION}
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
    params: CipherParams
    seed: int
    agent_server: str
    route_servers: tuple[str, ...]
    hosts: tuple[HostConfig, ...]
    route: tuple[str, ...]
    channels: tuple[Channel, ...] = ()
    default_channel_security: ChannelSecurity = ChannelSecurity.SECURE
    policy_mode: str = "record"


@dataclass(frozen=True)
class SimEvent:
    """One delivered message."""

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
            # an event's fields; dataclasses.asdict would deep-copy each one
            "trace": [vars(ev) for ev in self.trace],
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


_JSON_TYPES = {
    bool: "a boolean", int: "an integer", float: "a number",
    str: "a string", list: "an array", dict: "an object", type(None): "null",
}


def _type_error(value, kind: type, name: str) -> InvalidScenarioError:
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    return InvalidScenarioError(f"{name} must be {_JSON_TYPES[kind]}, got {got}")


def _field(raw: dict, key: str, kind: type, default, where: str = ""):
    """``raw[key]`` or ``default`` when absent, of JSON type ``kind``; a field
    whose default is None may also be null."""
    value = raw.get(key, default)
    if type(value) is not kind and not (value is None and default is None):
        raise _type_error(value, kind, where + key)
    return value


def _array(raw: dict, key: str, kind: type, where: str = "") -> list:
    """``raw[key]``, an array (empty when absent) of JSON type ``kind`` items."""
    items = _field(raw, key, list, [], where)
    for i, item in enumerate(items):
        if type(item) is not kind:
            raise _type_error(item, kind, f"{where}{key}[{i}]")
    return items


def _hex_or_none(value, where: str) -> bytes | None:
    if value is None:
        return None
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise InvalidScenarioError(f"{where}: expected hex octets, got {value!r}") from None


def _behavior_from_dict(raw: dict, where: str) -> BehaviorProfile:
    extra = set(raw) - {"profile", "target_index", "forged_payload"}
    if extra:
        raise InvalidScenarioError(f"{where}: unknown behavior keys {sorted(extra)}")
    kind = raw.get("profile", HONEST)
    if kind not in PROFILE_KINDS:
        raise InvalidScenarioError(f"{where}: unknown profile {kind!r}")
    profile = BehaviorProfile(
        kind,
        _field(raw, "target_index", int, None, f"{where}."),
        _hex_or_none(raw.get("forged_payload"), f"{where}.forged_payload"),
    )
    if kind == COUNTERFEIT and (profile.target_index is None or profile.forged_payload is None):
        raise InvalidScenarioError(f"{where}: counterfeit needs target_index and forged_payload")
    if kind == ERASE_FOREIGN and profile.target_index is None:
        raise InvalidScenarioError(f"{where}: erase_foreign needs target_index")
    return profile


def scenario_from_dict(raw: dict) -> Scenario:
    """Build and validate a Scenario from its JSON form.

    Fields are type-checked as they are read, so a malformed scenario
    raises InvalidScenarioError and nothing else.
    """
    known = {
        "params", "seed", "agent_server", "route_servers", "hosts", "route",
        "channels", "default_channel_security", "policy_mode",
    }
    extra = set(raw) - known
    if extra:
        raise InvalidScenarioError(f"unknown scenario keys {sorted(extra)}")
    try:
        params = CipherParams(**_field(raw, "params", dict, {}))
    except (TypeError, ValueError) as exc:
        raise InvalidScenarioError(f"bad params: {exc}") from None

    hosts = []
    for i, h in enumerate(_array(raw, "hosts", dict)):
        where = f"hosts[{i}]"
        extra = set(h) - {"id", "behavior", "payload", "mode", "revisit"}
        if extra:
            raise InvalidScenarioError(f"{where}: unknown keys {sorted(extra)}")
        if "id" not in h:
            raise InvalidScenarioError(f"{where}: missing id")
        mode = _field(h, "mode", str, "sign", f"{where}.")
        if mode not in MODE_WORDS:
            raise InvalidScenarioError(f"{where}: mode must be sign or encrypt")
        revisit = h.get("revisit", "edit")
        if revisit not in REVISIT_ACTIONS:
            raise InvalidScenarioError(f"{where}: revisit must be one of {REVISIT_ACTIONS}")
        hosts.append(
            HostConfig(
                _field(h, "id", str, "", f"{where}."),
                _behavior_from_dict(_field(h, "behavior", dict, {}, f"{where}."), f"{where}.behavior"),
                _hex_or_none(h.get("payload"), f"{where}.payload"),
                MODE_WORDS[mode],
                revisit,
            )
        )

    channels = []
    for i, c in enumerate(_array(raw, "channels", dict)):
        where = f"channels[{i}]"
        endpoints = _array(c, "endpoints", str, f"{where}.")
        if set(c) != {"endpoints", "security"} or len(endpoints) != 2:
            raise InvalidScenarioError(f"{where}: need endpoints [a, b] and security")
        try:
            security = ChannelSecurity(c["security"])
        except ValueError:
            raise InvalidScenarioError(f"{where}: bad security {c['security']!r}") from None
        channels.append(Channel(tuple(sorted(endpoints)), security))

    try:
        default_security = ChannelSecurity(raw.get("default_channel_security", "secure"))
    except ValueError:
        raise InvalidScenarioError("bad default_channel_security") from None

    scenario = Scenario(
        params=params,
        seed=_field(raw, "seed", int, 0),
        agent_server=_field(raw, "agent_server", str, ""),
        route_servers=tuple(_array(raw, "route_servers", str)),
        hosts=tuple(hosts),
        route=tuple(_array(raw, "route", str)),
        channels=tuple(channels),
        default_channel_security=default_security,
        policy_mode=raw.get("policy_mode", "record"),
    )
    validate_scenario(scenario)
    return scenario


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
    if not 0 <= scenario.seed < 2**64:
        raise InvalidScenarioError("seed must fit in 64 bits")
    if scenario.policy_mode not in POLICY_MODES:
        raise InvalidScenarioError(f"policy_mode must be one of {POLICY_MODES}")
    if not scenario.agent_server:
        raise InvalidScenarioError("agent_server is required")
    if not scenario.route_servers:
        raise InvalidScenarioError("at least one route server is required")
    if not scenario.route:
        raise InvalidScenarioError("route must not be empty")
    if not scenario.hosts:
        raise InvalidScenarioError("at least one host is required")

    labels = [cfg.id for cfg in scenario.hosts]
    if len(set(labels)) != len(labels):
        raise InvalidScenarioError("duplicate host ids")
    everyone = [scenario.agent_server, *scenario.route_servers, *labels]
    if len(set(everyone)) != len(everyone):
        raise InvalidScenarioError("agent server, route servers, and hosts must be distinct")
    for label in everyone:
        try:
            host_id(label)
        except ValueError as exc:
            raise InvalidScenarioError(str(exc)) from None
    unknown = [label for label in scenario.route if label not in set(labels)]
    if unknown:
        raise InvalidScenarioError(f"route names unknown hosts: {unknown}")
    for ch in scenario.channels:
        for end in ch.endpoints:
            if end not in set(everyone):
                raise InvalidScenarioError(f"channel endpoint {end!r} is not a participant")


# --- channel policy ----------------------------------------------------------


def channel_between(scenario: Scenario, a: str, b: str) -> Channel:
    ends = tuple(sorted((a, b)))
    for ch in scenario.channels:
        if ch.endpoints == ends:
            return ch
    return Channel(ends, scenario.default_channel_security)


def enforce_channel_policy(message, channel: Channel) -> dict | None:
    """None when the delivery is allowed, else a violation record.

    Encryption keys are only as secret as the channel that carries them, so a
    KeyResponse holding any encryption-mode key over an insecure channel is a
    violation. Signature keys are past their one use and may travel in the
    clear; everything else always passes.
    """
    if isinstance(message, KeyResponse) and channel.security is ChannelSecurity.INSECURE:
        exposed = sum(1 for k in message.keys if k.mode is ProtectionMode.ENCRYPTION)
        if exposed:
            return {
                "kind": "insecure_key_transfer",
                "channel": list(channel.endpoints),
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
    the masked signature; erase_foreign deletes the register outright. The
    other profiles act elsewhere (brainwash_replay at its revisit,
    orphan_key at key-response time, key_reuse at protection time) and leave
    the area alone. Returns the new area and, when the configured target
    does not exist, a note record.
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
    padded = forged + b"\x00" * (padded_octets(len(forged), params) - len(forged))
    fake = Register(reg.mode, len(forged), padded, reg.masked_cw, reg.masked_mfd)
    registers = list(area.registers)
    registers[idx] = fake
    return replace(area, registers=tuple(registers)), None


# --- the event loop ------------------------------------------------------------


@dataclass
class _HostRuntime:
    config: HostConfig
    state: PeerHostState
    visits: int = 0
    snapshot: AgentDataArea | None = None  # what a brainwash host first forwarded


def _intent_for(cfg: HostConfig, first: bool) -> tuple[str, bytes | None]:
    """The (action, payload) of a host's visit."""
    if first:
        if cfg.payload is None:
            return "idle", None
        return "append", cfg.payload
    if cfg.revisit == "idle" or cfg.payload is None:
        return "idle", None
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
    validate_scenario(scenario)
    params = scenario.params
    abort = scenario.policy_mode == "abort"
    master = random.Random(scenario.seed)
    server_rng = random.Random(master.getrandbits(64))
    host_rngs = {cfg.id: random.Random(master.getrandbits(64)) for cfg in scenario.hosts}

    server = AgentServerState(server_rng)
    rs_states = {label: RouteServerState() for label in scenario.route_servers}
    hosts = {
        cfg.id: _HostRuntime(cfg, PeerHostState(host_id(cfg.id), host_rngs[cfg.id]))
        for cfg in scenario.hosts
    }

    trace: list[SimEvent] = []
    violations: list[dict] = []

    def deliver(src: str, dst: str, message):
        """Police, encode, decode and trace one message; the receiver acts on
        the decoded copy returned. None when the abort policy stops it."""
        channel = channel_between(scenario, src, dst)
        violation = enforce_channel_policy(message, channel)
        if violation:
            violations.append({**violation, "aborted": abort})
            if abort:
                return None
        kind, encode, decode = MESSAGE_CODECS[type(message)]
        raw = encode(message)
        received = decode(raw)
        detail = {"octets": len(raw)}
        if isinstance(received, RouteAnswer):
            detail["hosts"] = [host_label(h) for h in received.hosts]
        elif isinstance(received, KeyResponse):
            detail["keys"] = len(received.keys)
        trace.append(SimEvent(len(trace) + 1, kind, src, dst, channel.security.value, detail))
        return received

    area = server_dispatch(server, [host_id(label) for label in scenario.route])
    agent = area.agent
    image = encode_area(area, params)

    carrier = scenario.agent_server
    for label in scenario.route:
        transfer = deliver(carrier, label, AgentTransfer(agent, image))
        area = decode_area(transfer.area_image, transfer.agent, params)
        area = _apply_visit(hosts[label], area, rs_states, deliver, violations, params)
        image = encode_area(area, params)
        carrier = label

    transfer = deliver(carrier, scenario.agent_server, AgentTransfer(agent, image))
    area = decode_area(transfer.area_image, transfer.agent, params)

    answers = []
    for label, rs in rs_states.items():
        query = deliver(scenario.agent_server, label, RouteQuery(agent))
        logged = RouteAnswer(tuple(route_get(rs, query.agent)))
        answer = deliver(label, scenario.agent_server, logged)
        answers.append(list(answer.hosts))

    merged = merge_route_answers(answers)
    if merged is None:
        # no trustworthy route, so no key requests can be driven from it
        verification = VerificationReport(Verdict.DISCARD, DiscardReason.ROUTE_MISMATCH)
    else:
        collected: dict[bytes, list[OneTimeKey]] = {}
        for hid in dict.fromkeys(merged):
            label = host_label(hid)
            runtime = hosts[label]
            request = deliver(scenario.agent_server, label, KeyRequest(agent))
            keys = host_send_keys(runtime.state, request.agent).keys
            if runtime.config.behavior.kind == ORPHAN_KEY:
                bogus_bits = runtime.state.rng.randbytes(params.signature_width_bits // 8)
                keys += (OneTimeKey(ProtectionMode.SIGNATURE, bogus_bits),)
            response = deliver(label, scenario.agent_server, KeyResponse(keys))
            if response is not None:
                collected[hid] = list(response.keys)
        verification = server_reconcile(server, agent, area, collected, merged, params)

    assertions = _trace_assertions(trace, scenario, violations)
    return SimReport(trace, verification, violations, assertions)


def _apply_visit(
    runtime: _HostRuntime,
    area: AgentDataArea,
    rs_states: dict[str, RouteServerState],
    deliver,
    violations: list[dict],
    params: CipherParams,
) -> AgentDataArea:
    cfg = runtime.config
    profile = cfg.behavior
    state = runtime.state
    first = runtime.visits == 0
    runtime.visits += 1
    for label, rs in rs_states.items():
        entry = deliver(cfg.id, label, RouteLogEntry(area.agent, state.id))
        route_log_visit(rs, entry.agent, entry.host)

    if profile.kind == BRAINWASH_REPLAY and not first:
        # looks like any other visit to the route servers, then swaps the area
        return runtime.snapshot

    if first and profile.kind in (COUNTERFEIT, ERASE_FOREIGN):
        area, note = apply_adversary(profile, area, params)
        if note:
            violations.append({**note, "host": cfg.id})

    action, payload = _intent_for(cfg, first)
    area = host_handle_agent(state, area, action, payload, cfg.mode, params)

    if profile.kind == KEY_REUSE and first:
        keys = state.keystore.get(area.agent)
        if keys:
            try:
                protect_register(cfg.payload or b"", 0, keys[-1], params)
            except KeyConsumedError:
                violations.append(
                    {
                        "kind": "key_reuse_blocked",
                        "host": cfg.id,
                        "note": "second use of a one-time key rejected locally",
                    }
                )
            else:
                violations.append({"kind": "key_reuse_not_blocked", "host": cfg.id})

    if profile.kind == BRAINWASH_REPLAY and first:
        runtime.snapshot = area
    return area


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
