"""Role state machines: peer host, agent server, route server.

The protocol is non-interactive: after dispatch the agent server exchanges
nothing with peer hosts until the agent returns. Hosts protect their own
contributions with one-time keys, report each visit to the route servers
with a RouteLogEntry, and surrender their keys only when the returned
agent's server asks. The server then reconciles keys against registers:
acceptance demands a perfect one-to-one matching plus route consistency, so
erased registers surface as orphan keys and injected registers as unmatched
ones.

Message wire layouts (big-endian throughout):

    AgentTransfer   agent id (16) + area image
    RouteLogEntry   agent id (16) + host id (8)
    RouteQuery      agent id (16)
    RouteAnswer     count (4) + host ids (8 each)
    KeyRequest      agent id (16)
    KeyResponse     count (4) + per key: mode octet, bit length (4), octets

``MESSAGE_CODECS`` maps each message class to its trace kind, encoder and
decoder; the simulator's bus sends every message through it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from .cipher import (
    CipherParams,
    DEFAULT_PARAMS,
    OneTimeKey,
    ProtectionMode,
    check_register,
    gen_key,
    protect_register,
)
from .codec import (
    AgentDataArea,
    TrailingGarbageError,
    TruncatedError,
    append_register,
    find_own_registers,
    read_key,
    encode_key,
    remove_own_register,
    replace_own_register,
)

HOST_ID_OCTETS = 8
AGENT_ID_OCTETS = 16


class ProtocolError(Exception):
    pass


class EmptyRouteError(ProtocolError):
    pass


def host_id(label: str) -> bytes:
    """8-octet identifier from a short label (NUL-padded UTF-8)."""
    raw = label.encode()
    if not 0 < len(raw) <= HOST_ID_OCTETS:
        raise ValueError(f"host label must encode to 1..{HOST_ID_OCTETS} octets: {label!r}")
    return raw.ljust(HOST_ID_OCTETS, b"\x00")


def host_label(hid: bytes) -> str:
    return hid.rstrip(b"\x00").decode()


# --- protocol messages -----------------------------------------------------


@dataclass(frozen=True)
class AgentTransfer:
    agent: bytes
    area_image: bytes


@dataclass(frozen=True)
class RouteLogEntry:
    agent: bytes
    host: bytes


@dataclass(frozen=True)
class RouteQuery:
    agent: bytes


@dataclass(frozen=True)
class RouteAnswer:
    hosts: tuple[bytes, ...]


@dataclass(frozen=True)
class KeyRequest:
    agent: bytes


@dataclass(frozen=True)
class KeyResponse:
    keys: tuple[OneTimeKey, ...]


def _agent_id(raw: bytes, what: str) -> bytes:
    if len(raw) < AGENT_ID_OCTETS:
        raise TruncatedError(f"{what}: agent id incomplete")
    return raw[:AGENT_ID_OCTETS]


def encode_agent_transfer(msg: AgentTransfer) -> bytes:
    return msg.agent + msg.area_image


def decode_agent_transfer(raw: bytes) -> AgentTransfer:
    agent = _agent_id(raw, "AgentTransfer")
    return AgentTransfer(agent, raw[AGENT_ID_OCTETS:])


def encode_route_log_entry(msg: RouteLogEntry) -> bytes:
    return msg.agent + msg.host


def decode_route_log_entry(raw: bytes) -> RouteLogEntry:
    agent = _agent_id(raw, "RouteLogEntry")
    if len(raw) != AGENT_ID_OCTETS + HOST_ID_OCTETS:
        raise TruncatedError("RouteLogEntry: host id incomplete or trailing octets")
    return RouteLogEntry(agent, raw[AGENT_ID_OCTETS:])


def encode_route_query(msg: RouteQuery) -> bytes:
    return msg.agent


def decode_route_query(raw: bytes) -> RouteQuery:
    if len(raw) != AGENT_ID_OCTETS:
        raise TruncatedError("RouteQuery: bad length")
    return RouteQuery(raw)


def encode_route_answer(msg: RouteAnswer) -> bytes:
    return struct.pack(">I", len(msg.hosts)) + b"".join(msg.hosts)


def decode_route_answer(raw: bytes) -> RouteAnswer:
    if len(raw) < 4:
        raise TruncatedError("RouteAnswer: count incomplete")
    (count,) = struct.unpack_from(">I", raw, 0)
    if len(raw) != 4 + count * HOST_ID_OCTETS:
        raise TruncatedError("RouteAnswer: host list length mismatch")
    hosts = tuple(
        raw[4 + i * HOST_ID_OCTETS : 4 + (i + 1) * HOST_ID_OCTETS] for i in range(count)
    )
    return RouteAnswer(hosts)


def encode_key_request(msg: KeyRequest) -> bytes:
    return msg.agent


def decode_key_request(raw: bytes) -> KeyRequest:
    if len(raw) != AGENT_ID_OCTETS:
        raise TruncatedError("KeyRequest: bad length")
    return KeyRequest(raw)


def encode_key_response(msg: KeyResponse) -> bytes:
    parts = [struct.pack(">I", len(msg.keys))]
    parts.extend(encode_key(key) for key in msg.keys)
    return b"".join(parts)


def decode_key_response(raw: bytes, owner: bytes = b"") -> KeyResponse:
    if len(raw) < 4:
        raise TruncatedError("KeyResponse: count incomplete")
    (count,) = struct.unpack_from(">I", raw, 0)
    offset = 4
    keys = []
    for _ in range(count):
        key, offset = read_key(raw, offset, owner)
        keys.append(key)
    if offset != len(raw):
        raise TrailingGarbageError("KeyResponse: trailing octets")
    return KeyResponse(tuple(keys))


MESSAGE_CODECS: dict[type, tuple[str, Callable[[Any], bytes], Callable[[bytes], Any]]] = {
    AgentTransfer: ("agent_transfer", encode_agent_transfer, decode_agent_transfer),
    RouteLogEntry: ("route_log", encode_route_log_entry, decode_route_log_entry),
    RouteQuery: ("route_query", encode_route_query, decode_route_query),
    RouteAnswer: ("route_answer", encode_route_answer, decode_route_answer),
    KeyRequest: ("key_request", encode_key_request, decode_key_request),
    KeyResponse: ("key_response", encode_key_response, decode_key_response),
}


# --- peer host ---------------------------------------------------------------


@dataclass
class KeyRecord:
    agent: bytes
    key: OneTimeKey


@dataclass
class PeerHostState:
    """A visited host: its identity, rng, and live keys."""

    id: bytes
    rng: Any
    keystore: list[KeyRecord] = field(default_factory=list)

    def keys_for(self, agent: bytes) -> list[OneTimeKey]:
        return [rec.key for rec in self.keystore if rec.agent == agent]

    def all_keys(self) -> list[OneTimeKey]:
        return [rec.key for rec in self.keystore]


@dataclass(frozen=True)
class VisitIntent:
    """What a host wants to do while holding the agent.

    action: "append" | "edit" | "remove" | "idle". ``payload`` is the message
    for append/edit; edits fall back to an append when the host's register
    is no longer present.
    """

    action: str
    payload: bytes | None = None


def host_handle_agent(
    host: PeerHostState,
    area: AgentDataArea,
    intent: VisitIntent,
    mode: ProtectionMode,
    params: CipherParams = DEFAULT_PARAMS,
) -> tuple[PeerHostState, AgentDataArea]:
    """Honest handling of one visit.

    Applies the intent: fresh codeword and key for appends and edits (the
    old key is discarded on edit), key deletion together with register
    removal. Reporting the visit to the route servers is the caller's job.
    """
    if intent.action == "idle":
        return host, area
    if intent.action == "append":
        if intent.payload is None:
            raise ValueError("append intent needs a payload")
        return _host_append(host, area, intent.payload, mode, params)
    if intent.action == "edit":
        if intent.payload is None:
            raise ValueError("edit intent needs a payload")
        own = find_own_registers(area, host.keys_for(area.agent), params)
        if not own:
            return _host_append(host, area, intent.payload, mode, params)
        reg_index, key_index = min(own)
        new_cw = host.rng.getrandbits(params.block_width_bits)
        new_key = gen_key(
            mode, len(intent.payload), area, host.all_keys(), host.rng, params, host.id
        )
        area = replace_own_register(area, reg_index, intent.payload, new_cw, new_key, params)
        old = host.keys_for(area.agent)[key_index]
        host.keystore = [rec for rec in host.keystore if rec.key is not old]
        host.keystore.append(KeyRecord(area.agent, new_key))
        return host, area
    if intent.action == "remove":
        own = find_own_registers(area, host.keys_for(area.agent), params)
        if not own:
            return host, area
        reg_index, key_index = min(own)
        area = remove_own_register(area, reg_index)
        old = host.keys_for(area.agent)[key_index]
        host.keystore = [rec for rec in host.keystore if rec.key is not old]
        return host, area
    raise ValueError(f"unknown visit action {intent.action!r}")


def _host_append(host, area, payload, mode, params):
    cw = host.rng.getrandbits(params.block_width_bits)
    key = gen_key(mode, len(payload), area, host.all_keys(), host.rng, params, host.id)
    area = append_register(area, protect_register(payload, cw, key, params))
    host.keystore.append(KeyRecord(area.agent, key))
    return host, area


def host_send_keys(host: PeerHostState, agent: bytes) -> tuple[PeerHostState, KeyResponse]:
    """Surrender every key held for ``agent`` and delete them locally.

    Draining is one-shot by construction: a second request finds nothing.
    A host that removed its own register legitimately answers empty.
    """
    keys = tuple(rec.key for rec in host.keystore if rec.agent == agent)
    host.keystore = [rec for rec in host.keystore if rec.agent != agent]
    return host, KeyResponse(keys)


# --- route server ------------------------------------------------------------


@dataclass
class RouteServerState:
    """Append-only visit log, per agent, with strictly increasing sequence numbers."""

    logs: dict[bytes, list[tuple[int, bytes]]] = field(default_factory=dict)


def route_log_visit(rs: RouteServerState, agent: bytes, host: bytes) -> RouteServerState:
    entries = rs.logs.setdefault(agent, [])
    entries.append((len(entries) + 1, host))
    return rs


def route_get(rs: RouteServerState, agent: bytes) -> list[bytes]:
    return [host for _, host in rs.logs.get(agent, [])]


def merge_route_answers(answers: list[list[bytes]]) -> list[bytes] | None:
    """The common route if every route server agrees, else None."""
    if not answers:
        return None
    first = answers[0]
    for other in answers[1:]:
        if other != first:
            return None
    return list(first)


# --- agent server ------------------------------------------------------------


@dataclass(frozen=True)
class DispatchRecord:
    route: tuple[bytes, ...]
    route_servers: tuple[bytes, ...]


@dataclass
class AgentServerState:
    """The dispatching server and the plan of every agent it dispatched."""

    id: bytes
    rng: Any
    dispatched: dict[bytes, DispatchRecord] = field(default_factory=dict)


def server_dispatch(
    server: AgentServerState,
    route: list[bytes],
    route_servers: list[bytes],
) -> tuple[AgentServerState, AgentDataArea]:
    """Mint a fresh agent with an empty data area and record its plan."""
    if not route:
        raise EmptyRouteError("dispatch requires at least one hop")
    agent = server.rng.randbytes(AGENT_ID_OCTETS)
    server.dispatched[agent] = DispatchRecord(tuple(route), tuple(route_servers))
    return server, AgentDataArea(agent)


class Verdict(Enum):
    ACCEPT = "accept"
    DISCARD = "discard"


class DiscardReason(Enum):
    ORPHAN_KEY = "orphan_key"
    UNMATCHED_REGISTER = "unmatched_register"
    DUPLICATE_MATCH = "duplicate_match"
    ROUTE_MISMATCH = "route_mismatch"


@dataclass(frozen=True)
class VerificationReport:
    """Reconciliation outcome: per-register attribution or a discard verdict.

    attribution maps register index to the supplying host; plaintexts holds
    the recovered messages of encrypted registers. Both are empty on discard,
    since discarded data carries no trustworthy claims.
    """

    verdict: Verdict
    reason: DiscardReason | None = None
    attribution: tuple[tuple[int, bytes], ...] = ()
    plaintexts: dict[int, bytes] = field(default_factory=dict)


def server_reconcile(
    server: AgentServerState,
    agent: bytes,
    area: AgentDataArea,
    key_responses: dict[bytes, list[OneTimeKey]],
    route: list[bytes],
    params: CipherParams = DEFAULT_PARAMS,
) -> VerificationReport:
    """Match every surrendered key against every register.

    Accept requires a perfect one-to-one matching (each key validates exactly
    one register and vice versa) and that every host attributed through a key
    appears on the logged route. Hosts on the route with no keys are fine;
    they contributed nothing or removed their own register. Failures are
    verdicts, not errors, reported with a fixed reason precedence.
    """
    flat: list[tuple[bytes, OneTimeKey]] = [
        (host, key) for host, keys in key_responses.items() for key in keys
    ]
    n_regs = len(area.registers)
    key_matches: list[list[int]] = []
    reg_matches: list[list[int]] = [[] for _ in range(n_regs)]
    results: dict[tuple[int, int], bytes | None] = {}
    for ki, (_, key) in enumerate(flat):
        hits = []
        for ri, reg in enumerate(area.registers):
            res = check_register(reg, key, params)
            if res.valid:
                hits.append(ri)
                reg_matches[ri].append(ki)
                results[(ki, ri)] = res.plaintext
        key_matches.append(hits)

    if any(not hits for hits in key_matches):
        return VerificationReport(Verdict.DISCARD, DiscardReason.ORPHAN_KEY)
    if any(not kis for kis in reg_matches):
        return VerificationReport(Verdict.DISCARD, DiscardReason.UNMATCHED_REGISTER)
    if any(len(hits) > 1 for hits in key_matches) or any(
        len(kis) > 1 for kis in reg_matches
    ):
        return VerificationReport(Verdict.DISCARD, DiscardReason.DUPLICATE_MATCH)

    logged = set(route)
    if any(host not in logged for host, _ in flat):
        return VerificationReport(Verdict.DISCARD, DiscardReason.ROUTE_MISMATCH)

    attribution = []
    plaintexts = {}
    for ri, (kis) in enumerate(reg_matches):
        ki = kis[0]
        attribution.append((ri, flat[ki][0]))
        if area.registers[ri].mode is ProtectionMode.ENCRYPTION:
            plaintexts[ri] = results[(ki, ri)]
    return VerificationReport(Verdict.ACCEPT, None, tuple(attribution), plaintexts)
