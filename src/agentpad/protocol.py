"""Role state machines: peer host, agent server, route server.

The protocol is non-interactive: after dispatch the agent server exchanges
nothing with peer hosts until the agent returns. Hosts protect their own
contributions with one-time keys, report each visit to the route servers
with a RouteLogEntry, and surrender their keys only when the returned
agent's server asks. The server then reconciles keys against registers:
acceptance demands a perfect one-to-one matching plus route consistency, so
erased registers surface as orphan keys and injected registers as unmatched
ones.

Message wire layouts (big-endian throughout; a counted list is a 4-octet
item count followed by the items):

    AgentDataArea   agent id (16) + area image (counted list of registers),
                    traced as agent_transfer
    RouteLogEntry   agent id (16) + host id (8)
    RouteQuery      agent id (16)
    RouteAnswer     counted list of host ids (8 each)
    KeyRequest      agent id (16)
    KeyResponse     counted list of keys: mode octet, bit length (4), octets

``MESSAGE_CODECS`` maps each message class to its trace kind, encoder and
decoder. Every codec takes ``(value, params)``, so the simulator's bus sends
every message through it the same way.
"""

from __future__ import annotations

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
    TruncatedError,
    decode_area,
    encode_area,
    encode_key,
    find_own_registers,
    read_counted,
    read_exact,
    read_key,
    write_counted,
)

HOST_ID_OCTETS = 8
AGENT_ID_OCTETS = 16


class ProtocolError(Exception):
    pass


class EmptyRouteError(ProtocolError):
    pass


def host_id(label: str) -> bytes:
    """8-octet identifier from a short label (NUL-padded UTF-8).

    A label holding a NUL is refused: its id would read back as another label.
    """
    raw = label.encode()
    if not 0 < len(raw) <= HOST_ID_OCTETS or b"\x00" in raw:
        raise ValueError(f"host label must encode to 1..{HOST_ID_OCTETS} non-NUL octets: {label!r}")
    return raw.ljust(HOST_ID_OCTETS, b"\x00")


def host_label(hid: bytes) -> str:
    return hid.rstrip(b"\x00").decode()


# --- protocol messages -----------------------------------------------------


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


def encode_agent_transfer(area: AgentDataArea, params: CipherParams) -> bytes:
    return area.agent + encode_area(area, params)


def decode_agent_transfer(raw: bytes, params: CipherParams) -> AgentDataArea:
    if len(raw) < AGENT_ID_OCTETS:
        raise TruncatedError("agent transfer: agent id incomplete")
    return decode_area(raw[AGENT_ID_OCTETS:], raw[:AGENT_ID_OCTETS], params)


def encode_route_log_entry(msg: RouteLogEntry, params: CipherParams) -> bytes:
    return msg.agent + msg.host


def decode_route_log_entry(raw: bytes, params: CipherParams) -> RouteLogEntry:
    read_exact(raw, AGENT_ID_OCTETS + HOST_ID_OCTETS, "RouteLogEntry")
    return RouteLogEntry(raw[:AGENT_ID_OCTETS], raw[AGENT_ID_OCTETS:])


def encode_agent_id(msg: RouteQuery | KeyRequest, params: CipherParams) -> bytes:
    return msg.agent


def decode_route_query(raw: bytes, params: CipherParams) -> RouteQuery:
    return RouteQuery(read_exact(raw, AGENT_ID_OCTETS, "RouteQuery"))


def decode_key_request(raw: bytes, params: CipherParams) -> KeyRequest:
    return KeyRequest(read_exact(raw, AGENT_ID_OCTETS, "KeyRequest"))


def _read_host(raw: bytes, offset: int) -> tuple[bytes, int]:
    end = offset + HOST_ID_OCTETS
    return read_exact(raw[offset:end], HOST_ID_OCTETS, "RouteAnswer host id"), end


def encode_route_answer(msg: RouteAnswer, params: CipherParams) -> bytes:
    return write_counted(msg.hosts)


def decode_route_answer(raw: bytes, params: CipherParams) -> RouteAnswer:
    return RouteAnswer(read_counted(raw, _read_host, "RouteAnswer"))


def encode_key_response(msg: KeyResponse, params: CipherParams) -> bytes:
    return write_counted([encode_key(key) for key in msg.keys])


def decode_key_response(raw: bytes, params: CipherParams) -> KeyResponse:
    return KeyResponse(read_counted(raw, read_key, "KeyResponse"))


MESSAGE_CODECS: dict[type, tuple[str, Callable[..., bytes], Callable[..., Any]]] = {
    AgentDataArea: ("agent_transfer", encode_agent_transfer, decode_agent_transfer),
    RouteLogEntry: ("route_log", encode_route_log_entry, decode_route_log_entry),
    RouteQuery: ("route_query", encode_agent_id, decode_route_query),
    RouteAnswer: ("route_answer", encode_route_answer, decode_route_answer),
    KeyRequest: ("key_request", encode_agent_id, decode_key_request),
    KeyResponse: ("key_response", encode_key_response, decode_key_response),
}


# --- peer host ---------------------------------------------------------------


@dataclass
class PeerHostState:
    """A visited host: its identity, rng, and the live keys it holds, per agent id.

    The keys of one agent are kept in the order they were drawn; they name no
    host, since the holder is the only party that needs to know whose they are.
    """

    id: bytes
    rng: Any
    keystore: dict[bytes, list[OneTimeKey]] = field(default_factory=dict)


def host_handle_agent(
    host: PeerHostState,
    area: AgentDataArea,
    action: str,
    payload: bytes | None,
    mode: ProtectionMode,
    params: CipherParams = DEFAULT_PARAMS,
) -> AgentDataArea:
    """Honest handling of one visit; returns the area the host forwards.

    ``action`` is "append", "edit", "remove" or "idle", and ``payload`` is
    the message for an append or an edit. An append protects the payload in
    a new register at the tail. An edit re-protects the host's first own
    register in place with a fresh codeword and key, and deletes the old key,
    since keeping both would expose the two protections to joint brute force;
    when that register is no longer present the edit appends instead. A
    removal drops the host's first own register together with its key, which
    would otherwise surface as evidence of tampering. The host finds its own
    registers by its keys, and every other register stays as it was.
    Reporting the visit to the route servers is the caller's job.
    """
    if action == "idle":
        return area
    if action not in ("append", "edit", "remove"):
        raise ValueError(f"unknown visit action {action!r}")
    if action != "remove" and payload is None:
        raise ValueError(f"{action} needs a payload")
    keys = host.keystore.setdefault(area.agent, [])
    registers = list(area.registers)
    own = [] if action == "append" else find_own_registers(area, keys, params)
    if own:
        reg_index, key_index = min(own)
    if action == "remove":
        if own:
            del registers[reg_index]
            del keys[key_index]
        return AgentDataArea(area.agent, tuple(registers))
    # seeded reports depend on this draw order (codeword, then key) and on
    # gen_key seeing every held key, the one an edit replaces included
    cw = host.rng.getrandbits(params.block_width_bits)
    held = [key for agent_keys in host.keystore.values() for key in agent_keys]
    key = gen_key(mode, len(payload), registers, held, host.rng, params)
    reg = protect_register(payload, cw, key, params)
    if own:
        registers[reg_index] = reg
        del keys[key_index]
    else:
        registers.append(reg)
    keys.append(key)
    return AgentDataArea(area.agent, tuple(registers))


def host_send_keys(host: PeerHostState, agent: bytes) -> KeyResponse:
    """Surrender every key held for ``agent`` and delete them locally.

    Draining is one-shot by construction: a second request finds nothing.
    A host that removed its own register legitimately answers empty.
    """
    return KeyResponse(tuple(host.keystore.pop(agent, ())))


# --- route server ------------------------------------------------------------


@dataclass
class RouteServerState:
    """Append-only visit log: per agent, the visiting hosts in arrival order."""

    logs: dict[bytes, list[bytes]] = field(default_factory=dict)


def route_log_visit(rs: RouteServerState, agent: bytes, host: bytes) -> None:
    rs.logs.setdefault(agent, []).append(host)


def route_get(rs: RouteServerState, agent: bytes) -> list[bytes]:
    return list(rs.logs.get(agent, []))


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


@dataclass
class AgentServerState:
    """The dispatching server: the rng that mints agent ids."""

    rng: Any


def server_dispatch(server: AgentServerState, route: list[bytes]) -> AgentDataArea:
    """Mint a fresh agent with an empty data area."""
    if not route:
        raise EmptyRouteError("dispatch requires at least one hop")
    return AgentDataArea(server.rng.randbytes(AGENT_ID_OCTETS))


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
    appears on the logged route. ``key_responses`` maps each responding host
    to the keys it surrendered, and a register is attributed to the host whose
    key matches it. Hosts on the route with no keys are fine; they contributed
    nothing or removed their own register. Failures are verdicts, not errors,
    reported with a fixed reason precedence.
    """
    flat: list[tuple[bytes, OneTimeKey]] = [
        (host, key) for host, keys in key_responses.items() for key in keys
    ]
    registers = area.registers
    matches: list[tuple[int, int, bytes | None]] = []  # (key, register, plaintext)
    for ki, (_, key) in enumerate(flat):
        for ri, reg in enumerate(registers):
            res = check_register(reg, key, params)
            if res.valid:
                matches.append((ki, ri, res.plaintext))

    if len({ki for ki, _, _ in matches}) < len(flat):
        return VerificationReport(Verdict.DISCARD, DiscardReason.ORPHAN_KEY)
    if len({ri for _, ri, _ in matches}) < len(registers):
        return VerificationReport(Verdict.DISCARD, DiscardReason.UNMATCHED_REGISTER)
    # every key and every register matched, so any surplus match is a second
    # match of some key or of some register
    if len(matches) > len(flat) or len(matches) > len(registers):
        return VerificationReport(Verdict.DISCARD, DiscardReason.DUPLICATE_MATCH)

    logged = set(route)
    if any(host not in logged for host, _ in flat):
        return VerificationReport(Verdict.DISCARD, DiscardReason.ROUTE_MISMATCH)

    matches.sort(key=lambda match: match[1])
    attribution = tuple((ri, flat[ki][0]) for ki, ri, _ in matches)
    plaintexts = {
        ri: plain
        for _, ri, plain in matches
        if registers[ri].mode is ProtectionMode.ENCRYPTION
    }
    return VerificationReport(Verdict.ACCEPT, None, attribution, plaintexts)
