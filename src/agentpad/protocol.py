"""Role state machines: peer host and agent server.

The protocol is non-interactive: after dispatch the agent server exchanges
nothing with peer hosts until the agent returns. Hosts protect their own
contributions with one-time keys, report each visit to the route servers,
and surrender their keys only when the returned agent's server asks. The
server then reconciles keys against registers: acceptance demands a perfect
one-to-one matching plus route consistency, so erased registers surface as
orphan keys and injected registers as unmatched ones. Hosts and the server
read one match list, ``find_own_registers``, and the server decrypts only
what it accepts. A route server has no code in this module: it is a log
dict that the simulator keeps, from agent id to the visiting host ids in
arrival order. Every message's wire image lives in ``codec``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

from .cipher import (
    CipherParams,
    DEFAULT_PARAMS,
    OneTimeKey,
    ProtectionMode,
    check_register,
    gen_key,
    protect_register,
)
from .codec import AGENT_ID_OCTETS, HOST_ID_OCTETS, AgentDataArea, find_own_registers

VISIT_ACTIONS = ("edit", "remove", "append", "idle")


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
    if action not in VISIT_ACTIONS:
        raise ValueError(f"unknown visit action {action!r}")
    if action == "idle":
        return area
    if action != "remove" and payload is None:
        raise ValueError(f"{action} needs a payload")
    keys = host.keystore.setdefault(area.agent, [])
    registers = list(area.registers)
    own = [] if action == "append" else find_own_registers(area, keys, params)
    if own:
        reg_index, key_index = own[0]
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


def host_send_keys(host: PeerHostState, agent: bytes) -> tuple[OneTimeKey, ...]:
    """Surrender every key held for ``agent`` and delete them locally.

    Draining is one-shot by construction: a second request finds nothing.
    A host that removed its own register legitimately answers empty.
    """
    return tuple(host.keystore.pop(agent, ()))


# --- route server ------------------------------------------------------------


def merge_route_answers(answers: list[tuple[bytes, ...]]) -> tuple[bytes, ...] | None:
    """The common route if every route server agrees, else None."""
    if not answers:
        return None
    first = answers[0]
    for other in answers[1:]:
        if other != first:
            return None
    return first


# --- agent server ------------------------------------------------------------


@dataclass
class AgentServerState:
    """The dispatching server: the rng that mints agent ids."""

    rng: Any


def server_dispatch(server: AgentServerState) -> AgentDataArea:
    """Mint a fresh agent with an empty data area."""
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
    key_responses: dict[bytes, Sequence[OneTimeKey]],
    route: Sequence[bytes],
    params: CipherParams = DEFAULT_PARAMS,
) -> VerificationReport:
    """Reconcile the surrendered keys on the hosts' match list, ``find_own_registers``.

    Accept requires a perfect one-to-one matching (each key validates exactly
    one register and vice versa) and that every host attributed through a key
    appears on the logged route. ``key_responses`` maps each responding host
    to the keys it surrendered, and a register is attributed to the host whose
    key matches it. Hosts on the route with no keys are fine; they contributed
    nothing or removed their own register. Failures are verdicts, not errors,
    reported with a fixed reason precedence. Only an accepted run's encrypted
    registers are decrypted, each under its matched key.
    """
    flat: list[tuple[bytes, OneTimeKey]] = [
        (host, key) for host, keys in key_responses.items() for key in keys
    ]
    registers = area.registers
    matches = find_own_registers(area, [key for _, key in flat], params)

    if len({ki for _, ki in matches}) < len(flat):
        return VerificationReport(Verdict.DISCARD, DiscardReason.ORPHAN_KEY)
    if len({ri for ri, _ in matches}) < len(registers):
        return VerificationReport(Verdict.DISCARD, DiscardReason.UNMATCHED_REGISTER)
    # every key and every register matched, so any surplus match is a second
    # match of some key or of some register
    if len(matches) > len(flat) or len(matches) > len(registers):
        return VerificationReport(Verdict.DISCARD, DiscardReason.DUPLICATE_MATCH)

    logged = set(route)
    if any(host not in logged for host, _ in flat):
        return VerificationReport(Verdict.DISCARD, DiscardReason.ROUTE_MISMATCH)

    attribution = tuple((ri, flat[ki][0]) for ri, ki in matches)
    plaintexts = {
        ri: check_register(registers[ri], flat[ki][1], params).plaintext
        for ri, ki in matches
        if registers[ri].mode is ProtectionMode.ENCRYPTION
    }
    return VerificationReport(Verdict.ACCEPT, None, attribution, plaintexts)
