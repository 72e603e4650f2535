"""Agent data area model, bit-exact wire encoding and key–register matching.

Every octet the parties exchange is laid out here. Register layout (all
integers big-endian):

    mode        1 octet   (0x01 signature, 0x02 encryption)
    len         4 octets  (plaintext octet count)
    data_field  ceil(len*8/W)*W/8 octets
    masked_cw   W/8 octets
    masked_mfd  W/8 octets

An area image is a counted list, the framing every list on the wire shares:
a 4-octet item count, then the registers. A key image is a mode octet, a
4-octet bit length, and the key octets. Each fixed-size integer field is read
and written with one precompiled ``struct.Struct``. Neither registers nor keys
carry a host identifier: authorship is established only by key matching at
the agent server, which knows which host surrendered each key.

Each bus message is the plain value it carries, named by its trace kind.
Message layouts by kind:

    agent_transfer  AgentDataArea: agent id (16) + area image
    route_log       (agent id, host id): agent id (16) + host id (8)
    route_query     agent id (16)
    route_answer    tuple of host ids: counted list of host ids (8 each)
    key_request     agent id (16)
    key_response    tuple of OneTimeKey: counted list of key images

``MESSAGE_CODECS`` maps each kind to its encoder and decoder. Every codec
takes ``(value, params)``, so the simulator's bus sends every message
through it the same way.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .cipher import (
    CipherParams,
    DEFAULT_PARAMS,
    OneTimeKey,
    ProtectionMode,
    Register,
    check_register,
    padded_octets,
)


class CodecError(Exception):
    """Base class for wire-format failures."""


class TruncatedError(CodecError):
    """Image ends before the computed field boundary."""


class UnknownModeError(CodecError):
    """Mode octet outside the defined set."""


class TrailingGarbageError(CodecError):
    """Octets remain after a complete standalone image."""


@dataclass(slots=True)
class AgentDataArea:
    """Ordered registers carried by one agent.

    As for ``Register``, nothing assigns to an area once it is built, which a
    lint in tests/test_imports.py enforces; it is unhashable and not frozen
    because a frozen one costs more to build, once per transfer decoded.
    """

    agent: bytes
    registers: tuple[Register, ...] = ()


HOST_ID_OCTETS = 8
AGENT_ID_OCTETS = 16

_COUNT = struct.Struct(">I")
_HEADER = struct.Struct(">BI")
# the masked codeword and digest that close a register image, per block octets
_WORDS = {struct.calcsize(f">{code}"): struct.Struct(f">2{code}") for code in "BHIQ"}
_MODES = {mode.value: mode for mode in ProtectionMode}


def _read_header(raw: bytes, offset: int, what: str) -> tuple[ProtectionMode, int]:
    """The mode octet and 4-octet count that open a register or key image."""
    if len(raw) - offset < 5:
        raise TruncatedError(f"{what} header incomplete")
    octet, count = _HEADER.unpack_from(raw, offset)
    mode = _MODES.get(octet)
    if mode is None:
        raise UnknownModeError(f"mode octet 0x{octet:02x}")
    return mode, count


def _read_exact(raw: bytes, octets: int, what: str) -> bytes:
    """``raw`` itself, when it is a fixed-size image of exactly ``octets``."""
    if len(raw) != octets:
        error = TruncatedError if len(raw) < octets else TrailingGarbageError
        raise error(f"{what} is {len(raw)} octets, not {octets}")
    return raw


def _write_counted(images: Sequence[bytes]) -> bytes:
    """A counted list: the 4-octet item count, then the item images."""
    return _COUNT.pack(len(images)) + b"".join(images)


def _read_count(raw: bytes, what: str) -> int:
    """The item count that opens the counted list ``raw``."""
    if len(raw) < 4:
        raise TruncatedError(f"{what} count incomplete")
    return _COUNT.unpack_from(raw)[0]


def _read_counted(raw: bytes, read_item: Callable[..., tuple[Any, int]], what: str, *args) -> tuple:
    """Every item of the counted list that fills ``raw`` exactly;
    ``read_item(raw, offset, *args)`` returns one item and the next offset."""
    offset = 4
    items = []
    for _ in range(_read_count(raw, what)):
        item, offset = read_item(raw, offset, *args)
        items.append(item)
    if offset != len(raw):
        raise TrailingGarbageError(f"{len(raw) - offset} octets after {what}")
    return tuple(items)


def encode_register(reg: Register, params: CipherParams = DEFAULT_PARAMS) -> bytes:
    words = _WORDS[params.block_bytes].pack(reg.masked_cw, reg.masked_mfd)
    return b"".join((_HEADER.pack(reg.mode.value, reg.length), reg.data_field, words))


def read_register(raw: bytes, offset: int, params: CipherParams = DEFAULT_PARAMS) -> tuple[Register, int]:
    """Decode one register at ``offset``; returns it and the next offset."""
    mode, length = _read_header(raw, offset, "register")
    data_start = offset + 5
    data_end = data_start + padded_octets(length, params)
    words = _WORDS[params.block_bytes]
    end = data_end + words.size
    if len(raw) < end:
        raise TruncatedError(f"register body needs {end - offset} octets")
    return Register(mode, length, raw[data_start:data_end], *words.unpack_from(raw, data_end)), end


def decode_register(raw: bytes, params: CipherParams = DEFAULT_PARAMS) -> Register:
    """Strict standalone decode; rejects anything past the register."""
    reg, end = read_register(raw, 0, params)
    if end != len(raw):
        raise TrailingGarbageError(f"{len(raw) - end} octets after register")
    return reg


def encode_area(area: AgentDataArea, params: CipherParams = DEFAULT_PARAMS) -> bytes:
    return _write_counted([encode_register(reg, params) for reg in area.registers])


def decode_area(raw: bytes, agent: bytes, params: CipherParams = DEFAULT_PARAMS) -> AgentDataArea:
    return AgentDataArea(agent, _read_counted(raw, read_register, "area", params))


def encode_key(key: OneTimeKey) -> bytes:
    return _HEADER.pack(key.mode.value, 8 * len(key.bits)) + key.bits


def _read_key(raw: bytes, offset: int) -> tuple[OneTimeKey, int]:
    mode, bit_length = _read_header(raw, offset, "key")
    if bit_length % 8:
        raise CodecError("key bit length is not a whole number of octets")
    end = offset + 5 + bit_length // 8
    if len(raw) < end:
        raise TruncatedError("key octets incomplete")
    return OneTimeKey(mode, raw[offset + 5 : end]), end


def decode_key(raw: bytes) -> OneTimeKey:
    key, end = _read_key(raw, 0)
    if end != len(raw):
        raise TrailingGarbageError(f"{len(raw) - end} octets after key")
    return key


# --- bus messages ------------------------------------------------------------


def encode_agent_transfer(area: AgentDataArea, params: CipherParams) -> bytes:
    return area.agent + encode_area(area, params)


def decode_agent_transfer(raw: bytes, params: CipherParams) -> AgentDataArea:
    if len(raw) < AGENT_ID_OCTETS:
        raise TruncatedError("agent transfer: agent id incomplete")
    return decode_area(raw[AGENT_ID_OCTETS:], raw[:AGENT_ID_OCTETS], params)


def encode_route_log_entry(entry: tuple[bytes, bytes], params: CipherParams) -> bytes:
    agent, host = entry
    return agent + host


def decode_route_log_entry(raw: bytes, params: CipherParams) -> tuple[bytes, bytes]:
    _read_exact(raw, AGENT_ID_OCTETS + HOST_ID_OCTETS, "route_log")
    return raw[:AGENT_ID_OCTETS], raw[AGENT_ID_OCTETS:]


def encode_agent_id(agent: bytes, params: CipherParams) -> bytes:
    return agent


def decode_agent_id(raw: bytes, params: CipherParams) -> bytes:
    return _read_exact(raw, AGENT_ID_OCTETS, "agent id")


def encode_route_answer(hosts: tuple[bytes, ...], params: CipherParams) -> bytes:
    return _write_counted(hosts)


def decode_route_answer(raw: bytes, params: CipherParams) -> tuple[bytes, ...]:
    end = 4 + _read_count(raw, "route_answer") * HOST_ID_OCTETS
    if len(raw) < end:
        short = (len(raw) - 4) % HOST_ID_OCTETS  # the first host id cut short
        raise TruncatedError(f"route_answer host id is {short} octets, not {HOST_ID_OCTETS}")
    if len(raw) > end:
        raise TrailingGarbageError(f"{len(raw) - end} octets after route_answer")
    return tuple(raw[at : at + HOST_ID_OCTETS] for at in range(4, end, HOST_ID_OCTETS))


def encode_key_response(keys: tuple[OneTimeKey, ...], params: CipherParams) -> bytes:
    return _write_counted([encode_key(key) for key in keys])


def decode_key_response(raw: bytes, params: CipherParams) -> tuple[OneTimeKey, ...]:
    return _read_counted(raw, _read_key, "key_response")


MESSAGE_CODECS: dict[str, tuple[Callable[..., bytes], Callable[..., Any]]] = {
    "agent_transfer": (encode_agent_transfer, decode_agent_transfer),
    "route_log": (encode_route_log_entry, decode_route_log_entry),
    "route_query": (encode_agent_id, decode_agent_id),
    "route_answer": (encode_route_answer, decode_route_answer),
    "key_request": (encode_agent_id, decode_agent_id),
    "key_response": (encode_key_response, decode_key_response),
}


def find_own_registers(
    area: AgentDataArea,
    keys: list[OneTimeKey],
    params: CipherParams = DEFAULT_PARAMS,
) -> list[tuple[int, int]]:
    """Every (register index, key index) pair that validates, in register order.

    Hosts and the agent server read this one match list: a revisiting host
    finds its own registers with no authorship marks on the wire, and the
    server reconciles the keys surrendered to it.
    """
    return [
        (ri, ki)
        for ri, reg in enumerate(area.registers)
        for ki, key in enumerate(keys)
        if check_register(reg, key, params).valid
    ]
