"""Agent data area model, bit-exact wire encoding and key–register matching.

Register layout (all integers big-endian):

    mode        1 octet   (0x01 signature, 0x02 encryption)
    len         4 octets  (plaintext octet count)
    data_field  ceil(len*8/W)*W/8 octets
    masked_cw   W/8 octets
    masked_mfd  W/8 octets

An area image is a counted list, the framing every list on the wire shares:
a 4-octet item count, then the registers. A key image is a mode octet, a
4-octet bit length, and the key octets. Neither registers nor keys carry a
host identifier: authorship is established only by key matching at the agent
server, which knows which host surrendered each key.
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


@dataclass(frozen=True)
class AgentDataArea:
    """Ordered registers carried by one agent."""

    agent: bytes
    registers: tuple[Register, ...] = ()


_HEADER = struct.Struct(">BI")
_MODES = {mode.value: mode for mode in ProtectionMode}


def _write_header(mode: ProtectionMode, count: int) -> bytes:
    """The mode octet and 4-octet count that open a register or key image."""
    return _HEADER.pack(mode.value, count)


def _read_header(raw: bytes, offset: int, what: str) -> tuple[ProtectionMode, int]:
    if len(raw) - offset < 5:
        raise TruncatedError(f"{what} header incomplete")
    octet, count = _HEADER.unpack_from(raw, offset)
    mode = _MODES.get(octet)
    if mode is None:
        raise UnknownModeError(f"mode octet 0x{octet:02x}")
    return mode, count


def read_exact(raw: bytes, octets: int, what: str) -> bytes:
    """``raw`` itself, when it is a fixed-size image of exactly ``octets``."""
    if len(raw) != octets:
        error = TruncatedError if len(raw) < octets else TrailingGarbageError
        raise error(f"{what} is {len(raw)} octets, not {octets}")
    return raw


def write_counted(images: Sequence[bytes]) -> bytes:
    """A counted list: the 4-octet item count, then the item images."""
    return struct.pack(">I", len(images)) + b"".join(images)


def read_counted(raw: bytes, read_item: Callable[..., tuple[Any, int]], what: str, *args) -> tuple:
    """Every item of the counted list that fills ``raw`` exactly;
    ``read_item(raw, offset, *args)`` returns one item and the next offset."""
    if len(raw) < 4:
        raise TruncatedError(f"{what} count incomplete")
    (count,) = struct.unpack_from(">I", raw, 0)
    offset = 4
    items = []
    for _ in range(count):
        item, offset = read_item(raw, offset, *args)
        items.append(item)
    if offset != len(raw):
        raise TrailingGarbageError(f"{len(raw) - offset} octets after {what}")
    return tuple(items)


def encode_register(reg: Register, params: CipherParams = DEFAULT_PARAMS) -> bytes:
    bb = params.block_bytes
    cw, mfd = reg.masked_cw.to_bytes(bb, "big"), reg.masked_mfd.to_bytes(bb, "big")
    return b"".join((_write_header(reg.mode, reg.length), reg.data_field, cw, mfd))


def read_register(raw: bytes, offset: int, params: CipherParams = DEFAULT_PARAMS) -> tuple[Register, int]:
    """Decode one register at ``offset``; returns it and the next offset."""
    bb = params.block_bytes
    mode, length = _read_header(raw, offset, "register")
    data_octets = padded_octets(length, params)
    end = offset + 5 + data_octets + 2 * bb
    if len(raw) < end:
        raise TruncatedError(f"register body needs {end - offset} octets")
    data_start = offset + 5
    return (
        Register(
            mode,
            length,
            raw[data_start : data_start + data_octets],
            int.from_bytes(raw[data_start + data_octets : end - bb], "big"),
            int.from_bytes(raw[end - bb : end], "big"),
        ),
        end,
    )


def decode_register(raw: bytes, params: CipherParams = DEFAULT_PARAMS) -> Register:
    """Strict standalone decode; rejects anything past the register."""
    reg, end = read_register(raw, 0, params)
    if end != len(raw):
        raise TrailingGarbageError(f"{len(raw) - end} octets after register")
    return reg


def encode_area(area: AgentDataArea, params: CipherParams = DEFAULT_PARAMS) -> bytes:
    return write_counted([encode_register(reg, params) for reg in area.registers])


def decode_area(raw: bytes, agent: bytes, params: CipherParams = DEFAULT_PARAMS) -> AgentDataArea:
    return AgentDataArea(agent, read_counted(raw, read_register, "area", params))


def encode_key(key: OneTimeKey) -> bytes:
    return _write_header(key.mode, key.bit_length()) + key.bits


def read_key(raw: bytes, offset: int) -> tuple[OneTimeKey, int]:
    mode, bit_length = _read_header(raw, offset, "key")
    if bit_length % 8:
        raise CodecError("key bit length is not a whole number of octets")
    end = offset + 5 + bit_length // 8
    if len(raw) < end:
        raise TruncatedError("key octets incomplete")
    return OneTimeKey(mode, raw[offset + 5 : end]), end


def decode_key(raw: bytes) -> OneTimeKey:
    key, end = read_key(raw, 0)
    if end != len(raw):
        raise TrailingGarbageError(f"{len(raw) - end} octets after key")
    return key


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
