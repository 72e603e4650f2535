"""Agent data area model and bit-exact wire encoding.

Register layout (all integers big-endian):

    mode        1 octet   (0x01 signature, 0x02 encryption)
    len         4 octets  (plaintext octet count)
    data_field  ceil(len*8/W)*W/8 octets
    masked_cw   W/8 octets
    masked_mfd  W/8 octets

An area image is a 4-octet register count followed by the registers. A key
image is a mode octet, a 4-octet bit length, and the key octets. Registers
deliberately carry no host identifier: authorship is established only by key
matching at the agent server.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from .cipher import (
    CipherParams,
    DEFAULT_PARAMS,
    OneTimeKey,
    ProtectionMode,
    Register,
    check_register,
    padded_octets,
    protect_register,
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


def encode_register(reg: Register, params: CipherParams = DEFAULT_PARAMS) -> bytes:
    bb = params.block_bytes
    return b"".join(
        (
            bytes([reg.mode.value]),
            struct.pack(">I", reg.length),
            reg.data_field,
            reg.masked_cw.to_bytes(bb, "big"),
            reg.masked_mfd.to_bytes(bb, "big"),
        )
    )


def read_register(raw: bytes, offset: int, params: CipherParams = DEFAULT_PARAMS) -> tuple[Register, int]:
    """Decode one register at ``offset``; returns it and the next offset."""
    bb = params.block_bytes
    if len(raw) - offset < 5:
        raise TruncatedError("register header incomplete")
    try:
        mode = ProtectionMode(raw[offset])
    except ValueError:
        raise UnknownModeError(f"mode octet 0x{raw[offset]:02x}") from None
    (length,) = struct.unpack_from(">I", raw, offset + 1)
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
    parts = [struct.pack(">I", len(area.registers))]
    parts.extend(encode_register(reg, params) for reg in area.registers)
    return b"".join(parts)


def decode_area(raw: bytes, agent: bytes, params: CipherParams = DEFAULT_PARAMS) -> AgentDataArea:
    if len(raw) < 4:
        raise TruncatedError("register count incomplete")
    (count,) = struct.unpack_from(">I", raw, 0)
    offset = 4
    registers = []
    for _ in range(count):
        reg, offset = read_register(raw, offset, params)
        registers.append(reg)
    if offset != len(raw):
        raise TrailingGarbageError(f"{len(raw) - offset} octets after area")
    return AgentDataArea(agent, tuple(registers))


def encode_key(key: OneTimeKey) -> bytes:
    return bytes([key.mode.value]) + struct.pack(">I", key.bit_length()) + key.bits


def read_key(raw: bytes, offset: int, owner: bytes = b"") -> tuple[OneTimeKey, int]:
    if len(raw) - offset < 5:
        raise TruncatedError("key header incomplete")
    try:
        mode = ProtectionMode(raw[offset])
    except ValueError:
        raise UnknownModeError(f"mode octet 0x{raw[offset]:02x}") from None
    (bit_length,) = struct.unpack_from(">I", raw, offset + 1)
    if bit_length % 8:
        raise CodecError("key bit length is not a whole number of octets")
    end = offset + 5 + bit_length // 8
    if len(raw) < end:
        raise TruncatedError("key octets incomplete")
    return OneTimeKey(mode, raw[offset + 5 : end], owner), end


def decode_key(raw: bytes, owner: bytes = b"") -> OneTimeKey:
    key, end = read_key(raw, 0, owner)
    if end != len(raw):
        raise TrailingGarbageError(f"{len(raw) - end} octets after key")
    return key


def append_register(area: AgentDataArea, reg: Register) -> AgentDataArea:
    """New area with ``reg`` at the tail; existing registers untouched."""
    return replace(area, registers=area.registers + (reg,))


def find_own_registers(
    area: AgentDataArea,
    keys: list[OneTimeKey],
    params: CipherParams = DEFAULT_PARAMS,
) -> list[tuple[int, int]]:
    """All (register index, key index) pairs where the key validates the register.

    This is how a revisiting host relocates its own contributions without any
    authorship marks on the wire.
    """
    pairs = []
    for ki, key in enumerate(keys):
        for ri, reg in enumerate(area.registers):
            if check_register(reg, key, params).valid:
                pairs.append((ri, ki))
    return pairs


def replace_own_register(
    area: AgentDataArea,
    index: int,
    new_message: bytes,
    new_cw: int,
    new_key: OneTimeKey,
    params: CipherParams = DEFAULT_PARAMS,
) -> AgentDataArea:
    """Re-protect one slot in place with a fresh codeword and key.

    The caller must discard the old key; keeping both would expose the old
    and new protections to joint brute force.
    """
    if not 0 <= index < len(area.registers):
        raise IndexError(f"register index {index} out of range")
    registers = list(area.registers)
    registers[index] = protect_register(new_message, new_cw, new_key, params)
    return replace(area, registers=tuple(registers))


def remove_own_register(area: AgentDataArea, index: int) -> AgentDataArea:
    """Drop one register, preserving the order of the rest.

    The caller must delete the matching key from its keystore at the same
    time, or the key would later surface as evidence of tampering.
    """
    if not 0 <= index < len(area.registers):
        raise IndexError(f"register index {index} out of range")
    registers = list(area.registers)
    del registers[index]
    return replace(area, registers=tuple(registers))

