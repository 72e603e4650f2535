"""Wire-format and data-area tests, cross-checked against the standalone decoder."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agentpad.cipher import (
    CipherParams,
    OneTimeKey,
    ProtectionMode,
    Register,
    padded_octets,
    protect_register,
    required_key_octets,
)
from agentpad.codec import (
    AgentDataArea,
    TrailingGarbageError,
    TruncatedError,
    UnknownModeError,
    decode_area,
    decode_key,
    decode_register,
    encode_area,
    encode_key,
    encode_register,
    find_own_registers,
)
from agentpad.protocol import PeerHostState, host_handle_agent, host_id
import independent_decoder

P8 = CipherParams(8)
P64 = CipherParams(64)
GOLDEN = json.loads((Path(__file__).parent / "golden" / "registers.json").read_text())
AGENT = bytes(range(16))

widths = st.sampled_from((8, 16, 32, 64))


def random_register(rng, params, mode=None, max_len=24):
    """Arbitrary well-formed register; field values need not be consistent crypto."""
    mode = mode or rng.choice(list(ProtectionMode))
    length = rng.randrange(max_len + 1)
    data = rng.randbytes(padded_octets(length, params))
    return Register(
        mode,
        length,
        data,
        rng.getrandbits(params.block_width_bits),
        rng.getrandbits(params.block_width_bits),
    )


def protected_register(rng, params, message, mode=ProtectionMode.SIGNATURE):
    key = OneTimeKey(mode, rng.randbytes(required_key_octets(mode, len(message), params)))
    reg = protect_register(message, rng.getrandbits(params.block_width_bits), key, params)
    return reg, OneTimeKey(mode, key.bits)


class TestRegisterWire:
    def test_size_arithmetic(self):
        rng = random.Random(1)
        empty = random_register(rng, P64, ProtectionMode.SIGNATURE, max_len=0)
        assert len(encode_register(empty, P64)) == 1 + 4 + 0 + 8 + 8
        nine = Register(ProtectionMode.SIGNATURE, 9, bytes(16), 0, 0)
        raw = encode_register(nine, P64)
        assert len(raw) == 1 + 4 + 16 + 8 + 8

    @pytest.mark.parametrize("vector", GOLDEN["vectors"], ids=lambda v: v["name"])
    def test_golden_vectors(self, vector):
        params = CipherParams(vector["width"])
        raw = bytes.fromhex(vector["register_hex"])
        reg = decode_register(raw, params)
        assert reg.mode.name.lower().startswith(vector["mode"][:4])
        assert reg.length == vector["len"]
        assert reg.data_field.hex() == vector["data_field_hex"]
        assert reg.masked_cw == int(vector["masked_cw_hex"], 16)
        assert reg.masked_mfd == int(vector["masked_mfd_hex"], 16)
        assert encode_register(reg, params) == raw

    @given(st.integers(0, 2**64 - 1), widths)
    @settings(max_examples=200)
    def test_round_trip(self, seed, width):
        params = CipherParams(width)
        reg = random_register(random.Random(seed), params)
        assert decode_register(encode_register(reg, params), params) == reg

    @given(st.integers(0, 2**64 - 1), widths)
    @settings(max_examples=100)
    def test_agrees_with_independent_decoder(self, seed, width):
        params = CipherParams(width)
        reg = random_register(random.Random(seed), params)
        raw = encode_register(reg, params)
        fields, end = independent_decoder.parse_register(raw, width)
        assert end == len(raw)
        assert fields["len"] == reg.length
        assert fields["data_field"] == reg.data_field.hex()
        assert int(fields["masked_cw"], 16) == reg.masked_cw
        assert int(fields["masked_mfd"], 16) == reg.masked_mfd

    def test_truncated(self):
        raw = encode_register(random_register(random.Random(2), P64), P64)
        with pytest.raises(TruncatedError):
            decode_register(raw[:-1], P64)
        with pytest.raises(TruncatedError):
            decode_register(raw[:3], P64)

    def test_unknown_mode(self):
        raw = bytearray(encode_register(random_register(random.Random(3), P64), P64))
        raw[0] = 0x03
        with pytest.raises(UnknownModeError):
            decode_register(bytes(raw), P64)

    def test_trailing_garbage(self):
        raw = encode_register(random_register(random.Random(4), P64), P64)
        with pytest.raises(TrailingGarbageError):
            decode_register(raw + b"\x00", P64)


class TestAreaWire:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 5), widths)
    @settings(max_examples=100)
    def test_round_trip(self, seed, count, width):
        params = CipherParams(width)
        rng = random.Random(seed)
        area = AgentDataArea(AGENT, tuple(random_register(rng, params) for _ in range(count)))
        assert decode_area(encode_area(area, params), AGENT, params) == area

    def test_empty_area_is_count_only(self):
        assert encode_area(AgentDataArea(AGENT), P64) == b"\x00\x00\x00\x00"

    def test_errors(self):
        rng = random.Random(5)
        area = AgentDataArea(AGENT, (random_register(rng, P64),))
        raw = encode_area(area, P64)
        with pytest.raises(TrailingGarbageError):
            decode_area(raw + b"!", AGENT, P64)
        with pytest.raises(TruncatedError):
            decode_area(raw[:-2], AGENT, P64)
        with pytest.raises(TruncatedError):
            decode_area(b"\x00\x00", AGENT, P64)


class TestKeyWire:
    @given(st.integers(0, 2**64 - 1), st.booleans())
    def test_round_trip(self, seed, encrypt):
        rng = random.Random(seed)
        mode = ProtectionMode.ENCRYPTION if encrypt else ProtectionMode.SIGNATURE
        key = OneTimeKey(mode, rng.randbytes(rng.randrange(2, 40)))
        decoded = decode_key(encode_key(key))
        assert decoded.bits == key.bits
        assert decoded.mode is key.mode

    def test_errors(self):
        key = OneTimeKey(ProtectionMode.SIGNATURE, bytes(16))
        raw = encode_key(key)
        with pytest.raises(TruncatedError):
            decode_key(raw[:-1])
        with pytest.raises(TrailingGarbageError):
            decode_key(raw + b"\x00")
        with pytest.raises(UnknownModeError):
            decode_key(b"\x07" + raw[1:])


class TestDecodeRobustness:
    """Arbitrary octets either decode cleanly or fail with a CodecError."""

    @given(st.binary(max_size=120), widths)
    @settings(max_examples=300)
    def test_register_decode_total(self, raw, width):
        from agentpad.codec import CodecError

        params = CipherParams(width)
        try:
            reg = decode_register(raw, params)
        except CodecError:
            return
        assert encode_register(reg, params) == raw

    @given(st.binary(max_size=120), widths)
    @settings(max_examples=200)
    def test_area_decode_total(self, raw, width):
        from agentpad.codec import CodecError

        params = CipherParams(width)
        try:
            area = decode_area(raw, AGENT, params)
        except CodecError:
            return
        assert encode_area(area, params) == raw

    @given(st.binary(max_size=80))
    @settings(max_examples=200)
    def test_key_decode_total(self, raw):
        from agentpad.codec import CodecError

        try:
            key = decode_key(raw)
        except CodecError:
            return
        assert encode_key(key) == raw


class TestAreaEdits:
    def test_append_to_empty(self):
        host = PeerHostState(host_id("alpha"), random.Random(6))
        area = host_handle_agent(
            host, AgentDataArea(AGENT), "append", b"entry", ProtectionMode.SIGNATURE, P64
        )
        assert len(area.registers) == 1
        assert find_own_registers(area, host.keystore[AGENT], P64) == [(0, 0)]

    def test_append_preserves_prior_octets(self):
        rng = random.Random(7)
        area = AgentDataArea(AGENT)
        for i in range(3):
            host = PeerHostState(host_id(f"host{i}"), random.Random(i))
            before, prior = encode_area(area, P64), area.registers
            mode = rng.choice(list(ProtectionMode))
            area = host_handle_agent(host, area, "append", rng.randbytes(rng.randrange(25)), mode, P64)
            assert encode_area(area, P64)[4 : 4 + len(before) - 4] == before[4:]
            assert area.registers[:-1] == prior
        assert len(area.registers) == 3

    def test_find_own_registers_by_construction(self):
        rng = random.Random(8)
        regs, keys = [], []
        for i in range(4):
            reg, key = protected_register(rng, P64, f"entry-{i}".encode())
            regs.append(reg)
            keys.append(key)
        area = AgentDataArea(AGENT, tuple(regs))
        assert find_own_registers(area, [keys[2]], P64) == [(2, 0)]
        assert find_own_registers(area, [], P64) == []
        assert sorted(find_own_registers(area, keys, P64)) == [(i, i) for i in range(4)]

    def test_find_own_registers_foreign_area_matches_nothing(self):
        rng = random.Random(9)
        area = AgentDataArea(
            AGENT,
            tuple(protected_register(rng, P64, bytes([i]) * 5)[0] for i in range(10)),
        )
        mine = OneTimeKey(ProtectionMode.SIGNATURE, rng.randbytes(16))
        assert find_own_registers(area, [mine], P64) == []
