"""Wire-format and data-area tests, cross-checked against the standalone decoder."""

import json
import random
from functools import reduce
from operator import xor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agentpad.cipher import (
    CheckReason,
    CipherParams,
    OneTimeKey,
    ProtectionMode,
    Register,
    check_register,
    padded_octets,
    protect_register,
    required_key_octets,
)
from agentpad.codec import (
    AgentDataArea,
    CodecError,
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
from oracles import (
    derotated_blocks_reference,
    digest_reference,
    match_reference,
    split_reference,
    xor_reference,
)

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


class TestHeaderTampers:
    """Rewrites of the clear mode and length, which the digest does not cover.

    The wire format leaves both unauthenticated, so each outcome is pinned
    exactly rather than assumed rejected.
    """

    @pytest.mark.parametrize("width", [8, 64])
    @pytest.mark.parametrize("mode", list(ProtectionMode), ids=lambda m: m.name.lower())
    def test_length_rewrite_within_padded_size(self, width, mode):
        params = CipherParams(width)
        bb = params.block_bytes
        rng = random.Random(width)
        reasons = []
        for n in range(3 * bb + 1):
            # a zero tail lets a shortened length pass the padding rule
            for zeros in (0, min(n, bb)):
                message = rng.randbytes(n - zeros) + bytes(zeros)
                reg, key = protected_register(rng, params, message, mode)
                raw = bytearray(encode_register(reg, params))
                padded = padded_octets(n, params)
                extended = message + bytes(padded - n)
                for length in range(padded + 1):
                    if padded_octets(length, params) != padded:
                        continue
                    raw[1:5] = length.to_bytes(4, "big")
                    tampered = decode_register(bytes(raw), params)
                    assert tampered.length == length
                    result = check_register(tampered, key, params)
                    reasons.append(result.reason)
                    if mode is ProtectionMode.SIGNATURE:
                        assert result.valid and result.reason is CheckReason.OK
                    elif any(extended[length:]):
                        assert not result.valid
                        assert result.reason is CheckReason.PADDING_NONZERO
                    else:
                        assert result.valid and result.reason is CheckReason.OK
                        assert result.plaintext == extended[:length]
        # at W=8 every length is its own padded size; at W=64 both rules show
        expect_both = width == 64 and mode is ProtectionMode.ENCRYPTION
        assert set(reasons) == (
            {CheckReason.OK, CheckReason.PADDING_NONZERO} if expect_both else {CheckReason.OK}
        )

    @pytest.mark.parametrize("width", [8, 64])
    def test_mode_flip_on_empty_register_validates(self, width):
        # both modes take a 2W-bit key for an empty message
        params = CipherParams(width)
        rng = random.Random(17)
        for mode, flipped_mode in zip(ProtectionMode, reversed(ProtectionMode)):
            reg, key = protected_register(rng, params, b"", mode)
            raw = bytearray(encode_register(reg, params))
            raw[0] = flipped_mode.value
            flipped = decode_register(bytes(raw), params)
            assert flipped.mode is flipped_mode
            result = check_register(flipped, key, params)
            assert result.valid and result.reason is CheckReason.OK
            assert result.plaintext == (b"" if flipped_mode is ProtectionMode.ENCRYPTION else None)


class TestMultiBlockTampers:
    """Edits of two blocks of a stored data field, which the XOR-linear digest
    can miss.

    The digest of tampered blocks is the genuine digest XOR the digest of the
    block deltas. So a signature register still validates iff the XOR of the
    rotated deltas is zero, and complementing any two blocks always gives
    zero, since a word of all ones is unchanged by any rotation. An
    encryption register is checked against the plain XOR fold of its unmasked
    stored blocks, so it validates iff the XOR of the deltas is zero and the
    derotated padding stays zero; it then returns the message XOR the
    derotated deltas. Each case's verdict is derived so, through the oracles
    and the register's codeword, never from the package's output. Criterion 4
    flips one bit at a time and sees none of these tampers.
    """

    CASES = 300

    @staticmethod
    def deltas(tamper, rng, stored, i, j, width):
        """The per-block XOR that ``tamper`` applies to the stored blocks."""
        if tamper == "complement":
            word = (1 << width) - 1
        elif tamper == "xor_word":
            word = rng.randrange(1, 1 << width)
        else:  # swap
            word = stored[i] ^ stored[j]
        return [word if k in (i, j) else 0 for k in range(len(stored))]

    @pytest.mark.parametrize("width", [8, 64])
    @pytest.mark.parametrize("tamper", ["complement", "xor_word", "swap"])
    @pytest.mark.parametrize("mode", list(ProtectionMode), ids=lambda m: m.name.lower())
    def test_two_block_tampers(self, width, tamper, mode):
        params = CipherParams(width)
        bb = params.block_bytes
        rng = random.Random(f"{width}-{tamper}-{mode.name}")
        whole = whole_accepted = 0
        reasons = set()
        for _ in range(self.CASES):
            blocks = rng.randint(2, 6)
            # half the registers end in a partial block (none can at W=8)
            length = blocks * bb - (rng.randrange(bb) if rng.random() < 0.5 else 0)
            message = rng.randbytes(length)
            cw = rng.getrandbits(width)
            key = OneTimeKey(mode, rng.randbytes(required_key_octets(mode, length, params)))
            reg = protect_register(message, cw, key, params)
            key = OneTimeKey(mode, key.bits)

            stored = split_reference(reg.data_field, width)
            i, j = rng.sample(range(blocks), 2)
            deltas = self.deltas(tamper, rng, stored, i, j, width)
            raw = bytearray(encode_register(reg, params))
            raw[5 : 5 + blocks * bb] = b"".join(
                (block ^ delta).to_bytes(bb, "big") for block, delta in zip(stored, deltas)
            )
            tampered = decode_register(bytes(raw), params)
            result = check_register(tampered, key, params)
            reasons.add(result.reason)

            padded = message + bytes(blocks * bb - length)
            if mode is ProtectionMode.SIGNATURE:
                valid = digest_reference(deltas, cw, width) == 0
                assert result.valid is valid
                assert result.reason is (CheckReason.OK if valid else CheckReason.DIGEST_MISMATCH)
                # the data field travels in clear: the forger knows the new message
                altered = xor_reference(padded, b"".join(d.to_bytes(bb, "big") for d in deltas))
                assert tampered.data_field == altered
            else:
                derotated = derotated_blocks_reference(deltas, cw, width)
                altered = xor_reference(padded, b"".join(d.to_bytes(bb, "big") for d in derotated))
                if reduce(xor, deltas):
                    expected = CheckReason.DIGEST_MISMATCH
                elif any(altered[length:]):
                    expected = CheckReason.PADDING_NONZERO
                else:
                    expected = CheckReason.OK
                assert result.reason is expected
                assert result.valid is (expected is CheckReason.OK)
                if result.valid:
                    assert result.plaintext == altered[:length]
            if length == blocks * bb:
                whole += 1
                whole_accepted += result.valid

        # the tampers that always cancel: two complemented blocks in either
        # mode, and any two equal deltas in an encryption register that has
        # no padding for them to reach
        if tamper == "complement" or mode is ProtectionMode.ENCRYPTION:
            assert whole_accepted == whole > 0
        if tamper == "complement" and mode is ProtectionMode.SIGNATURE:
            assert reasons == {CheckReason.OK}


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

    @staticmethod
    def failures(decode, images, *args):
        failures = []
        for image in images:
            with pytest.raises(CodecError) as caught:
                decode(image, *args)
            failures.append((caught.type, str(caught.value)))
        return failures

    @staticmethod
    def cut_short(present, size):
        """The failure for a register image of ``size`` octets cut to ``present``."""
        if present < 5:
            return TruncatedError, "register header incomplete"
        return TruncatedError, f"register body needs {size} octets"

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_failures_pinned(self, width):
        # every cut of an area of 0-3 registers names the count, or the header
        # or body it falls in; every extension names its surplus octets, and
        # an unknown mode octet names itself; the same for each register
        # decoded on its own
        params = CipherParams(width)
        rng = random.Random(200 + width)
        extensions = (1, 7, 8)
        for count in range(4):
            registers = [random_register(rng, params, max_len=3 * width // 8) for _ in range(count)]
            images = [encode_register(reg, params) for reg in registers]
            raw = encode_area(AgentDataArea(AGENT, tuple(registers)), params)
            starts = [4 + sum(map(len, images[:i])) for i in range(count)]
            expected = [(TruncatedError, "area count incomplete")] * 4
            for image in images:
                expected += [self.cut_short(n, len(image)) for n in range(len(image))]
            expected += [(TrailingGarbageError, f"{k} octets after area") for k in extensions]
            expected += [(UnknownModeError, "mode octet 0x03")] * count
            cuts = [raw[:end] for end in range(len(raw))]
            extended = [raw + bytes(k) for k in extensions]
            unknown = [raw[:start] + b"\x03" + raw[start + 1 :] for start in starts]
            assert self.failures(decode_area, cuts + extended + unknown, AGENT, params) == expected
            for image in images:
                expected = [self.cut_short(n, len(image)) for n in range(len(image))]
                expected += [(TrailingGarbageError, f"{k} octets after register") for k in extensions]
                expected.append((UnknownModeError, "mode octet 0x03"))
                cuts = [image[:end] for end in range(len(image))]
                extended = [image + bytes(k) for k in extensions]
                unknown = [b"\x03" + image[1:]]
                assert self.failures(decode_register, cuts + extended + unknown, params) == expected


class TestIndependentAreaParser:
    """The standalone decoder's area parser and command line against the codec."""

    MODE_WORDS = {ProtectionMode.SIGNATURE: "sign", ProtectionMode.ENCRYPTION: "encrypt"}
    # the first words of each parser error, and the codec error it stands for
    ERRORS = {
        "truncated": TruncatedError,
        "trailing garbage": TrailingGarbageError,
        "unknown mode": UnknownModeError,
    }

    def fields(self, reg, params):
        bb = params.block_bytes
        return {
            "mode": self.MODE_WORDS[reg.mode],
            "len": reg.length,
            "data_field": reg.data_field.hex(),
            "masked_cw": reg.masked_cw.to_bytes(bb, "big").hex(),
            "masked_mfd": reg.masked_mfd.to_bytes(bb, "big").hex(),
        }

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_seeded_areas_parse_to_their_registers(self, width):
        params = CipherParams(width)
        rng = random.Random(width)
        for count in [0, 0, 1, 2, 3, 4, 5] * 3:
            area = AgentDataArea(AGENT, tuple(random_register(rng, params) for _ in range(count)))
            parsed = independent_decoder.parse_area(encode_area(area, params), width)
            assert parsed == [self.fields(reg, params) for reg in area.registers]

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_errors_match_decode_area(self, width):
        params = CipherParams(width)
        rng = random.Random(100 + width)
        area = AgentDataArea(AGENT, tuple(random_register(rng, params) for _ in range(3)))
        raw = encode_area(area, params)
        unknown_mode = raw[:4] + b"\x03" + raw[5:]
        # every cut of the count and of each register, then trailing octets
        images = [raw[:n] for n in range(len(raw))] + [raw + b"\x00", raw + b"!!", unknown_mode]
        for image in images:
            with pytest.raises(ValueError) as parsed:
                independent_decoder.parse_area(image, width)
            with pytest.raises(CodecError) as decoded:
                decode_area(image, AGENT, params)
            message = str(parsed.value)
            expected = [error for words, error in self.ERRORS.items() if message.startswith(words)]
            assert [type(decoded.value)] == expected, image.hex()

    def run_main(self, tmp_path, capsys, raw, *flags):
        path = tmp_path / "image.hex"
        path.write_text(raw.hex())
        code = independent_decoder.main([*flags, str(path)])
        return code, capsys.readouterr()

    def test_main_on_a_golden_register(self, tmp_path, capsys):
        vector = GOLDEN["vectors"][3]
        raw = bytes.fromhex(vector["register_hex"])
        code, out = self.run_main(tmp_path, capsys, raw, "--width", str(vector["width"]))
        assert (code, out.err) == (0, "")
        assert json.loads(out.out) == {
            "mode": vector["mode"],
            "len": vector["len"],
            "data_field": vector["data_field_hex"],
            "masked_cw": vector["masked_cw_hex"],
            "masked_mfd": vector["masked_mfd_hex"],
        }

    def test_main_on_an_area(self, tmp_path, capsys):
        rng = random.Random(11)
        area = AgentDataArea(AGENT, tuple(random_register(rng, P8) for _ in range(3)))
        code, out = self.run_main(tmp_path, capsys, encode_area(area, P8), "--width", "8", "--area")
        assert (code, out.err) == (0, "")
        assert json.loads(out.out) == [self.fields(reg, P8) for reg in area.registers]

    @pytest.mark.parametrize("area", [False, True])
    def test_main_on_a_malformed_image_exits_one(self, area, tmp_path, capsys):
        raw = encode_area(AgentDataArea(AGENT, (random_register(random.Random(12), P64),)), P64)
        if not area:
            raw = raw[4:]
        flags = ["--area"] if area else []
        code, out = self.run_main(tmp_path, capsys, raw[:-1], *flags)
        assert (code, out.out) == (1, "")
        assert out.err.startswith("error: truncated: ")
        assert out.err.count("\n") == 1


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


class TestHeaderTotality:
    """The mode octet and count that open a register or key image, over every
    mode octet and every header too short to hold them."""

    WIRE_MODES = {0x01: ProtectionMode.SIGNATURE, 0x02: ProtectionMode.ENCRYPTION}
    REGISTER = encode_register(random_register(random.Random(5), P64), P64)
    KEY = encode_key(OneTimeKey(ProtectionMode.ENCRYPTION, bytes(range(24))))
    CODECS = {  # image: (decode, encode, a well-formed image)
        "register": (lambda raw: decode_register(raw, P64), lambda reg: encode_register(reg, P64), REGISTER),
        "key": (decode_key, encode_key, KEY),
    }

    @pytest.mark.parametrize("image", sorted(CODECS))
    def test_every_mode_octet(self, image):
        decode, encode, raw = self.CODECS[image]
        for octet in range(256):
            forged = bytes([octet]) + raw[1:]
            if octet in self.WIRE_MODES:
                value = decode(forged)
                assert value.mode is self.WIRE_MODES[octet]
                assert encode(value) == forged
            else:
                with pytest.raises(UnknownModeError) as raised:
                    decode(forged)
                assert str(raised.value) == f"mode octet 0x{octet:02x}"

    def test_short_header_is_truncated(self):
        for n in range(5):
            with pytest.raises(TruncatedError, match="register header incomplete"):
                decode_register(self.REGISTER[:n], P64)
            with pytest.raises(TruncatedError, match="register header incomplete"):
                decode_area(b"\x00\x00\x00\x01" + self.REGISTER[:n], AGENT, P64)
            with pytest.raises(TruncatedError, match="key header incomplete"):
                decode_key(self.KEY[:n])


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
        assert len(reg.data_field) == padded_octets(reg.length, params)
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
        for reg in area.registers:
            assert len(reg.data_field) == padded_octets(reg.length, params)
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
        assert find_own_registers(area, keys, P64) == [(i, i) for i in range(4)]

    def test_find_own_registers_foreign_area_matches_nothing(self):
        rng = random.Random(9)
        area = AgentDataArea(
            AGENT,
            tuple(protected_register(rng, P64, bytes([i]) * 5)[0] for i in range(10)),
        )
        mine = OneTimeKey(ProtectionMode.SIGNATURE, rng.randbytes(16))
        assert find_own_registers(area, [mine], P64) == []


class TestMatchList:
    """find_own_registers against the all-pairs loop in tests/oracles.py."""

    @staticmethod
    def random_case(rng, params):
        """Up to six registers of either mode, their keys shuffled among up to
        23 random signature keys, with some keys dropped and some doubled."""
        registers, keys = [], []
        for _ in range(rng.randrange(7)):
            mode = rng.choice(list(ProtectionMode))
            reg, key = protected_register(rng, params, rng.randbytes(rng.randrange(6)), mode)
            registers.append(reg)
            if rng.random() < 0.9:
                keys += [key] * (2 if rng.random() < 0.1 else 1)
        octets = params.signature_width_bits // 8
        keys += [
            OneTimeKey(ProtectionMode.SIGNATURE, rng.randbytes(octets))
            for _ in range(rng.randrange(24))
        ]
        rng.shuffle(keys)
        return AgentDataArea(AGENT, tuple(registers)), keys

    # at W=8 a random signature key validates a signature register with
    # probability 1/256, so stray matches add to the doubled keys' cases
    @pytest.mark.parametrize("width, doubly_matched", [(8, 53), (64, 45)])
    def test_seeded_areas_match_reference(self, width, doubly_matched):
        params = CipherParams(width)
        cases = 0
        for seed in range(200):
            area, keys = self.random_case(random.Random(seed), params)
            expected = match_reference(
                area.registers, keys, lambda reg, key: check_register(reg, key, params)
            )
            assert find_own_registers(area, keys, params) == expected, f"seed {seed}"
            matched = [ri for ri, _ in expected]
            cases += len(set(matched)) < len(matched)
        assert cases == doubly_matched
