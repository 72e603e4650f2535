"""Cipher-core tests: rotations, digest, protect/check, key lifecycle."""

import json
import random
from array import array
from dataclasses import replace
from functools import reduce
from itertools import combinations
from operator import xor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agentpad import cipher
from agentpad.cipher import (
    CheckReason,
    CipherParams,
    ExhaustedAttemptsError,
    KeyConsumedError,
    KeyLengthError,
    LengthMismatchError,
    OneTimeKey,
    ProtectionMode,
    Register,
    WidthTooLargeError,
    _WORD_TYPECODES,
    _digest,
    _fold,
    _rotate,
    _schedule,
    _valid_signature_keys,
    check_register,
    default_rng,
    enumerate_valid_signature_keys,
    gen_key,
    key_for_ciphertext,
    padded_octets,
    protect_register,
    required_key_octets,
)
from agentpad.codec import decode_register, encode_register
from oracles import (
    data_tamper_verdicts,
    derotated_blocks_reference,
    digest_reference,
    forgery_rate,
    protect_reference,
    rotated_blocks_reference,
    rotl_bits,
    rotr_bits,
    split_reference,
    valid_signature_keys_reference,
)

P8 = CipherParams(8)
P64 = CipherParams(64)
GOLDEN = json.loads((Path(__file__).parent / "golden" / "registers.json").read_text())

widths = st.sampled_from((8, 16, 32, 64))


def symmetric_codewords(width):
    """Codewords equal to some of their own rotations: short schedule cycles."""
    octets = width // 8
    return [
        0,
        (1 << width) - 1,
        int.from_bytes(b"\x01" * octets, "big"),
        int.from_bytes(b"\x55" * octets, "big"),
    ]


def schedule_shape(cw, width):
    """(mu, lam, left rotation of each state) of a codeword's schedule, by a straight walk."""
    r = width.bit_length() - 1
    first = {}
    states = []
    c = cw
    while c not in first:
        first[c] = len(states)
        states.append(c)
        c = rotr_bits(c, c >> (width - r), width)
    mu = first[c]
    return mu, len(states) - mu, [s & (width - 1) for s in states]


@st.composite
def schedule_cases(draw):
    """(width, codeword, data) with up to 4W + 8 blocks, past any schedule period."""
    width = draw(widths)
    any_cw = st.integers(0, (1 << width) - 1)
    cw = draw(st.one_of(any_cw, st.sampled_from(symmetric_codewords(width))))
    octets = draw(st.integers(0, 4 * width + 8)) * (width // 8)
    return width, cw, draw(st.binary(min_size=octets, max_size=octets))


def packed(blocks, params):
    """W-bit blocks as the big-endian octets the digest kernel reads."""
    return b"".join(b.to_bytes(params.block_bytes, "big") for b in blocks)


def make_key(rng, mode, message_octets, params):
    return OneTimeKey(mode, rng.randbytes(required_key_octets(mode, message_octets, params)))


class RiggedRng:
    """Plays back a fixed queue of byte strings."""

    def __init__(self, queue):
        self.queue = list(queue)

    def randbytes(self, n):
        item = self.queue.pop(0)
        assert len(item) == n, "rigged draw has the wrong size"
        return item


class TestParams:
    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_valid_widths(self, width):
        p = CipherParams(width)
        assert p.signature_width_bits == 2 * width
        assert 1 << p.rotation_field_bits == width

    @pytest.mark.parametrize("width", [0, 4, 10, 12, 48, 128, 8.0, 64.0])
    def test_invalid_widths(self, width):
        with pytest.raises(ValueError):
            CipherParams(width)

    def test_default_is_64(self):
        assert CipherParams().block_width_bits == 64


class TestRotation:
    """Hand-computed cases that pin the string-slicing rotation oracles."""

    def test_single_bit_wraparound(self):
        assert rotl_bits(0b10000000, 1, 8) == 0b00000001
        assert rotr_bits(0b00000001, 1, 8) == 0b10000000

    def test_identity_rotations(self):
        for f in (0, 1, 0x5A, 0xFF):
            assert rotl_bits(f, 0, 8) == f
            assert rotl_bits(f, 8, 8) == f
            assert rotr_bits(f, 0, 8) == f
            assert rotr_bits(f, 8, 8) == f

    def test_rotate_right_frozen_case(self):
        assert rotr_bits(0b01000001, 2, 8) == 0b01010000

    @given(st.integers(0, 2**64 - 1), st.integers(0, 200), widths)
    def test_inverse_pair(self, f, n, width):
        f &= (1 << width) - 1
        assert rotr_bits(rotl_bits(f, n, width), n, width) == f

    @given(st.integers(0, 2**64 - 1), st.integers(0, 200), widths)
    def test_left_equals_right_complement(self, f, n, width):
        f &= (1 << width) - 1
        assert rotl_bits(f, n, width) == rotr_bits(f, (width - n) % width, width)

    def test_bijection_at_w8(self):
        for n in range(8):
            assert {rotl_bits(f, n, 8) for f in range(256)} == set(range(256))


class TestDigest:
    def test_empty_fold_is_zero(self):
        assert _digest(b"", 0x41, P8) == 0
        assert _digest(b"", 12345, P64) == 0

    def test_zero_codeword_is_plain_xor(self):
        assert _digest(packed([0xAB, 0xCD], P8), 0, P8) == 0xAB ^ 0xCD
        assert _digest(packed([1, 2, 4], P64), 0, P64) == 7

    def test_frozen_trace(self):
        # two blocks, schedule rotates the first by 1 and the second by 0;
        # value frozen after confirmation with the straight-loop oracle
        assert _digest(packed([0b10000000, 0b00000001], P8), 0b01000001, P8) == 0

    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**64 - 1), max_size=20), widths)
    def test_matches_oracle(self, cw, blocks, width):
        p = CipherParams(width)
        cw &= p.word_mask
        blocks = [b & p.word_mask for b in blocks]
        assert _digest(packed(blocks, p), cw, p) == digest_reference(blocks, cw, width)

    def test_caller_codeword_untouched(self):
        cw = 0x41
        _digest(b"\x80", cw, P8)
        assert cw == 0x41


class TestScheduleKernel:
    """The period-folded kernel against the straight-loop oracles, past the period."""

    @given(schedule_cases())
    @settings(max_examples=300, deadline=None)
    def test_digest_matches_oracle(self, case):
        width, cw, data = case
        blocks = split_reference(data, width)
        assert _digest(data, cw, CipherParams(width)) == digest_reference(blocks, cw, width)

    @given(schedule_cases())
    @settings(max_examples=300, deadline=None)
    def test_rotation_matches_oracle(self, case):
        # a zero key leaves the rotated blocks and the digest in the clear
        width, cw, message = case
        params = CipherParams(width)
        key = OneTimeKey(ProtectionMode.ENCRYPTION, bytes(len(message) + width // 4))
        reg = protect_register(message, cw, key, params)
        blocks = split_reference(message, width)
        rotated = rotated_blocks_reference(blocks, cw, width)
        assert reg.data_field == b"".join(b.to_bytes(width // 8, "big") for b in rotated)
        assert reg.masked_mfd == digest_reference(blocks, cw, width)

    @given(schedule_cases())
    @settings(max_examples=300, deadline=None)
    def test_derotation_is_the_exact_inverse(self, case):
        # any whole-block image, stored under a zero key with its XOR fold as
        # the digest, derotates to the one plaintext that rotates back to it
        width, cw, image = case
        params = CipherParams(width)
        key = OneTimeKey(ProtectionMode.ENCRYPTION, bytes(len(image) + width // 4))
        fold = reduce(xor, split_reference(image, width), 0)
        reg = Register(ProtectionMode.ENCRYPTION, len(image), image, cw, fold)
        result = check_register(reg, key, params)
        assert result.valid
        back = protect_register(result.plaintext, cw, key, params)
        assert back.data_field == image

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_symmetric_codewords_fold_by_their_short_cycle(self, width):
        params = CipherParams(width)
        rng = random.Random(width)
        blocks = [rng.getrandbits(width) for _ in range(4 * width + 8)]
        for cw in symmetric_codewords(width):
            assert _digest(packed(blocks, params), cw, params) == digest_reference(blocks, cw, width)
        assert _digest(packed(blocks, params), 0, params) == reduce(xor, blocks, 0)


class TestPhaseRotation:
    """The per-phase rotation path at the benchmark's 64 KiB, and both kernel
    paths at every length."""

    CASES = ("preperiod", "one_phase", "partial_cycle", "zero_phase")

    @staticmethod
    def codeword_for(case, width, n):
        """A codeword whose n-block schedule shows ``case``, found by a seeded search."""
        if case == "one_phase":
            return (1 << width) - 1  # a fixed point rotated by W - 1
        rng = random.Random(width)
        for _ in range(10_000):
            cw = rng.getrandbits(width)
            mu, lam, amounts = schedule_shape(cw, width)
            if case == "preperiod" and mu > 0 and any(amounts[:mu]):
                return cw
            if case == "partial_cycle" and lam > 1 and (n - mu) % lam:
                return cw
            if case == "zero_phase" and 0 in amounts[mu:] and any(amounts[mu:]):
                return cw
        raise AssertionError(f"no {case} codeword at width {width}")

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_matches_oracles_on_64_kib(self, width, case):
        params = CipherParams(width)
        data = random.Random(case).randbytes(64 * 1024)
        blocks = split_reference(data, width)
        cw = self.codeword_for(case, width, len(blocks))
        assert _rotate(data, cw, params) == packed(rotated_blocks_reference(blocks, cw, width), params)
        assert _rotate(data, cw, params, inverse=True) == packed(
            derotated_blocks_reference(blocks, cw, width), params
        )

    @staticmethod
    def sweep(width):
        """Every codeword at W=8, else the symmetric codewords and 20 seeded
        random ones; every length 0-24 plus the lengths around W and past two
        periods."""
        lengths = [*range(25), width - 1, width, width + 1, 2 * width + 2]
        if width == 8:
            return list(range(256)), lengths
        rng = random.Random(width)
        return symmetric_codewords(width) + [rng.getrandbits(width) for _ in range(20)], lengths

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_kernels_match_oracles_at_every_length(self, width):
        # each length takes a prefix of one block list; the oracles' schedule
        # restarts with every call, so their per-block outputs are prefixes too
        params = CipherParams(width)
        codewords, lengths = self.sweep(width)
        rng = random.Random(-width)
        blocks = [rng.getrandbits(width) for _ in range(max(lengths))]
        seen = set()
        for cw in codewords:
            mu, lam, _ = schedule_shape(cw, width)
            rotated = rotated_blocks_reference(blocks, cw, width)
            derotated = derotated_blocks_reference(blocks, cw, width)
            for n in lengths:
                data = packed(blocks[:n], params)
                assert _digest(data, cw, params) == digest_reference(blocks[:n], cw, width)
                assert _rotate(data, cw, params) == packed(rotated[:n], params)
                assert _rotate(data, cw, params, inverse=True) == packed(derotated[:n], params)
                seen.add((n > width, (n > mu + lam) - (n < mu + lam), lam == 1))
        # up to W blocks the kernels walk every block; past W they walk the
        # first mu + lam blocks and fold the rest. The sweep put n on both
        # sides of W, and below, at and past mu + lam, for a fixed point
        # (lam = 1) and for longer cycles
        walked = {(False, side, fixed) for side in (-1, 0, 1) for fixed in (True, False)}
        assert seen == walked | {(True, 1, fixed) for fixed in (True, False)}

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_schedule_stops_at_its_first_repeat(self, width):
        params = CipherParams(width)
        codewords, _ = self.sweep(width)
        for cw in codewords:
            mu, lam, amounts = schedule_shape(cw, width)
            assert _schedule(cw, params) == (amounts, mu)

    @pytest.mark.parametrize("width", [8, 64])
    def test_schedule_and_fold_only_past_w_blocks(self, width, monkeypatch):
        # a message of at most W blocks is walked inline, with no schedule
        # and no fold; past W each kernel builds the schedule once, and the
        # digest folds the blocks after mu + lam once, lam blocks to a chunk
        params = CipherParams(width)
        calls = []

        def schedule(cw, p):
            calls.append(cw)
            return _schedule(cw, p)

        def fold(x, chunks, chunk_bits):
            calls.append((chunks, chunk_bits))
            return _fold(x, chunks, chunk_bits)

        monkeypatch.setattr(cipher, "_schedule", schedule)
        monkeypatch.setattr(cipher, "_fold", fold)
        rng = random.Random(width)
        data = rng.randbytes(3 * width * params.block_bytes)
        for cw in symmetric_codewords(width) + [rng.getrandbits(width) for _ in range(4)]:
            mu, lam, _ = schedule_shape(cw, width)
            for n in (0, 1, width, width + 1, 3 * width):
                calls.clear()
                message = data[: n * params.block_bytes]
                _digest(message, cw, params)
                _rotate(message, cw, params)
                _rotate(message, cw, params, inverse=True)
                if n <= width:
                    assert calls == []
                else:
                    assert calls == [cw, (-(-(n - mu - lam) // lam), lam * width), cw, cw]

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_word_array_round_trips_the_octets(self, width):
        params = CipherParams(width)
        code = _WORD_TYPECODES[params.block_bytes]
        assert array(code).itemsize == params.block_bytes
        data = random.Random(width).randbytes(37 * params.block_bytes)
        words = array(code, data)
        for q in range(5):
            phase = words[q::5]
            x = int.from_bytes(phase.tobytes(), "big")
            words[q::5] = array(code, x.to_bytes(len(phase) * params.block_bytes, "big"))
        assert words.tobytes() == data
        assert words[1:2].tobytes() == data[params.block_bytes : 2 * params.block_bytes]


class TestProtect:
    def test_degenerate_zero_signature(self):
        key = OneTimeKey(ProtectionMode.SIGNATURE, b"\x00\x00")
        reg = protect_register(b"\x00", 0, key, P8)
        assert (reg.masked_cw, reg.masked_mfd) == (0, 0)
        assert reg.data_field == b"\x00"
        assert key.consumed

    def test_zero_key_encryption_is_identity(self):
        key = OneTimeKey(ProtectionMode.ENCRYPTION, bytes(3 + 2))
        reg = protect_register(b"\x01\x02\x03", 0, key, P8)
        assert reg.data_field == b"\x01\x02\x03"
        assert (reg.masked_cw, reg.masked_mfd) == (0, 0)

    def test_frozen_signature_case(self):
        key = OneTimeKey(ProtectionMode.SIGNATURE, b"\x00\x00")
        reg = protect_register(bytes([0x80, 0x01]), 0b01000001, key, P8)
        assert reg.masked_mfd == 0
        assert reg.masked_cw == 0b01000001

    @pytest.mark.parametrize("vector", [v for v in GOLDEN["vectors"] if "protect" in v])
    def test_golden_protect_vectors(self, vector):
        params = CipherParams(vector["width"])
        spec = vector["protect"]
        mode = ProtectionMode.SIGNATURE if vector["mode"] == "sign" else ProtectionMode.ENCRYPTION
        key = OneTimeKey(mode, bytes.fromhex(spec["key_hex"]))
        reg = protect_register(
            bytes.fromhex(spec["message_hex"]), int(spec["codeword_hex"], 16), key, params
        )
        assert reg.length == vector["len"]
        assert reg.data_field.hex() == vector["data_field_hex"]
        assert reg.masked_cw == int(vector["masked_cw_hex"], 16)
        assert reg.masked_mfd == int(vector["masked_mfd_hex"], 16)

    @given(st.binary(max_size=64), st.integers(0, 2**64 - 1), widths, st.booleans())
    @settings(max_examples=150)
    def test_matches_reference_implementation(self, message, seed, width, encrypt):
        params = CipherParams(width)
        rng = random.Random(seed)
        mode = ProtectionMode.ENCRYPTION if encrypt else ProtectionMode.SIGNATURE
        cw = rng.getrandbits(width)
        key = make_key(rng, mode, len(message), params)
        reg = protect_register(message, cw, key, params)
        ref = protect_reference(message, cw, key.bits, "encrypt" if encrypt else "sign", width)
        assert reg.length == ref["len"]
        assert len(reg.data_field) == padded_octets(reg.length, params)
        assert reg.data_field == ref["data_field"]
        assert reg.masked_cw == ref["masked_cw"]
        assert reg.masked_mfd == ref["masked_mfd"]

    @pytest.mark.parametrize("encrypt", [False, True])
    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    @given(length=st.integers(1024, 4096), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=6, deadline=None)
    def test_matches_reference_on_kib_messages(self, width, encrypt, length, seed):
        params = CipherParams(width)
        rng = random.Random(seed)
        message = rng.randbytes(length)
        mode = ProtectionMode.ENCRYPTION if encrypt else ProtectionMode.SIGNATURE
        cw = rng.getrandbits(width)
        key = make_key(rng, mode, len(message), params)
        reg = protect_register(message, cw, key, params)
        ref = protect_reference(message, cw, key.bits, "encrypt" if encrypt else "sign", width)
        assert reg.data_field == ref["data_field"]
        assert (reg.masked_cw, reg.masked_mfd) == (ref["masked_cw"], ref["masked_mfd"])
        result = check_register(reg, OneTimeKey(mode, key.bits), params)
        assert result.valid
        assert result.plaintext == (message if encrypt else None)

    def test_consumed_key_rejected(self):
        key = OneTimeKey(ProtectionMode.SIGNATURE, b"\x12\x34")
        protect_register(b"x", 0x41, key, P8)
        with pytest.raises(KeyConsumedError):
            protect_register(b"y", 0x42, key, P8)

    def test_wrong_key_length_rejected(self):
        key = OneTimeKey(ProtectionMode.SIGNATURE, b"\x12\x34\x56")
        with pytest.raises(KeyLengthError):
            protect_register(b"x", 0x41, key, P8)
        assert not key.consumed

    def test_encryption_key_sized_to_message(self):
        # 9 octets pad to 16, plus the 16-octet signature mask
        assert required_key_octets(ProtectionMode.ENCRYPTION, 9, P64) == 32
        key = OneTimeKey(ProtectionMode.ENCRYPTION, bytes(31))
        with pytest.raises(KeyLengthError):
            protect_register(bytes(9), 0, key, P64)

    def test_codeword_out_of_range(self):
        key = OneTimeKey(ProtectionMode.SIGNATURE, b"\x00\x00")
        for cw in (-1, 256):
            with pytest.raises(ValueError, match="codeword out of range"):
                protect_register(b"x", cw, key, P8)
        assert not key.consumed
        protect_register(b"x", 0, key, P8)
        assert key.consumed


class TestCheck:
    @given(st.binary(max_size=200), st.integers(0, 2**64 - 1), widths, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, message, seed, width, encrypt):
        params = CipherParams(width)
        rng = random.Random(seed)
        mode = ProtectionMode.ENCRYPTION if encrypt else ProtectionMode.SIGNATURE
        cw = rng.getrandbits(width)
        key = make_key(rng, mode, len(message), params)
        reg = protect_register(message, cw, key, params)
        result = check_register(reg, key, params)
        assert result.valid and result.reason is CheckReason.OK
        if encrypt:
            assert result.plaintext == message
        else:
            assert result.plaintext is None
            assert reg.data_field[: reg.length] == message

    def test_check_does_not_consume(self):
        rng = random.Random(5)
        key = make_key(rng, ProtectionMode.SIGNATURE, 4, P64)
        reg = protect_register(b"abcd", rng.getrandbits(64), key, P64)
        key_copy = OneTimeKey(key.mode, key.bits)
        for _ in range(3):
            assert check_register(reg, key_copy, P64).valid
        assert not key_copy.consumed

    def test_wrong_key_rejected_at_w64(self):
        rng = random.Random(6)
        key = make_key(rng, ProtectionMode.SIGNATURE, 8, P64)
        reg = protect_register(b"12345678", rng.getrandbits(64), key, P64)
        for _ in range(200):
            other = make_key(rng, ProtectionMode.SIGNATURE, 8, P64)
            if other.bits == key.bits:
                continue
            assert not check_register(reg, other, P64).valid

    def test_wrong_length_key_reason(self):
        rng = random.Random(7)
        key = make_key(rng, ProtectionMode.SIGNATURE, 4, P64)
        reg = protect_register(b"abcd", rng.getrandbits(64), key, P64)
        short = OneTimeKey(ProtectionMode.SIGNATURE, b"\x00" * 15)
        result = check_register(reg, short, P64)
        assert not result.valid
        assert result.reason is CheckReason.KEY_LENGTH_MISMATCH

    def test_single_bit_flips_detected(self):
        rng = random.Random(8)
        for encrypt in (False, True):
            mode = ProtectionMode.ENCRYPTION if encrypt else ProtectionMode.SIGNATURE
            key = make_key(rng, mode, 3, P8)
            reg = protect_register(b"\x51\x3c\x99", rng.getrandbits(8), key, P8)
            for i in range(len(reg.data_field) * 8):
                flipped = bytearray(reg.data_field)
                flipped[i // 8] ^= 1 << (i % 8)
                tampered = replace(reg, data_field=bytes(flipped))
                assert not check_register(tampered, key, P8).valid
            for bit in range(8):
                tampered = replace(reg, masked_mfd=reg.masked_mfd ^ (1 << bit))
                assert not check_register(tampered, key, P8).valid

    def test_nonzero_padding_rejected(self):
        # same padded image, shorter declared length: digest still matches,
        # so only the padding rule can catch it
        rng = random.Random(9)
        key = make_key(rng, ProtectionMode.ENCRYPTION, 3, P64)
        reg = protect_register(b"abc", rng.getrandbits(64), key, P64)
        lying = replace(reg, length=2)
        result = check_register(lying, key, P64)
        assert not result.valid
        assert result.reason is CheckReason.PADDING_NONZERO

    def test_otp_masking_is_pure_xor(self):
        # two protections of the same (message, cw) differ exactly by the key xor
        rng = random.Random(10)
        message, cw = b"same-message", rng.getrandbits(64)
        for mode in ProtectionMode:
            k1 = make_key(rng, mode, len(message), P64)
            k2 = make_key(rng, mode, len(message), P64)
            r1 = protect_register(message, cw, k1, P64)
            r2 = protect_register(message, cw, k2, P64)
            kx = bytes(a ^ b for a, b in zip(k1.bits, k2.bits))
            sig1 = r1.masked_cw.to_bytes(8, "big") + r1.masked_mfd.to_bytes(8, "big")
            sig2 = r2.masked_cw.to_bytes(8, "big") + r2.masked_mfd.to_bytes(8, "big")
            assert bytes(a ^ b for a, b in zip(sig1, sig2)) == kx[-16:]
            if mode is ProtectionMode.ENCRYPTION:
                data_x = bytes(a ^ b for a, b in zip(r1.data_field, r2.data_field))
                assert data_x == kx[: len(data_x)]


class TestGenKey:
    def test_first_draw_when_nothing_collides(self):
        rng = RiggedRng([b"\xaa\xbb"])
        key = gen_key(ProtectionMode.SIGNATURE, 0, [], [], rng, P8)
        assert key.bits == b"\xaa\xbb"
        assert not key.consumed

    def test_redraw_when_candidate_validates_existing_register(self):
        k = OneTimeKey(ProtectionMode.SIGNATURE, b"\x13\x37")
        reg = protect_register(b"hi", 0x5A, OneTimeKey(ProtectionMode.SIGNATURE, k.bits), P8)
        rng = RiggedRng([b"\x13\x37", b"\x42\x42"])
        key = gen_key(ProtectionMode.SIGNATURE, 2, [reg], [], rng, P8)
        assert key.bits == b"\x42\x42"

    def test_redraw_on_keystore_collision(self):
        held = OneTimeKey(ProtectionMode.SIGNATURE, b"\x13\x37")
        rng = RiggedRng([b"\x13\x37", b"\x42\x42"])
        key = gen_key(ProtectionMode.SIGNATURE, 2, [], [held], rng, P8)
        assert key.bits == b"\x42\x42"

    def test_exhaustion_with_broken_rng(self):
        # exactly MAX_KEY_ATTEMPTS = 128 draws are made before giving up
        held = OneTimeKey(ProtectionMode.SIGNATURE, b"\x13\x37")
        rng = RiggedRng([b"\x13\x37"] * 129)
        with pytest.raises(ExhaustedAttemptsError, match="after 128 draws of 2 octets"):
            gen_key(ProtectionMode.SIGNATURE, 2, [], [held], rng, P8)
        assert len(rng.queue) == 1

    def test_unseeded_rng_is_system_entropy(self):
        assert type(default_rng()) is random.SystemRandom
        assert type(default_rng(None)) is random.SystemRandom
        assert type(default_rng(0)) is random.Random
        assert default_rng(7).randbytes(8) == random.Random(7).randbytes(8)

    def test_key_lengths_by_mode(self):
        rng = random.Random(11)
        sig = gen_key(ProtectionMode.SIGNATURE, 100, [], [], rng, P64)
        assert len(sig.bits) == 128 // 8
        enc = gen_key(ProtectionMode.ENCRYPTION, 100, [], [], rng, P64)
        assert len(enc.bits) == 104 + 128 // 8


class TestKeyForCiphertext:
    def test_identity_and_complement(self):
        c = bytes.fromhex("00ff55aa")
        assert key_for_ciphertext(c, c) == bytes(4)
        comp = bytes(b ^ 0xFF for b in c)
        assert key_for_ciphertext(c, comp) == b"\xff" * 4

    @given(st.binary(max_size=100), st.binary(max_size=100))
    def test_constructed_key_recovers_target(self, c, a):
        if len(c) != len(a):
            with pytest.raises(LengthMismatchError):
                key_for_ciphertext(c, a)
            return
        b = key_for_ciphertext(c, a)
        assert bytes(x ^ y for x, y in zip(c, b)) == a


def signature_keys_reference(regs):
    """Every W=8 signature key that validates all of ``regs``, ascending, by the oracle digest."""
    keys = []
    for c in range(256):
        masks = set(range(256))
        for reg in regs:
            d = digest_reference(split_reference(reg.data_field, 8), reg.masked_cw ^ c, 8)
            masks &= {m for m in range(256) if reg.masked_mfd ^ m == d}
        keys += [(c << 8) | m for m in sorted(masks)]
    return keys


class TestEnumerateSignatureKeys:
    def test_count_is_two_to_the_width(self):
        rng = random.Random(12)
        key = make_key(rng, ProtectionMode.SIGNATURE, 3, P8)
        reg = protect_register(b"\x01\x02\x03", rng.getrandbits(8), key, P8)
        assert enumerate_valid_signature_keys(reg, P8) == 256
        assert check_register(reg, key, P8).valid  # the genuine key is in the set

    def test_empty_message_register(self):
        rng = random.Random(13)
        key = make_key(rng, ProtectionMode.SIGNATURE, 0, P8)
        reg = protect_register(b"", rng.getrandbits(8), key, P8)
        assert enumerate_valid_signature_keys(reg, P8) == 256

    def test_key_list_matches_reference(self):
        # every register is enumerated under all 256 codewords; at W=8 one
        # octet is one block, so 0, 1 and 8 octets are walked block by block,
        # and 9 and 24 octets are folded past the first period
        rng = random.Random(16)
        cases = []
        for n in (0, 1, 8, 9, 24):
            key = make_key(rng, ProtectionMode.SIGNATURE, n, P8)
            reg = protect_register(rng.randbytes(n), rng.getrandbits(8), key, P8)
            cases.append((reg, int.from_bytes(key.bits, "big")))
        # at W=8 every octet is a block, so a rewritten length moves the field
        # boundaries; with the two octets it leaves over cut off, the image
        # decodes to the shifted fields, as inside an area
        raw = bytearray(encode_register(cases[-1][0], P8))
        raw[1:5] = (22).to_bytes(4, "big")
        shifted = decode_register(bytes(raw[:-2]), P8)
        assert len(shifted.data_field) == 22
        cases.append((shifted, None))

        def check(reg, key):
            return check_register(reg, key, P8)

        def as_key(octets):
            return OneTimeKey(ProtectionMode.SIGNATURE, octets)

        for reg, genuine in cases:
            keys = list(_valid_signature_keys(reg, P8))
            assert keys == valid_signature_keys_reference(reg, check, as_key, 8)
            assert len(keys) == 256
            if genuine is not None:
                assert genuine in keys

    def test_column_walk_matches_digest_reference(self):
        # arbitrary masked words over 0-40 octets: past 8 blocks _digest folds
        # by period, the column walk steps every block
        rng = random.Random(17)
        for n in [0, 1, 10, 11, 40] + [rng.randint(0, 40) for _ in range(25)]:
            reg = Register(
                ProtectionMode.SIGNATURE, n, rng.randbytes(n), rng.getrandbits(8), rng.getrandbits(8)
            )
            assert list(_valid_signature_keys(reg, P8)) == signature_keys_reference([reg]), n

    @pytest.mark.parametrize("seed, survivors", [(0, 4), (1, 3), (2, 1)])
    def test_two_time_pad_collapses_the_key_set(self, seed, survivors):
        # two registers protected under the same key octets, each with its own codeword
        rng = random.Random(seed)
        bits = rng.randbytes(2)
        regs = [
            protect_register(
                rng.randbytes(rng.randint(1, 8)),
                rng.getrandbits(8),
                OneTimeKey(ProtectionMode.SIGNATURE, bits),
                P8,
            )
            for _ in range(2)
        ]
        first, second = (_valid_signature_keys(reg, P8) for reg in regs)
        common = sorted(set(first).intersection(second))
        assert common == signature_keys_reference(regs)
        assert int.from_bytes(bits, "big") in common
        assert len(common) == survivors

    def test_width_guard(self):
        rng = random.Random(14)
        key = make_key(rng, ProtectionMode.SIGNATURE, 1, P64)
        reg = protect_register(b"x", rng.getrandbits(64), key, P64)
        with pytest.raises(WidthTooLargeError):
            enumerate_valid_signature_keys(reg, P64)

    def test_mode_guard(self):
        rng = random.Random(15)
        key = make_key(rng, ProtectionMode.ENCRYPTION, 1, P8)
        reg = protect_register(b"x", rng.getrandbits(8), key, P8)
        with pytest.raises(ValueError):
            enumerate_valid_signature_keys(reg, P8)


class TestForgeryRates:
    """Exact forgery rates at W=8, from ``forgery_rate`` in tests/oracles.py,
    over the 256 keys consistent with each of three seeded signature registers."""

    # per register, the number of keys under which flipping codeword bit 0..7
    # still validates; the oracle and the package both give these counts
    CODEWORD_FLIPS = [
        [0, 0, 0, 160, 160, 32, 32, 32],
        [0, 0, 72, 124, 136, 48, 38, 40],
        [4, 0, 16, 76, 72, 22, 14, 18],
    ]

    @staticmethod
    def registers():
        """Signature registers of 2, 3 and 4 octets; at W=8 an octet is a block."""
        rng = random.Random(18)
        regs = []
        for n in (2, 3, 4):
            key = make_key(rng, ProtectionMode.SIGNATURE, n, P8)
            regs.append(protect_register(rng.randbytes(n), rng.getrandbits(8), key, P8))
        return regs

    def test_one_bit_data_flips_never_validate(self):
        for reg in self.registers():
            for bit in range(8 * reg.length):
                data = bytearray(reg.data_field)
                data[bit // 8] ^= 0x80 >> bit % 8
                assert forgery_rate(reg, replace(reg, data_field=bytes(data)), 8) == 0

    def test_two_block_complements_always_validate(self):
        for reg in self.registers():
            for i, j in combinations(range(reg.length), 2):
                data = bytearray(reg.data_field)
                data[i] ^= 0xFF
                data[j] ^= 0xFF
                assert forgery_rate(reg, replace(reg, data_field=bytes(data)), 8) == 1

    def test_codeword_flip_counts_match_the_package(self):
        for reg, counts in zip(self.registers(), self.CODEWORD_FLIPS):
            keys = [
                OneTimeKey(ProtectionMode.SIGNATURE, k.to_bytes(2, "big"))
                for k in _valid_signature_keys(reg, P8)
            ]
            for bit, expected in enumerate(counts):
                tampered = replace(reg, masked_cw=reg.masked_cw ^ 1 << bit)
                package = sum(check_register(tampered, key, P8).valid for key in keys)
                assert forgery_rate(reg, tampered, 8) * 256 == package == expected


class TestEncryptionForgeryRates:
    """Exact rates of data-field tampers on encryption registers, from
    ``data_tamper_verdicts`` in tests/oracles.py: a delta XORed into the data
    field validates under a codeword iff it folds to zero and, derotated under
    that codeword, is zero in the padding. Message and pad play no part."""

    # a 5-octet register at W=16 holds three blocks and one padding octet;
    # a word d XORed into blocks 0 and 2 folds to zero, so the last block's
    # rotation alone decides. The counts are the oracle's.
    W16_COUNTS = {0x0100: 36672, 0x8001: 25056}

    @staticmethod
    def package_verdicts(deltas, length, params):
        """Per delta, ``check_register``'s verdict under each codeword on a
        register of ``length`` zero octets with that delta XORed into its data
        field. The zero message rotates and folds to zero under every codeword,
        so its registers under one key differ only in the masked codeword."""
        key = make_key(random.Random(23), ProtectionMode.ENCRYPTION, length, params)
        base = protect_register(bytes(length), 0, key, params)
        tampered = [bytes(a ^ b for a, b in zip(base.data_field, delta)) for delta in deltas]
        verdicts = [[] for _ in deltas]
        for cw in range(1 << params.block_width_bits):
            masked_cw = base.masked_cw ^ cw
            for out, data in zip(verdicts, tampered):
                reg = Register(base.mode, length, data, masked_cw, base.masked_mfd)
                out.append(check_register(reg, key, params).valid)
        return verdicts

    def test_w8_registers_have_no_padding_so_the_fold_alone_decides(self):
        # a W=8 block is one octet: a delta that folds to zero validates under
        # all 256 codewords, any other under none
        deltas = [bytes.fromhex(h) for h in ("5a5a5a5a", "0f3c3300", "01000000", "ff00fe00")]
        expected = [[True] * 256, [True] * 256, [False] * 256, [False] * 256]
        assert self.package_verdicts(deltas, 4, P8) == data_tamper_verdicts(deltas, 4, 8) == expected

    def test_w16_counts_match_the_package_codeword_by_codeword(self):
        p16 = CipherParams(16)
        deltas = [d.to_bytes(2, "big") + bytes(2) + d.to_bytes(2, "big") for d in self.W16_COUNTS]
        oracle = data_tamper_verdicts(deltas, 5, 16)
        assert [sum(verdicts) for verdicts in oracle] == list(self.W16_COUNTS.values())
        assert self.package_verdicts(deltas, 5, p16) == oracle
        # a random message under a random key gets the same verdict
        rng = random.Random(24)
        for cw in rng.sample(range(1 << 16), 64):
            key = make_key(rng, ProtectionMode.ENCRYPTION, 5, p16)
            reg = protect_register(rng.randbytes(5), cw, key, p16)
            for delta, verdicts in zip(deltas, oracle):
                data = bytes(a ^ b for a, b in zip(reg.data_field, delta))
                assert check_register(replace(reg, data_field=data), key, p16).valid == verdicts[cw]
