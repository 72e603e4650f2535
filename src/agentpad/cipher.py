"""Rotation-digest register protection with one-time XOR keys.

A register protects one message: the message is split into W-bit blocks, a
random W-bit *codeword* drives a per-block rotation schedule, and the XOR of
the rotated blocks forms the *message field digest* (MFD). The codeword and
digest together are the 2W-bit signature, masked by XOR with a fresh one-time
key. In encryption mode the rotated blocks themselves are stored and the key
additionally masks them, so the same key material both hides and
authenticates the data.

Schedule: for block i, the low ``r = log2(W)`` bits of the current codeword
state give the block's left rotation and the high r bits give the codeword
state's own right rotation; both are read before the state advances. The
register always carries the original (masked) codeword, so verification can
replay the identical schedule.

Every codeword state is the codeword rotated right by a running offset in
Z_W, so the schedule is a walk on at most W states: a preperiod of mu
blocks, then a cycle of lam blocks, with mu + lam <= W. A message of at most
W blocks therefore never reaches past the first period, and each kernel
steps the codeword state itself as it reads each block, with no schedule
built. Past W blocks the kernel asks ``_schedule``, the one routine that
finds the period, walks the first mu + lam blocks in the same loop, and
folds the rest: the digest XOR-folds them per cycle phase and rotates only
the lam folds; encryption-mode rotation rotates all blocks of each cycle
phase together, so it passes over the data about once however many rotation
amounts the codeword has. The switch at W blocks follows from the width;
nothing is tuned.

In encryption mode the stored blocks are the rotated ones, and derotation
undoes each rotation exactly, so the digest of the derotated blocks equals
the plain XOR fold of the unmasked stored blocks. Checking such a register
needs the schedule only to recover the plaintext and its padding.

A signature key's digest-mask half never reaches the schedule, so the
exhaustive signature-key count walks all candidate codewords through the
schedule together, one block at a time, and then tests every digest mask
against each codeword's digest with one scan in C over the claimed digests.
Every candidate key is tested.

Every key is used for exactly one register. Checking a register never
consumes the key; protecting with it does.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

VALID_WIDTHS = (8, 16, 32, 64)

MAX_KEY_ATTEMPTS = 128

# The array typecode whose items are one block wide, per block size in
# octets. C type sizes vary by platform, so the code is chosen by itemsize.
_WORD_TYPECODES = {array(t).itemsize: t for t in "BHILQ"}


class CipherError(Exception):
    """Base class for protection-layer failures."""


class KeyLengthError(CipherError):
    """Key length does not fit the mode and message size."""


class KeyConsumedError(CipherError):
    """A one-time key was offered for a second protection."""


class ExhaustedAttemptsError(CipherError):
    """Key generation failed MAX_KEY_ATTEMPTS times; the rng is suspect."""


class LengthMismatchError(CipherError):
    """Byte sequences of different lengths where equal lengths are required."""


class WidthTooLargeError(CipherError):
    """Exhaustive key enumeration requested above the feasibility bound."""


class ProtectionMode(Enum):
    SIGNATURE = 1
    ENCRYPTION = 2


class CheckReason(Enum):
    OK = "ok"
    DIGEST_MISMATCH = "digest_mismatch"
    PADDING_NONZERO = "padding_nonzero"
    KEY_LENGTH_MISMATCH = "key_length_mismatch"


@dataclass(frozen=True)
class CipherParams:
    """Block geometry shared by all parties of one deployment.

    block_width_bits is W, a power of two in [8, 64]. The rotation fields are
    log2(W) bits wide and the signature (codeword + digest) is 2W bits. The
    derived sizes are computed once per instance, outside the dataclass
    fields, so equality, hashing and repr see only the width.
    """

    block_width_bits: int = 64

    def __post_init__(self):
        if not isinstance(self.block_width_bits, int) or self.block_width_bits not in VALID_WIDTHS:
            raise ValueError(
                f"block width must be one of {VALID_WIDTHS}, got {self.block_width_bits!r}"
            )

    @cached_property
    def rotation_field_bits(self) -> int:
        return self.block_width_bits.bit_length() - 1

    @cached_property
    def signature_width_bits(self) -> int:
        return 2 * self.block_width_bits

    @cached_property
    def block_bytes(self) -> int:
        return self.block_width_bits // 8

    @cached_property
    def word_mask(self) -> int:
        return (1 << self.block_width_bits) - 1


DEFAULT_PARAMS = CipherParams()


@dataclass(slots=True)
class OneTimeKey:
    """Random key bound to exactly one protection.

    Signature keys are 2W bits; encryption keys are padded-data-bits + 2W.
    ``consumed`` flips when the key protects a register and is never reset.
    A key names no host: the holder keeps it, and the agent server learns
    whose it is from the host that surrendered it.
    """

    mode: ProtectionMode
    bits: bytes
    consumed: bool = False


@dataclass(slots=True)
class Register:
    """One protected record: clear header plus masked signature.

    ``length`` is the plaintext octet count; data_field is zero-padded to a
    whole number of blocks (plaintext when signed, masked rotated blocks when
    encrypted). The mode and length travel in clear; the signature words are
    masked with the one-time key.

    Nothing assigns to a register once it is built, which a lint in
    tests/test_imports.py enforces. It is unhashable and not frozen because a
    frozen one costs several times as much to build, once per register decoded.
    """

    mode: ProtectionMode
    length: int
    data_field: bytes
    masked_cw: int
    masked_mfd: int


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking a register against a key.

    ``plaintext`` is populated only for a valid encryption-mode check; signed
    registers keep their plaintext in the clear data field.
    """

    valid: bool
    reason: CheckReason
    plaintext: bytes | None = None


def default_rng(seed: int | None = None):
    """System entropy when unseeded, deterministic stream when seeded.

    Production protections need the unseeded profile; the seeded one exists
    for reproducible simulation and tests. Both expose randbytes().
    """
    if seed is None:
        return random.SystemRandom()
    return random.Random(seed)


def padded_octets(length: int, params: CipherParams) -> int:
    """Data-field size for a message of ``length`` octets."""
    bb = params.block_bytes
    return ((length + bb - 1) // bb) * bb


def required_key_octets(mode: ProtectionMode, message_octets: int, params: CipherParams) -> int:
    """Key size demanded by a mode for a message of the given length."""
    signature = params.signature_width_bits // 8
    if mode is ProtectionMode.SIGNATURE:
        return signature
    return padded_octets(message_octets, params) + signature


def _schedule(cw: int, params: CipherParams) -> tuple[list[int], int]:
    """Left-rotation amounts of the codeword's schedule, folded by its period.

    Block i is rotated left by the low r bits of its codeword state. The
    walk stops at the first repeated state and returns ``(amounts, mu)``: it
    has closed a cycle of ``lam = len(amounts) - mu`` states, so block
    i < mu + lam takes ``amounts[i]``, and every block past that first period
    takes ``amounts[mu + (i - mu) % lam]``. A state always repeats within
    W + 1 steps: every state is a rotation of cw, and a W-bit word has at
    most W of them, so mu + lam <= W. The kernels call it only for messages
    of more than W blocks, which always reach past the first period.
    """
    w = params.block_width_bits
    low = w - 1
    top = w - params.rotation_field_bits
    mask = params.word_mask
    states = [cw]
    amounts = [cw & low]
    c = cw
    while True:
        m = c >> top
        c = ((c >> m) | (c << (w - m))) & mask
        if c in states:
            return amounts, states.index(c)
        states.append(c)
        amounts.append(c & low)


def _fold(x: int, chunks: int, chunk_bits: int) -> int:
    """XOR of the ``chunks`` chunk_bits-wide chunks of x, counted from its low end.

    Halves the integer until one chunk is left. With an odd count the top
    chunk is left unpaired for a round, which changes no XOR.
    """
    while chunks > 1:
        half = chunks // 2
        cut = half * chunk_bits
        x = (x >> cut) ^ (x & ((1 << cut) - 1))
        chunks -= half
    return x


def _digest(data: bytes, cw: int, params: CipherParams) -> int:
    """Schedule digest of whole-block ``data``.

    A message of at most W blocks ends within the schedule's first period,
    so each block's codeword state is stepped here as the block is read.
    Past W blocks ``_schedule`` gives the period: the first mu + lam blocks
    are walked the same way, and the blocks past them are XOR-folded per
    cycle phase first, so only lam folds are rotated.
    """
    w = params.block_width_bits
    bb = params.block_bytes
    mask = params.word_mask
    low = w - 1
    top = w - params.rotation_field_bits
    n = head = len(data) // bb
    if n > w:
        amounts, mu = _schedule(cw, params)
        head = len(amounts)
    x = int.from_bytes(data[: head * bb], "big")
    mfd = 0
    c = cw
    at = head * w
    while at:  # block i sits at bit (head - 1 - i) * w
        at -= w
        b = (x >> at) & mask
        l = c & low
        mfd ^= ((b << l) | (b >> (w - l))) & mask
        if at:  # the state after the last block is never needed
            m = c >> top
            c = ((c >> m) | (c << (w - m))) & mask
    if head < n:
        rest = n - head
        cycle = amounts[mu:]
        lam = len(cycle)
        folds = _fold(int.from_bytes(data[head * bb :], "big"), -(-rest // lam), lam * w)
        for q in range(lam):  # the fold's lowest word holds the phase of the last block
            f = folds & mask
            l = cycle[(rest - 1 - q) % lam]
            mfd ^= ((f << l) | (f >> (w - l))) & mask
            folds >>= w
    return mfd


def _rotate(data: bytes, cw: int, params: CipherParams, inverse: bool = False) -> bytes:
    """Rotate each block of whole-block ``data`` by its schedule amount.

    Left for protection, right (``inverse``) for recovery. As in ``_digest``,
    the codeword state is stepped block by block over a message of at most W
    blocks, and over the first mu + lam blocks of a longer one. Past them,
    each cycle phase's blocks, the word slice ``[q::lam]``, share one amount,
    so they are gathered into one integer and rotated together: one shift
    each way, with a mask built from the low bit of every word. Only whole
    words move through the array, so the host's byte order never matters.
    """
    w = params.block_width_bits
    bb = params.block_bytes
    mask = params.word_mask
    low = w - 1
    top = w - params.rotation_field_bits
    sign = -1 if inverse else 1  # right by l is left by (W - l) mod W
    n = head = len(data) // bb
    if n > w:
        rots, mu = _schedule(cw, params)
        head = len(rots)
    cut = head * bb
    x = int.from_bytes(data[:cut], "big")
    out = 0
    c = cw
    at = head * w
    while at:
        at -= w
        b = (x >> at) & mask
        l = sign * c & low
        out |= (((b << l) | (b >> (w - l))) & mask) << at
        if at:
            m = c >> top
            c = ((c >> m) | (c << (w - m))) & mask
    walked = out.to_bytes(cut, "big")
    if head == n:
        return walked
    lam = len(rots) - mu
    tc = _WORD_TYPECODES[bb]
    words = array(tc, data[cut:])
    unit = (1).to_bytes(bb, "big")
    sels: dict[int, int] = {}  # phase word count -> the low bit of each word
    for q in range(lam):
        a = sign * rots[mu + q] & low
        if not a:
            continue
        phase = words[q::lam]
        k = len(phase)
        sel = sels.get(k)
        if sel is None:
            sel = sels[k] = int.from_bytes(unit * k, "big")
        x = int.from_bytes(phase.tobytes(), "big")
        wrap = (x >> (w - a)) & (sel * ((1 << a) - 1))  # each word's top a bits, moved low
        x = ((x << a) ^ (wrap << w)) | wrap  # the shift's carries into the next word cancel
        words[q::lam] = array(tc, x.to_bytes(k * bb, "big"))
    return walked + words.tobytes()


def protect_register(
    message: bytes, cw: int, key: OneTimeKey, params: CipherParams = DEFAULT_PARAMS
) -> Register:
    """Protect one message with a fresh codeword and one-time key.

    The register's mode is the key's mode. Signature mode stores the padded
    plaintext and masks only the 2W-bit signature; encryption mode stores the
    rotated blocks masked by the leading key octets. Marks the key consumed.

    Raises KeyConsumedError for a reused key and KeyLengthError when the key
    does not fit the mode and message size.
    """
    if key.consumed:
        raise KeyConsumedError("one-time key already applied to a register")
    need = required_key_octets(key.mode, len(message), params)
    if len(key.bits) != need:
        raise KeyLengthError(
            f"{key.mode.name} key for {len(message)} octets needs {need} key octets,"
            f" got {len(key.bits)}"
        )
    if not 0 <= cw <= params.word_mask:
        raise ValueError("codeword out of range for the block width")

    bb = params.block_bytes
    padded = message.ljust(padded_octets(len(message), params), b"\0")
    if key.mode is ProtectionMode.SIGNATURE:
        mfd = _digest(padded, cw, params)
        data_field = padded
    else:
        size = len(padded)
        rotated = int.from_bytes(_rotate(padded, cw, params), "big")
        mfd = _fold(rotated, size // bb, params.block_width_bits)
        data_field = (rotated ^ int.from_bytes(key.bits[:size], "big")).to_bytes(size, "big")

    cw_mask = int.from_bytes(key.bits[-2 * bb : -bb], "big")
    mfd_mask = int.from_bytes(key.bits[-bb:], "big")
    key.consumed = True
    return Register(key.mode, len(message), data_field, cw ^ cw_mask, mfd ^ mfd_mask)


# A failed or signature-mode check carries no plaintext, so one immutable
# result per outcome serves every call.
_LENGTH_REJECT = CheckResult(False, CheckReason.KEY_LENGTH_MISMATCH)
_DIGEST_REJECT = CheckResult(False, CheckReason.DIGEST_MISMATCH)
_PADDING_REJECT = CheckResult(False, CheckReason.PADDING_NONZERO)
_SIGNATURE_OK = CheckResult(True, CheckReason.OK)


def check_register(
    reg: Register, key: OneTimeKey, params: CipherParams = DEFAULT_PARAMS
) -> CheckResult:
    """Authenticate (and for encryption mode, decrypt) a register with a key.

    Compatibility is judged purely by the key's bit length against the
    register's mode and length; any length-compatible bit string is a
    candidate. ``reg.data_field`` must hold whole blocks, as every register
    built by protect_register or decode_register does. Never consumes the key.
    """
    need = required_key_octets(reg.mode, reg.length, params)
    if len(key.bits) != need:
        return _LENGTH_REJECT

    bb = params.block_bytes
    masks = int.from_bytes(key.bits[-2 * bb :], "big")
    cw = reg.masked_cw ^ (masks >> params.block_width_bits)
    claimed = reg.masked_mfd ^ (masks & params.word_mask)

    if reg.mode is ProtectionMode.SIGNATURE:
        if _digest(reg.data_field, cw, params) != claimed:
            return _DIGEST_REJECT
        return _SIGNATURE_OK

    # The digest of the derotated blocks is the plain XOR fold of the
    # unmasked ones (each derotation undoes its rotation), so only the
    # recovered plaintext needs the schedule.
    size = len(reg.data_field)
    unmasked = int.from_bytes(reg.data_field, "big") ^ int.from_bytes(key.bits[:size], "big")
    if _fold(unmasked, size // bb, params.block_width_bits) != claimed:
        return _DIGEST_REJECT
    plain = _rotate(unmasked.to_bytes(size, "big"), cw, params, inverse=True)
    if any(plain[reg.length :]):
        return _PADDING_REJECT
    return CheckResult(True, CheckReason.OK, plain[: reg.length])


def gen_key(
    mode: ProtectionMode,
    message_octets: int,
    registers: list[Register],
    host_keystore: Iterable[OneTimeKey],
    rng,
    params: CipherParams = DEFAULT_PARAMS,
) -> OneTimeKey:
    """Draw a one-time key that is provably new for this data area.

    A candidate is rejected if it validates any of ``registers``, the ones
    the agent already carries (a length-compatible accidental match would
    blur authorship), or if it repeats any key in the host's keystore.

    Raises ExhaustedAttemptsError after MAX_KEY_ATTEMPTS rejected draws,
    which indicates a broken rng or a pathological data area, not bad luck.
    """
    nbytes = required_key_octets(mode, message_octets, params)
    used = {k.bits for k in host_keystore}
    for _ in range(MAX_KEY_ATTEMPTS):
        bits = rng.randbytes(nbytes)
        if bits in used:
            continue
        candidate = OneTimeKey(mode, bits)
        if any(check_register(reg, candidate, params).valid for reg in registers):
            continue
        return candidate
    raise ExhaustedAttemptsError(
        f"no usable key after {MAX_KEY_ATTEMPTS} draws of {nbytes} octets"
    )


def key_for_ciphertext(ciphertext: bytes, plaintext: bytes) -> bytes:
    """The key that decodes ``ciphertext`` to an arbitrary chosen plaintext.

    XOR masking admits one such key for every equal-length plaintext, which
    is exactly why a captured register constrains nothing.
    """
    if len(ciphertext) != len(plaintext):
        raise LengthMismatchError(
            f"ciphertext ({len(ciphertext)}) and plaintext ({len(plaintext)}) differ"
        )
    x = int.from_bytes(ciphertext, "big") ^ int.from_bytes(plaintext, "big")
    return x.to_bytes(len(ciphertext), "big")


def _valid_signature_keys(reg: Register, params: CipherParams) -> Iterator[int]:
    """The 2W-bit signature keys that validate ``reg``, as ints in ascending order.

    A key is its codeword mask c (high W bits) then its digest mask m. The
    digest mask never reaches the schedule, so the 2^W candidate codewords
    ``masked_cw ^ c`` walk the schedule together, one block at a time: each
    block's W rotations are built once, each codeword XORs its rotation into
    its own running digest, and every state then advances through a 2^W-entry
    successor table. The claimed digests ``masked_mfd ^ m`` of all 2^W masks
    form one octet string, which is scanned in full for each codeword's
    digest, so every one of the 2^(2W) candidates is tested. Each data octet
    is one block, and the octet string holds the claims, only at W=8; the
    caller guards the width. All candidates have 2W bits, which is the
    signature-mode key length for any message, so no candidate fails the
    key-length test.
    """
    w = params.block_width_bits
    mask = params.word_mask
    low = w - 1
    top = w - params.rotation_field_bits
    size = 1 << w
    succ = [((s >> (s >> top)) | (s << (w - (s >> top)))) & mask for s in range(size)]
    states = [reg.masked_cw ^ c for c in range(size)]
    digests = [0] * size
    for b in reg.data_field:
        rots = [((b << l) | (b >> (w - l))) & mask for l in range(w)]
        digests = [d ^ rots[s & low] for d, s in zip(digests, states)]
        states = [succ[s] for s in states]
    claims = bytes(reg.masked_mfd ^ m for m in range(size))
    for c, d in enumerate(digests):
        m = claims.find(d)
        while m >= 0:
            yield (c << w) | m
            m = claims.find(d, m + 1)


def enumerate_valid_signature_keys(reg: Register, params: CipherParams = DEFAULT_PARAMS) -> int:
    """Count, by exhaustive test, the signature keys that validate a register.

    Tests all 2^(2W) candidate keys against the check predicate: the 2^W
    candidate codewords are digested together in one walk of the schedule,
    and every digest mask is tested against each codeword's digest by a scan
    of all 2^W claimed digests. It is guarded to W=8, the only valid width
    with an enumerable key space. The expected count is 2^W: each candidate
    codeword pairs with exactly one digest mask, which is what makes the real
    key indistinguishable.
    """
    if params.block_width_bits > 8:
        raise WidthTooLargeError(
            f"2^{params.signature_width_bits} keys is not enumerable;"
            " use width 8, the largest enumerable width"
        )
    if reg.mode is not ProtectionMode.SIGNATURE:
        raise ValueError("signature-key enumeration applies to signature-mode registers")
    return sum(1 for _ in _valid_signature_keys(reg, params))
