"""Reference implementations used as independent oracles.

Everything here works on bit strings instead of masked integer arithmetic, so
a bug in the package's bit twiddling cannot hide in its own mirror image.
Kept import-free of the package on purpose.
"""

from fractions import Fraction


def rotl_bits(value: int, n: int, width: int) -> int:
    """Left-rotate by slicing the zero-padded binary string."""
    bits = format(value, f"0{width}b")
    n %= width
    return int(bits[n:] + bits[:n], 2)


def rotr_bits(value: int, n: int, width: int) -> int:
    """Right-rotate by slicing the zero-padded binary string."""
    bits = format(value, f"0{width}b")
    n %= width
    if n == 0:
        return value
    return int(bits[-n:] + bits[:-n], 2)


def split_reference(data: bytes, width: int) -> list[int]:
    """Zero-pad to a whole number of blocks, then read each block big-endian."""
    block_bytes = width // 8
    if len(data) % block_bytes:
        data = data + b"\x00" * (block_bytes - len(data) % block_bytes)
    return [
        int.from_bytes(data[i : i + block_bytes], "big")
        for i in range(0, len(data), block_bytes)
    ]


def digest_reference(blocks: list[int], cw: int, width: int) -> int:
    """Straight-loop digest: XOR of left-rotated blocks under the codeword schedule.

    Per iteration, the rotation counts come from the codeword state before it
    is advanced: the low log2(width) bits give the block's left rotation, the
    high log2(width) bits give the codeword's own right rotation.
    """
    r = width.bit_length() - 1
    mfd = 0
    c = cw
    for b in blocks:
        state = format(c, f"0{width}b")
        left = int(state[-r:], 2)
        right = int(state[:r], 2)
        mfd ^= rotl_bits(b, left, width)
        c = rotr_bits(c, right, width)
    return mfd


def rotated_blocks_reference(blocks: list[int], cw: int, width: int) -> list[int]:
    """The per-block left rotations applied in encryption mode (same schedule)."""
    r = width.bit_length() - 1
    out = []
    c = cw
    for b in blocks:
        state = format(c, f"0{width}b")
        left = int(state[-r:], 2)
        right = int(state[:r], 2)
        out.append(rotl_bits(b, left, width))
        c = rotr_bits(c, right, width)
    return out


def derotated_blocks_reference(blocks: list[int], cw: int, width: int) -> list[int]:
    """The per-block right rotations that undo rotated_blocks_reference."""
    r = width.bit_length() - 1
    out = []
    c = cw
    for b in blocks:
        state = format(c, f"0{width}b")
        left = int(state[-r:], 2)
        right = int(state[:r], 2)
        out.append(rotr_bits(b, left, width))
        c = rotr_bits(c, right, width)
    return out


def xor_reference(a: bytes, b: bytes) -> bytes:
    assert len(a) == len(b)
    return bytes(x ^ y for x, y in zip(a, b))


def protect_reference(message: bytes, cw: int, key: bytes, mode: str, width: int) -> dict:
    """Independent protection: returns the register fields as a plain dict.

    mode is "sign" or "encrypt". The key masks [data ||] cw || mfd, so the
    signature masks always sit in the trailing 2*width bits.
    """
    block_bytes = width // 8
    blocks = split_reference(message, width)
    padded = len(blocks) * block_bytes
    mfd = digest_reference(blocks, cw, width)

    if mode == "sign":
        assert len(key) == 2 * block_bytes
        data_field = message + b"\x00" * (padded - len(message))
    else:
        assert len(key) == padded + 2 * block_bytes
        rotated = rotated_blocks_reference(blocks, cw, width)
        plain = b"".join(b.to_bytes(block_bytes, "big") for b in rotated)
        data_field = xor_reference(plain, key[:padded])

    cw_mask = int.from_bytes(key[-2 * block_bytes : -block_bytes], "big")
    mfd_mask = int.from_bytes(key[-block_bytes:], "big")
    return {
        "mode": mode,
        "len": len(message),
        "data_field": data_field,
        "masked_cw": cw ^ cw_mask,
        "masked_mfd": mfd ^ mfd_mask,
    }


def match_reference(registers, keys, check) -> list:
    """Every (register index, key index) pair where the key validates the
    register, in register order: the all-pairs loop, each pair checked in turn.

    ``check(register, key)`` returns an object with ``valid``.
    """
    pairs = []
    for ri, reg in enumerate(registers):
        for ki, key in enumerate(keys):
            if check(reg, key).valid:
                pairs.append((ri, ki))
    return pairs


def reconcile_reference(registers, key_responses, route, check) -> tuple:
    """Reconciliation on the all-pairs match list, kept as the exactness
    oracle for the server.

    ``check(register, key)`` returns an object with ``valid`` and
    ``plaintext``. Returns (verdict, reason, attribution, plaintexts) as
    plain values: "accept" or "discard", a reason name or None, a tuple of
    (register index, host) pairs and a dict of encrypted registers' plaintexts.
    Precedence: orphan key, unmatched register, duplicate match, route mismatch.
    """
    flat = [(host, key) for host, keys in key_responses.items() for key in keys]
    matches = match_reference(registers, [key for _, key in flat], check)
    key_matches = [[ri for ri, kj in matches if kj == ki] for ki in range(len(flat))]
    reg_matches = [[ki for rj, ki in matches if rj == ri] for ri in range(len(registers))]

    if any(not hits for hits in key_matches):
        return "discard", "orphan_key", (), {}
    if any(not kis for kis in reg_matches):
        return "discard", "unmatched_register", (), {}
    if any(len(hits) > 1 for hits in key_matches) or any(len(kis) > 1 for kis in reg_matches):
        return "discard", "duplicate_match", (), {}
    if any(host not in set(route) for host, _ in flat):
        return "discard", "route_mismatch", (), {}

    attribution = []
    plaintexts = {}
    for ri, kis in enumerate(reg_matches):
        ki = kis[0]
        attribution.append((ri, flat[ki][0]))
        if registers[ri].mode.name == "ENCRYPTION":
            plaintexts[ri] = check(registers[ri], flat[ki][1]).plaintext
    return "accept", None, tuple(attribution), plaintexts


def valid_signature_keys_reference(reg, check, make_key, width) -> list:
    """Every 2W-bit signature key checked in turn: the enumeration oracle.

    ``make_key(octets)`` wraps key octets as a signature key and
    ``check(register, key)`` returns an object with ``valid``. Returns the
    validating keys as ints, ascending.
    """
    octets = 2 * width // 8
    return [
        k
        for k in range(1 << (2 * width))
        if check(reg, make_key(k.to_bytes(octets, "big"))).valid
    ]


def channel_reference(channels, default, a: str, b: str):
    """The security of the link between ``a`` and ``b``: a scan of ``channels``
    (each with ``endpoints`` and ``security``) for the one joining the two, in
    either order, else ``default``."""
    for channel in channels:
        if sorted(channel.endpoints) == sorted((a, b)):
            return channel.security
    return default


def forgery_rate(reg, tampered, width) -> Fraction:
    """The exact share of the keys consistent with ``reg`` under which
    ``tampered`` validates, both in signature mode.

    Each codeword mask c admits exactly one key consistent with ``reg``: c,
    then the digest mask ``masked_mfd ^ digest``, where digest is that of
    ``reg``'s data under the codeword ``masked_cw ^ c``. ``tampered``
    validates under that key when its own digest under ``tampered.masked_cw
    ^ c`` equals its ``masked_mfd`` unmasked by the same digest mask. A
    signature key fits a message of any length, so no key fails on length.
    Returns a Fraction over all 2^W consistent keys.
    """
    assert reg.mode.name == tampered.mode.name == "SIGNATURE"
    blocks = split_reference(reg.data_field, width)
    forged = split_reference(tampered.data_field, width)
    hits = 0
    for c in range(1 << width):
        mfd_mask = reg.masked_mfd ^ digest_reference(blocks, reg.masked_cw ^ c, width)
        digest = digest_reference(forged, tampered.masked_cw ^ c, width)
        if digest == tampered.masked_mfd ^ mfd_mask:
            hits += 1
    return Fraction(hits, 1 << width)


def data_tamper_verdicts(deltas, length, width) -> list:
    """For each of ``deltas``, whether an encryption register of ``length``
    octets still validates under each codeword 0 .. 2^W - 1 once that delta
    is XORed into its data field.

    The key's pad cancels when the data field is unmasked, and the fold and
    the derotation are both linear. So the register validates iff the delta's
    blocks fold to zero and the delta, derotated under the codeword, is zero
    past ``length``; neither the message nor the key plays a part. Padding is
    shorter than a block, so only the last block's rotation matters: the
    codewords are grouped by it, one derotation per group and delta.
    """
    block_bytes = width // 8
    split = [split_reference(delta, width) for delta in deltas]
    folds = []
    for blocks in split:
        fold = 0
        for b in blocks:
            fold ^= b
        folds.append(fold)
    # a lone 1 in the last block, derotated, names that block's rotation
    probe = [0] * (len(split[0]) - 1) + [1]
    by_rotation = {}
    verdicts = [[] for _ in deltas]
    for cw in range(1 << width):
        rotation = derotated_blocks_reference(probe, cw, width)[-1]
        if rotation not in by_rotation:
            by_rotation[rotation] = []
            for blocks, fold in zip(split, folds):
                derotated = derotated_blocks_reference(blocks, cw, width)
                plain = b"".join(b.to_bytes(block_bytes, "big") for b in derotated)
                by_rotation[rotation].append(fold == 0 and not any(plain[length:]))
        for out, valid in zip(verdicts, by_rotation[rotation]):
            out.append(valid)
    return verdicts
