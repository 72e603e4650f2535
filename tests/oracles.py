"""Reference implementations used as independent oracles.

Everything here works on bit strings instead of masked integer arithmetic, so
a bug in the package's bit twiddling cannot hide in its own mirror image.
Kept import-free of the package on purpose.
"""


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


def reconcile_reference(registers, key_responses, route, check) -> tuple:
    """All-pairs reconciliation, kept as the exactness oracle for the server.

    ``check(register, key)`` returns an object with ``valid`` and
    ``plaintext``. Returns (verdict, reason, attribution, plaintexts) as
    plain values: "accept" or "discard", a reason name or None, a tuple of
    (register index, host) pairs and a dict of encrypted registers' plaintexts.
    Precedence: orphan key, unmatched register, duplicate match, route mismatch.
    """
    flat = [(host, key) for host, keys in key_responses.items() for key in keys]
    key_matches = []
    reg_matches = [[] for _ in registers]
    results = {}
    for ki, (_, key) in enumerate(flat):
        hits = []
        for ri, reg in enumerate(registers):
            res = check(reg, key)
            if res.valid:
                hits.append(ri)
                reg_matches[ri].append(ki)
                results[(ki, ri)] = res.plaintext
        key_matches.append(hits)

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
            plaintexts[ri] = results[(ki, ri)]
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
