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
