"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance and count
is pinned here; the randomized parts run on fixed seeds so a pass is
reproducible.
"""

import json
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from agentpad.cipher import (
    CheckReason,
    CipherParams,
    OneTimeKey,
    ProtectionMode,
    check_register,
    enumerate_valid_signature_keys,
    key_for_ciphertext,
    protect_register,
    required_key_octets,
)
from agentpad.codec import decode_register, encode_register
from agentpad.protocol import Verdict, host_id
from agentpad.simulator import (
    Channel,
    ChannelSecurity,
    KeyResponse,
    enforce_channel_policy,
    run_scenario,
    scenario_from_dict,
)
import independent_decoder
from oracles import derotated_blocks_reference, digest_reference, split_reference, xor_reference
from test_simulator import expected_owners

P8 = CipherParams(8)
P64 = CipherParams(64)
GOLDEN = json.loads((Path(__file__).parent / "golden" / "registers.json").read_text())


def make_key(rng, mode, octets, params):
    return OneTimeKey(mode, rng.randbytes(required_key_octets(mode, octets, params)))


def random_protected(rng, params, max_len=1024, mode=None):
    mode = mode or rng.choice(list(ProtectionMode))
    message = rng.randbytes(rng.randrange(max_len + 1))
    cw = rng.getrandbits(params.block_width_bits)
    key = make_key(rng, mode, len(message), params)
    reg = protect_register(message, cw, key, params)
    return message, reg, OneTimeKey(mode, key.bits)


def test_criterion_1_round_trip_correctness():
    """10,000 randomized protect->check cases split across W=64 and W=8."""
    started = time.perf_counter()
    cases = 0
    for width, seed in ((64, 0xC1A01), (8, 0xC1A02)):
        params = CipherParams(width)
        rng = random.Random(seed)
        for _ in range(5000):
            message, reg, key = random_protected(rng, params)
            result = check_register(reg, key, params)
            assert result.valid, (width, message.hex())
            if reg.mode is ProtectionMode.ENCRYPTION:
                assert result.plaintext == message
            else:
                assert reg.data_field[: reg.length] == message
            cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 10000
    assert elapsed < 5.0, f"round-trip took {elapsed:.2f}s"
    print(f"\n[criterion 1] round-trip: 10000/10000 recovered exactly in {elapsed:.2f}s  PASS")


def test_criterion_2_signature_key_count():
    """At W=8 every register admits exactly 2^8 of the 2^16 signature keys."""
    started = time.perf_counter()
    rng = random.Random(0xC1A03)
    for i in range(20):
        message = rng.randbytes(rng.randint(1, 8))
        cw = rng.getrandbits(8)
        key = make_key(rng, ProtectionMode.SIGNATURE, len(message), P8)
        genuine = OneTimeKey(ProtectionMode.SIGNATURE, key.bits)
        reg = protect_register(message, cw, key, P8)
        assert enumerate_valid_signature_keys(reg, P8) == 256, f"register {i}"
        assert check_register(reg, genuine, P8).valid, "genuine key must be in the set"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"enumeration took {elapsed:.2f}s"
    print(f"\n[criterion 2] key count: 20 registers x 65536 keys -> 256 each in {elapsed:.2f}s  PASS")


def test_criterion_3_key_construction():
    """Any (ciphertext, target) pair admits a key that decodes to the target."""
    rng = random.Random(0xC1A04)
    for _ in range(10000):
        n = rng.randrange(0, 129)
        c, a = rng.randbytes(n), rng.randbytes(n)
        b = key_for_ciphertext(c, a)
        assert bytes(x ^ y for x, y in zip(c, b)) == a
    print("\n[criterion 3] constructed keys: 10000/10000 recover the target  PASS")


def _cw_flip_accepted(reg, key, masked_cw, params) -> bool:
    """Whether ``reg`` should still validate with its masked codeword replaced.

    The codeword is bound only through the digest's rotation schedule. In
    signature mode the flip is accepted exactly when the flipped schedule
    digests the data to the same value. In encryption mode the digest of the
    derotated blocks is the plain XOR of the stored unmasked blocks, whatever
    the codeword, so the flip is accepted exactly when the padding, derotated
    under the flipped codeword, stays zero.
    """
    width, bb = params.block_width_bits, params.block_bytes
    cw_mask = int.from_bytes(key.bits[-2 * bb : -bb], "big")
    cw, flipped = reg.masked_cw ^ cw_mask, masked_cw ^ cw_mask
    if reg.mode is ProtectionMode.SIGNATURE:
        blocks = split_reference(reg.data_field, width)
        return digest_reference(blocks, flipped, width) == digest_reference(blocks, cw, width)
    unmasked = xor_reference(reg.data_field, key.bits[: len(reg.data_field)])
    derotated = derotated_blocks_reference(split_reference(unmasked, width), flipped, width)
    plain = b"".join(b.to_bytes(bb, "big") for b in derotated)
    return not any(plain[reg.length :])


def _check_cw_flip(reg, key, bit, params) -> bool:
    """Check one codeword-bit flip against its exact expected verdict; returns it."""
    flipped = reg.masked_cw ^ (1 << bit)
    result = check_register(replace(reg, masked_cw=flipped), key, params)
    assert result.valid == _cw_flip_accepted(reg, key, flipped, params), (reg, bit)
    if reg.mode is ProtectionMode.ENCRYPTION:
        assert result.reason is not CheckReason.DIGEST_MISMATCH, (reg, bit)
    return result.valid


def test_criterion_4_tamper_detection():
    """Single-bit flips: exhaustive at W=8, 10,000 sampled at W=64."""
    rng = random.Random(0xC1A05)
    cw8_accepts = 0

    # W=8 exhaustive sweep over data field and both signature words
    for mode in ProtectionMode:
        message, reg, key = random_protected(rng, P8, max_len=12, mode=mode)
        for i in range(len(reg.data_field) * 8):
            flipped = bytearray(reg.data_field)
            flipped[i // 8] ^= 1 << (i % 8)
            assert not check_register(replace(reg, data_field=bytes(flipped)), key, P8).valid
        for bit in range(8):
            assert not check_register(replace(reg, masked_mfd=reg.masked_mfd ^ (1 << bit)), key, P8).valid
        # codeword-word flips carry no rejection guarantee (see
        # _cw_flip_accepted); each one must get exactly its predicted verdict
        for bit in range(8):
            cw8_accepts += _check_cw_flip(reg, key, bit, P8)

    # W=64: 10,000 sampled flips over the digest-bound bits (data and MFD),
    # zero false accepts; one codeword-mask flip per register is sampled
    # alongside and must get exactly its predicted verdict
    flips = 0
    false_accepts = 0
    cw_flips = cw_accepts = 0
    while flips < 10000:
        message, reg, key = random_protected(rng, P64, max_len=64)
        if reg.length == 0:
            continue
        bound_bits = (len(reg.data_field) + 8) * 8
        for _ in range(min(200, 10000 - flips)):
            bit = rng.randrange(bound_bits)
            if bit < len(reg.data_field) * 8:
                data = bytearray(reg.data_field)
                data[bit // 8] ^= 1 << (bit % 8)
                tampered = replace(reg, data_field=bytes(data))
            else:
                tampered = replace(reg, masked_mfd=reg.masked_mfd ^ (1 << (bit % 64)))
            if check_register(tampered, key, P64).valid:
                false_accepts += 1
            flips += 1
        cw_flips += 1
        cw_accepts += _check_cw_flip(reg, key, rng.randrange(64), P64)
    assert false_accepts == 0
    print(
        "\n[criterion 4] tamper detection: exhaustive W=8 sweep and 10000 sampled"
        f" W=64 data/MFD flips all rejected; cw-word flips accepted: {cw8_accepts}/16 at W=8,"
        f" {cw_accepts}/{cw_flips} at W=64, each as predicted  PASS"
    )


# --- attack suite (criteria 5 and 6 share these runs) -------------------------


def _attack_scenario(kind: str, seed: int) -> dict:
    rng = random.Random(seed)
    labels = [f"h{i}" for i in range(rng.randint(2, 5))]
    adversary = labels[rng.randrange(len(labels))]
    honest = [l for l in labels if l != adversary]

    hosts = []
    for label in labels:
        cfg = {
            "id": label,
            "payload": rng.randbytes(rng.randint(1, 16)).hex(),
            "mode": rng.choice(["sign", "encrypt"]),
            "revisit": "edit",
        }
        if label == adversary:
            if kind == "counterfeit":
                cfg["behavior"] = {
                    "profile": kind,
                    "target_index": 0,
                    "forged_payload": rng.randbytes(rng.randint(1, 16)).hex(),
                }
            elif kind == "erase_foreign":
                cfg["behavior"] = {"profile": kind, "target_index": 0}
            else:
                cfg["behavior"] = {"profile": kind}
        hosts.append(cfg)

    if kind == "brainwash_replay":
        middle = [rng.choice(honest)] + [rng.choice(labels) for _ in range(rng.randint(0, 4))]
        rng.shuffle(middle)
        route = [adversary, *middle, adversary]
    elif kind in ("counterfeit", "erase_foreign"):
        route = [rng.choice(honest)] + [rng.choice(labels) for _ in range(rng.randint(1, 7))]
        if adversary not in route[1:]:
            route[rng.randint(1, len(route) - 1)] = adversary
    else:
        route = [rng.choice(labels) for _ in range(rng.randint(1, 8))]
        if adversary not in route:
            route[rng.randrange(len(route))] = adversary
    assert len(route) <= 8

    return {
        "params": {"block_width_bits": 64},
        "seed": rng.getrandbits(64),
        "agent_server": "server",
        "route_servers": ["rs1", "rs2"],
        "hosts": hosts,
        "route": route,
    }


def _control_scenario(seed: int) -> dict:
    rng = random.Random(seed)
    labels = [f"h{i}" for i in range(rng.randint(1, 5))]
    hosts = [
        {
            "id": label,
            "payload": rng.randbytes(rng.randint(1, 16)).hex(),
            "mode": rng.choice(["sign", "encrypt"]),
            "revisit": rng.choice(["edit", "append", "remove", "idle"]),
        }
        for label in labels
    ]
    route = [rng.choice(labels) for _ in range(rng.randint(1, 8))]
    return {
        "params": {"block_width_bits": 64},
        "seed": rng.getrandbits(64),
        "agent_server": "server",
        "route_servers": ["rs1", "rs2"],
        "hosts": hosts,
        "route": route,
    }


ATTACK_KINDS = ("counterfeit", "erase_foreign", "brainwash_replay", "orphan_key")


@pytest.fixture(scope="module")
def attack_suite_reports():
    reports = []
    started = time.perf_counter()
    for kind in ATTACK_KINDS:
        for i in range(100):
            scenario = scenario_from_dict(_attack_scenario(kind, 0xA77AC + i))
            reports.append((kind, scenario, run_scenario(scenario)))
    for i in range(100):
        scenario = scenario_from_dict(_control_scenario(0xC0117 + i))
        reports.append(("honest", scenario, run_scenario(scenario)))
    return reports, time.perf_counter() - started


def test_criterion_5_attack_suite(attack_suite_reports):
    """Every attack run discards; every honest control accepts with exact attribution."""
    reports, elapsed = attack_suite_reports
    discards = accepts = 0
    for kind, scenario, report in reports:
        verdict = report.verification.verdict
        if kind == "honest":
            assert verdict is Verdict.ACCEPT, (kind, scenario.route)
            expected = [host_id(label) for label in expected_owners(scenario)]
            assert [h for _, h in report.verification.attribution] == expected, scenario.route
            accepts += 1
        else:
            assert verdict is Verdict.DISCARD, (kind, scenario.route)
            discards += 1
    assert discards == 400 and accepts == 100
    assert elapsed < 60.0, f"attack suite took {elapsed:.2f}s"
    print(
        f"\n[criterion 5] attack suite: {discards}/400 attacks discarded,"
        f" {accepts}/100 controls accepted with exact attribution in {elapsed:.2f}s  PASS"
    )


def test_criterion_6_non_interactivity(attack_suite_reports):
    """Traces show no server<->host traffic in flight and no early key release."""
    reports, _ = attack_suite_reports
    for kind, scenario, report in reports:
        hosts = {cfg.id for cfg in scenario.hosts}
        server = scenario.agent_server
        transfers = [e for e in report.trace if e.kind == "agent_transfer"]
        dispatch_time = min(e.time for e in transfers if e.src == server)
        return_time = max(e.time for e in transfers if e.dst == server)
        for event in report.trace:
            if dispatch_time < event.time < return_time:
                touches_server = event.src == server or event.dst == server
                touches_host = event.src in hosts or event.dst in hosts
                assert not (touches_server and touches_host), (kind, event)
            if event.kind == "key_response":
                assert event.time > return_time, (kind, event)
    print(f"\n[criterion 6] non-interactivity: {len(reports)} traces clean  PASS")


def test_criterion_7_channel_policy():
    """Encryption keys over insecure channels always violate; signature keys never.

    A violation names its kind, the channel's endpoints and how many
    encryption keys the response exposed.
    """
    rng = random.Random(0xC1A06)
    insecure = Channel(("h", "server"), ChannelSecurity.INSECURE)
    secure = Channel(("h", "server"), ChannelSecurity.SECURE)

    def violation(exposed):
        return {"kind": "insecure_key_transfer", "channel": ["h", "server"], "encryption_keys": exposed}

    for _ in range(200):
        enc = OneTimeKey(ProtectionMode.ENCRYPTION, rng.randbytes(rng.randrange(16, 48)))
        sig = OneTimeKey(ProtectionMode.SIGNATURE, rng.randbytes(16))
        assert enforce_channel_policy(KeyResponse((enc,)), insecure) == violation(1)
        assert enforce_channel_policy(KeyResponse((sig, enc)), insecure) == violation(1)
        assert enforce_channel_policy(KeyResponse((sig,)), insecure) is None
        assert enforce_channel_policy(KeyResponse((sig, enc)), secure) is None
        assert enforce_channel_policy(KeyResponse((sig,)), secure) is None
        exposed = rng.randrange(4)
        mix = [enc] * exposed + [sig] * rng.randrange(4)
        rng.shuffle(mix)
        expected = violation(exposed) if exposed else None
        assert enforce_channel_policy(KeyResponse(tuple(mix)), insecure) == expected
        assert enforce_channel_policy(KeyResponse(tuple(mix)), secure) is None
    print("\n[criterion 7] channel policy: 200 key mixes classified correctly  PASS")


def test_criterion_8_masked_signature_bit_balance():
    """Each masked-signature bit of a fixed message is set in 45-55% of 1000 protections.

    A weak empirical proxy for the masking being a one-time pad, not a proof.
    The seed is fixed: the band is about 3.2 sigma at n=1000, so a freely
    seeded run would stray outside it for some of the 128 positions in a few
    percent of runs.
    """
    rng = random.Random(0xC1A08)
    message = b"fixed message under observation"
    counts = [0] * 128
    for _ in range(1000):
        key = make_key(rng, ProtectionMode.SIGNATURE, len(message), P64)
        reg = protect_register(message, 0x0123456789ABCDEF, key, P64)
        signature = (reg.masked_cw << 64) | reg.masked_mfd
        for bit in range(128):
            counts[bit] += (signature >> bit) & 1
    assert all(450 <= c <= 550 for c in counts), (min(counts), max(counts))
    print(
        f"\n[criterion 8] masked-signature balance: all 128 positions in"
        f" [{min(counts)}, {max(counts)}] of 1000  PASS"
    )


def test_criterion_9_wire_format_golden_vectors():
    """Committed encodings decode identically in the codec and the standalone parser."""
    for vector in GOLDEN["vectors"]:
        params = CipherParams(vector["width"])
        raw = bytes.fromhex(vector["register_hex"])

        reg = decode_register(raw, params)
        assert reg.length == vector["len"]
        assert reg.data_field.hex() == vector["data_field_hex"]
        assert reg.masked_cw == int(vector["masked_cw_hex"], 16)
        assert reg.masked_mfd == int(vector["masked_mfd_hex"], 16)
        assert encode_register(reg, params) == raw

        fields = independent_decoder.parse_register_strict(raw, vector["width"])
        assert fields["mode"] == vector["mode"]
        assert fields["len"] == vector["len"]
        assert fields["data_field"] == vector["data_field_hex"]
        assert fields["masked_cw"] == vector["masked_cw_hex"]
        assert fields["masked_mfd"] == vector["masked_mfd_hex"]
    print(f"\n[criterion 9] golden vectors: {len(GOLDEN['vectors'])} encodings agree  PASS")
