"""Role state machines: key lifecycle, route logging, reconciliation."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from agentpad.cipher import (
    CipherParams,
    OneTimeKey,
    ProtectionMode,
    check_register,
    protect_register,
    required_key_octets,
)
from agentpad.codec import (
    AgentDataArea,
    CodecError,
    TrailingGarbageError,
    TruncatedError,
    encode_register,
)
from agentpad.protocol import (
    MESSAGE_CODECS,
    AgentServerState,
    DiscardReason,
    PeerHostState,
    Verdict,
    decode_agent_id,
    decode_agent_transfer,
    decode_key_response,
    decode_route_answer,
    decode_route_log_entry,
    encode_agent_id,
    encode_agent_transfer,
    encode_key_response,
    encode_route_answer,
    encode_route_log_entry,
    host_handle_agent,
    host_id,
    host_label,
    host_send_keys,
    merge_route_answers,
    server_dispatch,
    server_reconcile,
)
from agentpad.simulator import BehaviorProfile, HostConfig, Scenario, run_scenario
from oracles import match_reference, reconcile_reference

P64 = CipherParams(64)
SIG = ProtectionMode.SIGNATURE
AGENT = bytes(range(16))
ALPHA, BETA, GAMMA = host_id("alpha"), host_id("beta"), host_id("gamma")


def fresh_host(label, seed):
    return PeerHostState(host_id(label), random.Random(seed))


def make_key(rng, mode, octets, params=P64):
    return OneTimeKey(mode, rng.randbytes(required_key_octets(mode, octets, params)))


def protect_for(rng, message, mode=ProtectionMode.SIGNATURE):
    key = make_key(rng, mode, len(message))
    reg = protect_register(message, rng.getrandbits(64), key, P64)
    return reg, OneTimeKey(mode, key.bits)


class TestHostIds:
    def test_round_trip(self):
        assert host_label(host_id("alpha")) == "alpha"
        assert len(host_id("a")) == 8

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            host_id("")
        with pytest.raises(ValueError):
            host_id("much-too-long")
        with pytest.raises(ValueError):
            host_id("alpha\x00")  # would read back as "alpha"


class TestMessageWire:
    def test_agent_transfer(self):
        area = AgentDataArea(AGENT)
        raw = encode_agent_transfer(area, P64)
        assert raw == AGENT + b"\x00\x00\x00\x00"
        assert decode_agent_transfer(raw, P64) == area

    def test_route_log_entry(self):
        raw = encode_route_log_entry((AGENT, ALPHA), P64)
        assert len(raw) == 24
        assert decode_route_log_entry(raw, P64) == (AGENT, ALPHA)

    def test_route_query_and_answer(self):
        assert decode_agent_id(encode_agent_id(AGENT, P64), P64) == AGENT
        for hosts in ((), (ALPHA,), (ALPHA, BETA, ALPHA)):
            assert decode_route_answer(encode_route_answer(hosts, P64), P64) == hosts

    def test_key_request_and_response(self):
        assert decode_agent_id(encode_agent_id(AGENT, P64), P64) == AGENT
        rng = random.Random(1)
        keys = (
            make_key(rng, ProtectionMode.SIGNATURE, 0),
            make_key(rng, ProtectionMode.ENCRYPTION, 21),
        )
        decoded = decode_key_response(encode_key_response(keys, P64), P64)
        assert [k.bits for k in decoded] == [k.bits for k in keys]
        assert [k.mode for k in decoded] == [k.mode for k in keys]
        assert decode_key_response(encode_key_response((), P64), P64) == ()


class TestGoldenMessageImages:
    """The exact octets of every message kind the bus carries in one fixed run.

    alpha signs and idles on its revisit, beta encrypts and also surrenders a
    bogus signature key, so the returned data area holds one register of each
    mode, the route answer repeats a host, and beta's key response holds one
    key of each mode. The images are recorded as the bus encodes them.
    """

    AGENT = "5bf82fcd810d1892c986af425861c27b"  # minted from seed 2024
    # mode, length, data field, masked codeword, masked digest
    SIGNED = "01" "00000006" "7369676e65640000" "16db4f8c3880ee86" "e8cb24c83ba60dec"
    SEALED = "02" "00000006" "6499ced68ebdb65a" "0b95715825613667" "0f5488c028d8e17c"
    ALPHA = "616c706861000000"
    BETA = "6265746100000000"
    ALPHA_KEY = "01" "00000080" "a7bca9e2497bf6da0e9d64c83c909b9a"
    BETA_KEYS = (
        "02" "000000c0" "07b2eed68d269d5162156e208931bffc6c7fa8c02b43ca77",
        "01" "00000080" "2b0871477c2ea5ad46cf671942e96b28",
    )

    def test_every_message_kind_pinned(self, monkeypatch):
        images = {}
        for kind, (encode, decode) in list(MESSAGE_CODECS.items()):

            def recording(*args, kind=kind, encode=encode):
                raw = encode(*args)
                images.setdefault(kind, []).append(raw.hex())
                return raw

            monkeypatch.setitem(MESSAGE_CODECS, kind, (recording, decode))
        scenario = Scenario(
            params=P64,
            seed=2024,
            agent_server="server",
            route_servers=("rs",),
            hosts=(
                HostConfig("alpha", payload=b"signed", revisit="idle"),
                HostConfig(
                    "beta", BehaviorProfile("orphan_key"), b"sealed", ProtectionMode.ENCRYPTION
                ),
            ),
            route=("alpha", "beta", "alpha"),
        )
        run_scenario(scenario)
        agent, signed, sealed = self.AGENT, self.SIGNED, self.SEALED
        assert images == {
            "agent_transfer": [
                agent + "00000000",
                agent + "00000001" + signed,
                agent + "00000002" + signed + sealed,
                agent + "00000002" + signed + sealed,
            ],
            "route_log": [agent + self.ALPHA, agent + self.BETA, agent + self.ALPHA],
            "route_query": [agent],
            "route_answer": ["00000003" + self.ALPHA + self.BETA + self.ALPHA],
            "key_request": [agent, agent],
            "key_response": [
                "00000001" + self.ALPHA_KEY,
                "00000002" + "".join(self.BETA_KEYS),
            ],
        }


def sample_messages():
    """(kind, value) for every message kind, each list holding several items."""
    rng = random.Random(5)
    registers = (
        protect_for(rng, b"signed")[0],
        protect_for(rng, b"sealed", ProtectionMode.ENCRYPTION)[0],
    )
    keys = (make_key(rng, SIG, 0), make_key(rng, ProtectionMode.ENCRYPTION, 21))
    return [
        ("agent_transfer", AgentDataArea(AGENT, registers)),
        ("route_log", (AGENT, ALPHA)),
        ("route_query", AGENT),
        ("route_answer", (ALPHA, BETA, ALPHA)),
        ("key_request", AGENT),
        ("key_response", keys),
    ]


SAMPLES = sample_messages()


@st.composite
def mutated_images(draw):
    """Random octets, or a valid image with bits flipped, cut short or extended."""
    kind, value = draw(st.sampled_from(SAMPLES))
    raw = bytearray(MESSAGE_CODECS[kind][0](value, P64))
    how = draw(st.sampled_from(("random", "flip", "truncate", "append")))
    if how == "random":
        return draw(st.binary(max_size=100))
    if how == "flip":
        for bit in draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3)):
            raw[bit // 8] ^= 0x80 >> bit % 8
        return bytes(raw)
    if how == "truncate":
        return bytes(raw[: draw(st.integers(0, len(raw)))])
    return bytes(raw) + draw(st.binary(min_size=1, max_size=12))


class TestMessageDecodeRobustness:
    """Every decoder in ``MESSAGE_CODECS`` is total and exact: any octets
    either fail with a CodecError or decode to a value that re-encodes to
    those very octets."""

    def test_samples_cover_the_table(self):
        assert [kind for kind, _ in SAMPLES] == list(MESSAGE_CODECS)

    @pytest.mark.parametrize("kind, value", SAMPLES, ids=[kind for kind, _ in SAMPLES])
    def test_round_trip_and_exact_length(self, kind, value):
        encode, decode = MESSAGE_CODECS[kind]
        raw = encode(value, P64)
        assert decode(raw, P64) == value
        for end in range(len(raw)):
            with pytest.raises(TruncatedError):
                decode(raw[:end], P64)
        with pytest.raises(TrailingGarbageError):
            decode(raw + b"\x00", P64)

    @given(mutated_images(), st.sampled_from([CipherParams(8), P64]))
    @settings(max_examples=600)
    def test_fuzzed_decoders(self, raw, params):
        for encode, decode in MESSAGE_CODECS.values():
            try:
                value = decode(raw, params)
            except CodecError:
                continue
            assert encode(value, params) == raw


class TestRouteServer:
    def test_merge_route_answers(self):
        agreed = (ALPHA, BETA)
        assert merge_route_answers([agreed, (ALPHA, BETA)]) is agreed
        assert merge_route_answers([(ALPHA,), (BETA,)]) is None
        assert merge_route_answers([agreed, agreed, (ALPHA,)]) is None
        assert merge_route_answers([]) is None


class TestDispatch:
    def test_fresh_agent_ids(self):
        server = AgentServerState(random.Random(3))
        area1 = server_dispatch(server)
        area2 = server_dispatch(server)
        assert area1.agent != area2.agent
        assert area1.registers == ()


class TestHostVisits:
    def test_fresh_append(self):
        host = fresh_host("alpha", 4)
        area = AgentDataArea(AGENT)
        area = host_handle_agent(host, area, "append", b"hello", ProtectionMode.SIGNATURE, P64)
        assert len(area.registers) == 1
        assert len(host.keystore[AGENT]) == 1

    def test_revisit_edit_swaps_key(self):
        host = fresh_host("alpha", 5)
        area = AgentDataArea(AGENT)
        area = host_handle_agent(host, area, "append", b"v1", ProtectionMode.SIGNATURE, P64)
        old_key = OneTimeKey(ProtectionMode.SIGNATURE, host.keystore[AGENT][0].bits)
        area = host_handle_agent(host, area, "edit", b"v2", ProtectionMode.SIGNATURE, P64)
        assert len(area.registers) == 1
        assert len(host.keystore[AGENT]) == 1
        assert host.keystore[AGENT][0].bits != old_key.bits
        assert not check_register(area.registers[0], old_key, P64).valid
        assert check_register(area.registers[0], host.keystore[AGENT][0], P64).valid
        assert area.registers[0].data_field[:2] == b"v2"

    def test_revisit_remove_clears_key(self):
        host = fresh_host("alpha", 6)
        area = AgentDataArea(AGENT)
        area = host_handle_agent(host, area, "append", b"v1", ProtectionMode.SIGNATURE, P64)
        area = host_handle_agent(host, area, "remove", None, ProtectionMode.SIGNATURE, P64)
        assert area.registers == ()
        assert host.keystore == {AGENT: []}

    def test_idle_logs_but_contributes_nothing(self):
        # the simulator logs every visit, idle ones included (see
        # test_simulator's TestRouteLogging)
        host = fresh_host("alpha", 7)
        area = host_handle_agent(
            host, AgentDataArea(AGENT), "idle", None, ProtectionMode.SIGNATURE, P64
        )
        assert area.registers == ()
        assert host.keystore == {}

    def test_edit_replaces_only_own_register(self):
        # foreign registers on both sides of the host's own one
        rng = random.Random(15)
        host = fresh_host("alpha", 16)
        left = tuple(protect_for(rng, bytes([i]) * 4)[0] for i in range(2))
        right = tuple(protect_for(rng, bytes([i]) * 5, ProtectionMode.ENCRYPTION)[0] for i in range(2))
        area = host_handle_agent(host, AgentDataArea(AGENT, left), "append", b"v0", SIG, P64)
        area = AgentDataArea(AGENT, area.registers + right)
        foreign = [encode_register(reg, P64) for reg in left + right]
        old_key = OneTimeKey(SIG, host.keystore[AGENT][0].bits)
        area = host_handle_agent(host, area, "edit", b"fresh", SIG, P64)
        others = area.registers[:2] + area.registers[3:]
        assert [encode_register(reg, P64) for reg in others] == foreign
        (new_key,) = host.keystore[AGENT]
        assert check_register(area.registers[2], new_key, P64).valid
        assert area.registers[2].data_field[:5] == b"fresh"
        assert not check_register(area.registers[2], old_key, P64).valid

    def test_repeated_edits_each_reject_the_previous_key(self):
        rng = random.Random(17)
        host = fresh_host("alpha", 18)
        foreign, _ = protect_for(rng, b"foreign")
        area = host_handle_agent(host, AgentDataArea(AGENT, (foreign,)), "append", b"v0", SIG, P64)
        for _ in range(1000):
            old_key = OneTimeKey(SIG, host.keystore[AGENT][0].bits)
            area = host_handle_agent(host, area, "edit", rng.randbytes(6), SIG, P64)
            assert area.registers[0] == foreign
            assert not check_register(area.registers[1], old_key, P64).valid
            assert check_register(area.registers[1], host.keystore[AGENT][0], P64).valid

    def test_remove_keeps_the_rest_in_order(self):
        rng = random.Random(19)
        host = fresh_host("alpha", 20)
        left = tuple(protect_for(rng, bytes([i]) * 3)[0] for i in range(2))
        right = tuple(protect_for(rng, bytes([i]) * 7)[0] for i in range(3))
        area = host_handle_agent(host, AgentDataArea(AGENT, left), "append", b"mine", SIG, P64)
        area = AgentDataArea(AGENT, area.registers + right)
        area = host_handle_agent(host, area, "remove", None, SIG, P64)
        assert area.registers == left + right
        assert host.keystore == {AGENT: []}

    def test_unknown_action_rejected(self):
        host = fresh_host("alpha", 21)
        with pytest.raises(ValueError, match="unknown visit action 'rename'"):
            host_handle_agent(host, AgentDataArea(AGENT), "rename", b"x", SIG, P64)
        assert host.keystore == {}

    @pytest.mark.parametrize("action", ["append", "edit"])
    def test_missing_payload_rejected(self, action):
        host = fresh_host("alpha", 22)
        with pytest.raises(ValueError, match=f"{action} needs a payload"):
            host_handle_agent(host, AgentDataArea(AGENT), action, None, SIG, P64)
        assert host.keystore == {}

    def test_gen_key_checked_against_current_area(self):
        # a key that would validate a foreign register must be redrawn; rig the
        # host rng so the first draw is exactly the foreign key
        foreign_rng = random.Random(8)
        reg, foreign_key = protect_for(foreign_rng, b"foreign")

        class FirstCollides:
            def __init__(self, collide):
                self.collide = collide
                self.fallback = random.Random(9)
                self.draws = 0

            def randbytes(self, n):
                self.draws += 1
                if self.draws == 1:
                    assert len(self.collide) == n
                    return self.collide
                return self.fallback.randbytes(n)

            def getrandbits(self, k):
                return self.fallback.getrandbits(k)

        host = PeerHostState(ALPHA, FirstCollides(foreign_key.bits))
        area = AgentDataArea(AGENT, (reg,))
        area = host_handle_agent(host, area, "append", b"mine-ok", ProtectionMode.SIGNATURE, P64)
        assert host.keystore[AGENT][0].bits != foreign_key.bits


class TestSendKeys:
    def test_drain_once(self):
        host = fresh_host("alpha", 10)
        host_handle_agent(
            host, AgentDataArea(AGENT), "append", b"x", ProtectionMode.SIGNATURE, P64
        )
        response = host_send_keys(host, AGENT)
        assert len(response) == 1
        assert host.keystore == {}
        second = host_send_keys(host, AGENT)
        assert second == ()

    def test_other_agents_keys_survive(self):
        host = fresh_host("alpha", 11)
        other = bytes(16)
        host_handle_agent(
            host, AgentDataArea(AGENT), "append", b"x", ProtectionMode.SIGNATURE, P64
        )
        host_handle_agent(
            host, AgentDataArea(other), "append", b"y", ProtectionMode.SIGNATURE, P64
        )
        response = host_send_keys(host, AGENT)
        assert len(response) == 1
        assert list(host.keystore) == [other]
        assert len(host.keystore[other]) == 1


def honest_area(rng, owners_payloads):
    """Area plus per-host key map built outside the simulator, for reconcile tests."""
    area = AgentDataArea(AGENT)
    responses = {}
    for hid, payload, mode in owners_payloads:
        key = make_key(rng, mode, len(payload))
        reg = protect_register(payload, rng.getrandbits(64), key, P64)
        area = AgentDataArea(AGENT, area.registers + (reg,))
        responses.setdefault(hid, []).append(OneTimeKey(mode, key.bits))
    return area, responses


class TestReconcile:
    def setup_method(self):
        self.rng = random.Random(12)
        self.server = AgentServerState(random.Random(13))

    def test_honest_three_hosts(self):
        area, responses = honest_area(
            self.rng,
            [
                (ALPHA, b"a-data", ProtectionMode.SIGNATURE),
                (BETA, b"b-secret", ProtectionMode.ENCRYPTION),
                (GAMMA, b"c-data", ProtectionMode.SIGNATURE),
            ],
        )
        report = server_reconcile(self.server, AGENT, area, responses, [ALPHA, BETA, GAMMA], P64)
        assert report.verdict is Verdict.ACCEPT
        assert report.attribution == ((0, ALPHA), (1, BETA), (2, GAMMA))
        assert report.plaintexts == {1: b"b-secret"}

    def test_erased_register_leaves_orphan_key(self):
        area, responses = honest_area(
            self.rng,
            [(ALPHA, b"victim", ProtectionMode.SIGNATURE), (BETA, b"other", ProtectionMode.SIGNATURE)],
        )
        tampered = AgentDataArea(AGENT, area.registers[1:])
        report = server_reconcile(self.server, AGENT, tampered, responses, [ALPHA, BETA], P64)
        assert report.verdict is Verdict.DISCARD
        assert report.reason is DiscardReason.ORPHAN_KEY
        assert report.attribution == ()

    def test_injected_register_is_unmatched(self):
        area, responses = honest_area(self.rng, [(ALPHA, b"real", ProtectionMode.SIGNATURE)])
        fake, _ = protect_for(self.rng, b"injected")
        area = AgentDataArea(AGENT, area.registers + (fake,))
        report = server_reconcile(self.server, AGENT, area, responses, [ALPHA], P64)
        assert report.verdict is Verdict.DISCARD
        assert report.reason is DiscardReason.UNMATCHED_REGISTER

    def test_orphan_precedes_unmatched(self):
        area, responses = honest_area(self.rng, [(ALPHA, b"victim", ProtectionMode.SIGNATURE)])
        fake, _ = protect_for(self.rng, b"injected")
        tampered = AgentDataArea(AGENT, (fake,))
        report = server_reconcile(self.server, AGENT, tampered, responses, [ALPHA], P64)
        assert report.reason is DiscardReason.ORPHAN_KEY

    def test_duplicate_match_same_key_two_registers(self):
        bits = self.rng.randbytes(16)
        cw = self.rng.getrandbits(64)
        area = AgentDataArea(AGENT)
        for _ in range(2):
            key = OneTimeKey(ProtectionMode.SIGNATURE, bits)
            reg = protect_register(b"twice", cw, key, P64)
            area = AgentDataArea(AGENT, area.registers + (reg,))
        responses = {
            ALPHA: [OneTimeKey(ProtectionMode.SIGNATURE, bits)],
            BETA: [OneTimeKey(ProtectionMode.SIGNATURE, bits)],
        }
        report = server_reconcile(self.server, AGENT, area, responses, [ALPHA, BETA], P64)
        assert report.verdict is Verdict.DISCARD
        assert report.reason is DiscardReason.DUPLICATE_MATCH

    def test_duplicate_match_two_keys_one_register(self):
        # two hosts surrender the same bits for one register: only the
        # register side shows the duplicate, since each key matches once
        bits = self.rng.randbytes(16)
        reg = protect_register(
            b"once", self.rng.getrandbits(64), OneTimeKey(ProtectionMode.SIGNATURE, bits), P64
        )
        area = AgentDataArea(AGENT, (reg,))
        responses = {
            ALPHA: [OneTimeKey(ProtectionMode.SIGNATURE, bits)],
            BETA: [OneTimeKey(ProtectionMode.SIGNATURE, bits)],
        }
        report = server_reconcile(self.server, AGENT, area, responses, [ALPHA, BETA], P64)
        assert report.verdict is Verdict.DISCARD
        assert report.reason is DiscardReason.DUPLICATE_MATCH

    def test_route_mismatch_for_unlogged_contributor(self):
        area, responses = honest_area(
            self.rng,
            [(ALPHA, b"a", ProtectionMode.SIGNATURE), (BETA, b"b", ProtectionMode.SIGNATURE)],
        )
        report = server_reconcile(self.server, AGENT, area, responses, [ALPHA], P64)
        assert report.verdict is Verdict.DISCARD
        assert report.reason is DiscardReason.ROUTE_MISMATCH

    def test_host_without_keys_is_legal(self):
        area, responses = honest_area(self.rng, [(ALPHA, b"only", ProtectionMode.SIGNATURE)])
        responses[BETA] = []
        report = server_reconcile(self.server, AGENT, area, responses, [ALPHA, BETA], P64)
        assert report.verdict is Verdict.ACCEPT

    def test_removal_then_empty_response_accepts(self):
        # beta contributed, then removed its register and deleted the key
        beta = fresh_host("beta", 14)
        area, responses = honest_area(self.rng, [(ALPHA, b"kept", ProtectionMode.SIGNATURE)])
        area = host_handle_agent(beta, area, "append", b"gone", ProtectionMode.SIGNATURE, P64)
        area = host_handle_agent(beta, area, "remove", None, ProtectionMode.SIGNATURE, P64)
        response = host_send_keys(beta, AGENT)
        responses[BETA] = list(response)
        report = server_reconcile(self.server, AGENT, area, responses, [ALPHA, BETA, BETA], P64)
        assert report.verdict is Verdict.ACCEPT
        assert report.attribution == ((0, ALPHA),)


class TestAreaLevelEdits:
    """Edits one host can make to a whole three-register data area.

    Registers carry no position or agent id, and the server accepts only a
    one-to-one match of surrendered keys and registers, so each verdict
    follows from the match rules:
    - a reorder keeps every key–register pair, so it is accepted, with the
      attribution permuted to match;
    - a duplicated register is validated by its key twice: DUPLICATE_MATCH;
    - a dropped register leaves its key validating nothing: ORPHAN_KEY;
    - another agent's register, appended, is validated by no surrendered
      key: UNMATCHED_REGISTER;
    - replacing a register by another agent's leaves the replaced one's key
      validating nothing, and orphan keys are reported first: ORPHAN_KEY.
    """

    CONTRIBUTIONS = (
        (ALPHA, b"alpha-data", ProtectionMode.SIGNATURE),
        (BETA, b"beta-secret", ProtectionMode.ENCRYPTION),
        (GAMMA, b"gamma-data", ProtectionMode.SIGNATURE),
    )

    def seeded(self, width):
        """The registers and key responses of an honest run, plus a register
        that a fourth host protected for another agent."""
        params = CipherParams(width)
        area, responses = AgentDataArea(AGENT), {}
        for hid, payload, mode in self.CONTRIBUTIONS:
            host = PeerHostState(hid, random.Random(hid + bytes([width])))
            area = host_handle_agent(host, area, "append", payload, mode, params)
            responses[hid] = list(host_send_keys(host, AGENT))
        other = host_handle_agent(
            fresh_host("delta", width), AgentDataArea(bytes(16)), "append", b"elsewhere", SIG, params
        )
        foreign = other.registers[0]
        # at W=8 a key validates a register not its own with chance 2^-8, which
        # would change the verdicts above; in these areas no key does
        keys = [key for hid, _, _ in self.CONTRIBUTIONS for key in responses[hid]]
        assert [
            [check_register(reg, key, params).valid for reg in (*area.registers, foreign)]
            for key in keys
        ] == [[ki == ri for ri in range(4)] for ki in range(3)]
        return params, list(area.registers), responses, foreign

    def reconcile(self, params, registers, responses):
        area = AgentDataArea(AGENT, tuple(registers))
        route = [hid for hid, _, _ in self.CONTRIBUTIONS]
        return server_reconcile(AgentServerState(random.Random(0)), AGENT, area, responses, route, params)

    @pytest.mark.parametrize("width", [8, 64])
    def test_every_reorder_accepts_with_permuted_attribution(self, width):
        params, registers, responses, _ = self.seeded(width)
        for order in itertools.permutations(range(3)):
            report = self.reconcile(params, [registers[i] for i in order], responses)
            assert report.verdict is Verdict.ACCEPT, order
            assert report.attribution == tuple(
                (ri, self.CONTRIBUTIONS[i][0]) for ri, i in enumerate(order)
            )
            assert report.plaintexts == {order.index(1): b"beta-secret"}

    @pytest.mark.parametrize("width", [8, 64])
    def test_duplicated_register_is_a_duplicate_match(self, width):
        params, registers, responses, _ = self.seeded(width)
        for i in range(3):
            for at in range(4):
                edited = registers[:at] + [registers[i]] + registers[at:]
                report = self.reconcile(params, edited, responses)
                assert report.reason is DiscardReason.DUPLICATE_MATCH, (i, at)

    @pytest.mark.parametrize("width", [8, 64])
    def test_dropped_register_orphans_its_key(self, width):
        params, registers, responses, _ = self.seeded(width)
        for i in range(3):
            report = self.reconcile(params, registers[:i] + registers[i + 1 :], responses)
            assert report.reason is DiscardReason.ORPHAN_KEY, i

    @pytest.mark.parametrize("width", [8, 64])
    def test_appended_foreign_register_is_unmatched(self, width):
        params, registers, responses, foreign = self.seeded(width)
        for at in range(4):
            report = self.reconcile(params, registers[:at] + [foreign] + registers[at:], responses)
            assert report.reason is DiscardReason.UNMATCHED_REGISTER, at

    @pytest.mark.parametrize("width", [8, 64])
    def test_register_replaced_by_a_foreign_one_orphans_its_key(self, width):
        params, registers, responses, foreign = self.seeded(width)
        for i in range(3):
            edited = registers[:i] + [foreign] + registers[i + 1 :]
            report = self.reconcile(params, edited, responses)
            assert report.reason is DiscardReason.ORPHAN_KEY, i


class TestReconcileMatchesReference:
    """server_reconcile against the all-pairs loop in tests/oracles.py."""

    HOSTS = tuple(host_id(f"h{i}") for i in range(4))

    def random_case(self, rng):
        """Up to five registers with dropped, doubled and extra keys, repeated
        registers and partial routes, at a width where stray matches occur."""
        params = CipherParams(rng.choice((8, 16)))
        registers, responses = [], {}
        for _ in range(rng.randrange(6)):
            if registers and rng.random() < 0.1:
                registers.append(rng.choice(registers))
                continue
            mode = rng.choice((ProtectionMode.SIGNATURE, ProtectionMode.ENCRYPTION))
            payload = rng.randbytes(rng.randrange(5))
            bits = rng.randbytes(required_key_octets(mode, len(payload), params))
            cw = rng.getrandbits(params.block_width_bits)
            registers.append(protect_register(payload, cw, OneTimeKey(mode, bits), params))
            if rng.random() < 0.1:
                continue  # the key is dropped
            for hid in rng.sample(self.HOSTS, 2 if rng.random() < 0.1 else 1):
                responses.setdefault(hid, []).append(OneTimeKey(mode, bits))
        while rng.random() < 0.15:
            bits = rng.randbytes(params.signature_width_bits // 8)
            responses.setdefault(rng.choice(self.HOSTS), []).append(
                OneTimeKey(ProtectionMode.SIGNATURE, bits)
            )
        route = [hid for hid in self.HOSTS if hid in responses or rng.random() < 0.3]
        if responses and rng.random() < 0.1:
            route.remove(rng.choice(list(responses)))
        return params, AgentDataArea(AGENT, tuple(registers)), responses, route

    def test_seeded_cases_match_reference(self):
        server = AgentServerState(random.Random(0))
        outcomes = {}
        for seed in range(3000):
            params, area, responses, route = self.random_case(random.Random(seed))
            report = server_reconcile(server, AGENT, area, responses, route, params)
            got = (
                report.verdict.value,
                report.reason.value if report.reason else None,
                report.attribution,
                report.plaintexts,
            )
            expected = reconcile_reference(
                area.registers, responses, route, lambda reg, key: check_register(reg, key, params)
            )
            assert got == expected, f"seed {seed}"
            outcome = got[1] or got[0]
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        assert set(outcomes) == {
            "accept", "orphan_key", "unmatched_register", "duplicate_match", "route_mismatch"
        }, outcomes


class TestHonestDiscardsAtW8:
    """Honest runs at W=8 are discarded as duplicate matches at a pinned rate.

    gen_key refuses a key that validates a register already in the area, but
    a later host cannot see an earlier host's key, and a random key validates
    a given signature register with probability 2^-W. Each of n hosts appends
    once, so key i owns register i, and any other validating pair is a
    stray match that discards the run.
    """

    P8 = CipherParams(8)
    SEEDS = range(100)

    def run(self, seed, hosts, mixed):
        rng = random.Random(seed)
        area = AgentDataArea(AGENT)
        responses = {}
        for i in range(hosts):
            host = PeerHostState(host_id(f"h{i}"), rng)
            mode = rng.choice(list(ProtectionMode)) if mixed else SIG
            payload = rng.randbytes(rng.randrange(1, 9))
            area = host_handle_agent(host, area, "append", payload, mode, self.P8)
            responses[host.id] = list(host_send_keys(host, AGENT))
        report = server_reconcile(
            AgentServerState(rng), AGENT, area, responses, list(responses), self.P8
        )
        keys = [key for keys in responses.values() for key in keys]
        pairs = match_reference(
            area.registers, keys, lambda reg, key: check_register(reg, key, self.P8)
        )
        return report, [(r, k) for r, k in pairs if r != k]

    # (hosts, modes drawn at random, runs in SEEDS with a stray match, counted
    # from match_reference)
    @pytest.mark.parametrize(
        "hosts, mixed, discards", [(10, False, 14), (20, False, 45), (20, True, 15)]
    )
    def test_stray_matches_are_the_discards(self, hosts, mixed, discards):
        stray_runs = 0
        for seed in self.SEEDS:
            report, stray = self.run(seed, hosts, mixed)
            if stray:
                stray_runs += 1
                assert report.reason is DiscardReason.DUPLICATE_MATCH, f"seed {seed}"
            else:
                assert (report.verdict, report.reason) == (Verdict.ACCEPT, None), f"seed {seed}"
            # the key was drawn before the register it also validates was added
            assert all(r > k for r, k in stray), f"seed {seed}: {stray}"
        assert stray_runs == discards
