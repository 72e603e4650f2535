"""Role state machines: key lifecycle, route logging, reconciliation."""

import random

import pytest

from agentpad.cipher import (
    CipherParams,
    OneTimeKey,
    ProtectionMode,
    check_register,
    protect_register,
    required_key_octets,
)
from agentpad.codec import AgentDataArea, encode_register
from agentpad.protocol import (
    AgentServerState,
    AgentTransfer,
    DiscardReason,
    EmptyRouteError,
    KeyRequest,
    KeyResponse,
    PeerHostState,
    RouteAnswer,
    RouteLogEntry,
    RouteQuery,
    RouteServerState,
    Verdict,
    decode_agent_transfer,
    decode_key_request,
    decode_key_response,
    decode_route_answer,
    decode_route_log_entry,
    decode_route_query,
    encode_agent_transfer,
    encode_key_request,
    encode_key_response,
    encode_route_answer,
    encode_route_log_entry,
    encode_route_query,
    host_handle_agent,
    host_id,
    host_label,
    host_send_keys,
    merge_route_answers,
    route_get,
    route_log_visit,
    server_dispatch,
    server_reconcile,
)
from oracles import reconcile_reference

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
        msg = AgentTransfer(AGENT, b"\x00\x00\x00\x00")
        assert decode_agent_transfer(encode_agent_transfer(msg)) == msg

    def test_route_log_entry(self):
        msg = RouteLogEntry(AGENT, ALPHA)
        raw = encode_route_log_entry(msg)
        assert len(raw) == 24
        assert decode_route_log_entry(raw) == msg

    def test_route_query_and_answer(self):
        assert decode_route_query(encode_route_query(RouteQuery(AGENT))) == RouteQuery(AGENT)
        for hosts in ((), (ALPHA,), (ALPHA, BETA, ALPHA)):
            msg = RouteAnswer(hosts)
            assert decode_route_answer(encode_route_answer(msg)) == msg

    def test_key_request_and_response(self):
        assert decode_key_request(encode_key_request(KeyRequest(AGENT))) == KeyRequest(AGENT)
        rng = random.Random(1)
        keys = (
            make_key(rng, ProtectionMode.SIGNATURE, 0),
            make_key(rng, ProtectionMode.ENCRYPTION, 21),
        )
        decoded = decode_key_response(encode_key_response(KeyResponse(keys)))
        assert [k.bits for k in decoded.keys] == [k.bits for k in keys]
        assert [k.mode for k in decoded.keys] == [k.mode for k in keys]
        assert decode_key_response(encode_key_response(KeyResponse(()))).keys == ()


class TestMessageDecodeRobustness:
    """Arbitrary octets either decode or fail with a CodecError, never worse."""

    def test_fuzzed_decoders(self):
        from agentpad.codec import CodecError
        from hypothesis import given, settings, strategies as st

        decoders = (
            decode_agent_transfer,
            decode_route_log_entry,
            decode_route_query,
            decode_route_answer,
            decode_key_request,
            decode_key_response,
        )

        @given(st.binary(max_size=100))
        @settings(max_examples=300)
        def fuzz(raw):
            for decode in decoders:
                try:
                    decode(raw)
                except CodecError:
                    pass

        fuzz()


class TestRouteServer:
    def test_sequence_numbers(self):
        rs = RouteServerState()
        route_log_visit(rs, AGENT, ALPHA)
        assert route_get(rs, AGENT) == [ALPHA]
        route_log_visit(rs, AGENT, BETA)
        route_log_visit(rs, AGENT, ALPHA)
        assert route_get(rs, AGENT) == [ALPHA, BETA, ALPHA]

    def test_interleaved_agents_independent(self):
        rs = RouteServerState()
        other = bytes(16)
        route_log_visit(rs, AGENT, ALPHA)
        route_log_visit(rs, other, BETA)
        route_log_visit(rs, AGENT, GAMMA)
        assert route_get(rs, AGENT) == [ALPHA, GAMMA]
        assert route_get(rs, other) == [BETA]

    def test_unknown_agent_empty(self):
        assert route_get(RouteServerState(), AGENT) == []

    def test_identical_feeds_identical_answers(self):
        a, b = RouteServerState(), RouteServerState()
        for hid in (ALPHA, BETA, ALPHA):
            route_log_visit(a, AGENT, hid)
            route_log_visit(b, AGENT, hid)
        assert route_get(a, AGENT) == route_get(b, AGENT)

    def test_merge_route_answers(self):
        assert merge_route_answers([[ALPHA, BETA], [ALPHA, BETA]]) == [ALPHA, BETA]
        assert merge_route_answers([[ALPHA], [BETA]]) is None
        assert merge_route_answers([]) is None


class TestDispatch:
    def test_empty_route_rejected(self):
        server = AgentServerState(random.Random(2))
        with pytest.raises(EmptyRouteError):
            server_dispatch(server, [])

    def test_fresh_agent_ids(self):
        server = AgentServerState(random.Random(3))
        area1 = server_dispatch(server, [ALPHA])
        area2 = server_dispatch(server, [ALPHA])
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
        assert len(response.keys) == 1
        assert host.keystore == {}
        second = host_send_keys(host, AGENT)
        assert second.keys == ()

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
        assert len(response.keys) == 1
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
        responses[BETA] = list(response.keys)
        report = server_reconcile(self.server, AGENT, area, responses, [ALPHA, BETA, BETA], P64)
        assert report.verdict is Verdict.ACCEPT
        assert report.attribution == ((0, ALPHA),)


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
