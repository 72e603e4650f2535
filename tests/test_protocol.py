"""Role state machines: key lifecycle, route logging, reconciliation."""

import random

import pytest

from agentpad.cipher import (
    CipherParams,
    OneTimeKey,
    ProtectionMode,
    protect_register,
    required_key_octets,
)
from agentpad.codec import AgentDataArea, append_register
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
    VisitIntent,
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

P64 = CipherParams(64)
AGENT = bytes(range(16))
ALPHA, BETA, GAMMA = host_id("alpha"), host_id("beta"), host_id("gamma")


def fresh_host(label, seed):
    return PeerHostState(host_id(label), random.Random(seed))


def make_key(rng, mode, octets, params=P64, owner=b""):
    return OneTimeKey(mode, rng.randbytes(required_key_octets(mode, octets, params)), owner)


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
        decoded = decode_key_response(encode_key_response(KeyResponse(keys)), owner=ALPHA)
        assert [k.bits for k in decoded.keys] == [k.bits for k in keys]
        assert [k.mode for k in decoded.keys] == [k.mode for k in keys]
        assert all(k.owner == ALPHA for k in decoded.keys)
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
        assert rs.logs[AGENT] == [(1, ALPHA)]
        route_log_visit(rs, AGENT, ALPHA)
        assert rs.logs[AGENT] == [(1, ALPHA), (2, ALPHA)]

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
        server = AgentServerState(host_id("server"), random.Random(2))
        with pytest.raises(EmptyRouteError):
            server_dispatch(server, [], [host_id("rs1")])

    def test_fresh_agent_ids(self):
        server = AgentServerState(host_id("server"), random.Random(3))
        _, area1 = server_dispatch(server, [ALPHA], [host_id("rs1")])
        _, area2 = server_dispatch(server, [ALPHA], [host_id("rs1")])
        assert area1.agent != area2.agent
        assert area1.registers == ()
        assert server.dispatched[area1.agent].route == (ALPHA,)


class TestHostVisits:
    def test_fresh_append(self):
        host = fresh_host("alpha", 4)
        area = AgentDataArea(AGENT)
        host, area = host_handle_agent(
            host, area, VisitIntent("append", b"hello"), ProtectionMode.SIGNATURE, P64
        )
        assert len(area.registers) == 1
        assert len(host.keystore) == 1

    def test_revisit_edit_swaps_key(self):
        host = fresh_host("alpha", 5)
        area = AgentDataArea(AGENT)
        host, area = host_handle_agent(
            host, area, VisitIntent("append", b"v1"), ProtectionMode.SIGNATURE, P64
        )
        old_key = OneTimeKey(ProtectionMode.SIGNATURE, host.keystore[0].key.bits)
        host, area = host_handle_agent(
            host, area, VisitIntent("edit", b"v2"), ProtectionMode.SIGNATURE, P64
        )
        assert len(area.registers) == 1
        assert len(host.keystore) == 1
        assert host.keystore[0].key.bits != old_key.bits
        from agentpad.cipher import check_register

        assert not check_register(area.registers[0], old_key, P64).valid
        assert check_register(area.registers[0], host.keystore[0].key, P64).valid
        assert area.registers[0].data_field[:2] == b"v2"

    def test_revisit_remove_clears_key(self):
        host = fresh_host("alpha", 6)
        area = AgentDataArea(AGENT)
        host, area = host_handle_agent(
            host, area, VisitIntent("append", b"v1"), ProtectionMode.SIGNATURE, P64
        )
        host, area = host_handle_agent(
            host, area, VisitIntent("remove"), ProtectionMode.SIGNATURE, P64
        )
        assert area.registers == ()
        assert host.keystore == []

    def test_idle_logs_but_contributes_nothing(self):
        # the simulator logs every visit, idle ones included (see
        # test_simulator's TestRouteLogging)
        host = fresh_host("alpha", 7)
        host, area = host_handle_agent(
            host, AgentDataArea(AGENT), VisitIntent("idle"), ProtectionMode.SIGNATURE, P64
        )
        assert area.registers == ()
        assert host.keystore == []

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
        area = append_register(AgentDataArea(AGENT), reg)
        host, area = host_handle_agent(
            host, area, VisitIntent("append", b"mine-ok"), ProtectionMode.SIGNATURE, P64
        )
        assert host.keystore[0].key.bits != foreign_key.bits


class TestSendKeys:
    def test_drain_once(self):
        host = fresh_host("alpha", 10)
        host, _ = host_handle_agent(
            host, AgentDataArea(AGENT), VisitIntent("append", b"x"), ProtectionMode.SIGNATURE, P64
        )
        host, response = host_send_keys(host, AGENT)
        assert len(response.keys) == 1
        assert host.keystore == []
        host, second = host_send_keys(host, AGENT)
        assert second.keys == ()

    def test_other_agents_keys_survive(self):
        host = fresh_host("alpha", 11)
        other = bytes(16)
        host, _ = host_handle_agent(
            host, AgentDataArea(AGENT), VisitIntent("append", b"x"), ProtectionMode.SIGNATURE, P64
        )
        host, _ = host_handle_agent(
            host, AgentDataArea(other), VisitIntent("append", b"y"), ProtectionMode.SIGNATURE, P64
        )
        host, response = host_send_keys(host, AGENT)
        assert len(response.keys) == 1
        assert len(host.keystore) == 1
        assert host.keystore[0].agent == other


def honest_area(rng, owners_payloads):
    """Area plus per-host key map built outside the simulator, for reconcile tests."""
    area = AgentDataArea(AGENT)
    responses = {}
    for hid, payload, mode in owners_payloads:
        key = make_key(rng, mode, len(payload), owner=hid)
        area = append_register(area, protect_register(payload, rng.getrandbits(64), key, P64))
        responses.setdefault(hid, []).append(OneTimeKey(mode, key.bits, hid))
    return area, responses


class TestReconcile:
    def setup_method(self):
        self.rng = random.Random(12)
        self.server = AgentServerState(host_id("server"), random.Random(13))

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
        area = append_register(area, fake)
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
            area = append_register(area, protect_register(b"twice", cw, key, P64))
        responses = {
            ALPHA: [OneTimeKey(ProtectionMode.SIGNATURE, bits, ALPHA)],
            BETA: [OneTimeKey(ProtectionMode.SIGNATURE, bits, BETA)],
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
        beta, area = host_handle_agent(
            beta, area, VisitIntent("append", b"gone"), ProtectionMode.SIGNATURE, P64
        )
        beta, area = host_handle_agent(beta, area, VisitIntent("remove"), ProtectionMode.SIGNATURE, P64)
        beta, response = host_send_keys(beta, AGENT)
        responses[BETA] = list(response.keys)
        report = server_reconcile(self.server, AGENT, area, responses, [ALPHA, BETA, BETA], P64)
        assert report.verdict is Verdict.ACCEPT
        assert report.attribution == ((0, ALPHA),)
