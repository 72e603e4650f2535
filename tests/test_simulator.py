"""Scenario simulation: adversary detection, channel policy, determinism."""

import hashlib
import json
import random
from dataclasses import astuple, fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agentpad.cipher import CipherParams, OneTimeKey, ProtectionMode, padded_octets
from agentpad.codec import (
    MESSAGE_CODECS,
    AgentDataArea,
    decode_agent_transfer,
    encode_agent_transfer,
)
from agentpad.protocol import DiscardReason, Verdict, host_handle_agent, host_id, host_label
from agentpad.simulator import (
    CHANNEL_SECURITIES,
    BehaviorProfile,
    Channel,
    HostConfig,
    InvalidScenarioError,
    SimEvent,
    _trace_assertions,
    apply_adversary,
    enforce_channel_policy,
    load_scenario,
    run_scenario,
    scenario_from_dict,
)
from oracles import channel_reference

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
GOLDEN_REPORTS_PATH = Path(__file__).parent / "golden" / "reports.json"
P64 = CipherParams(64)


def basic_raw(**overrides):
    raw = {
        "params": {"block_width_bits": 64},
        "seed": 5,
        "agent_server": "server",
        "route_servers": ["rs1"],
        "hosts": [
            {"id": "alpha", "payload": "aa01", "mode": "sign"},
            {"id": "beta", "payload": "bb02", "mode": "encrypt"},
            {"id": "gamma", "payload": "cc03", "mode": "sign"},
        ],
        "route": ["alpha", "beta", "gamma"],
    }
    raw.update(overrides)
    return raw


class TestScenarioLoading:
    def test_bundled_files_load(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            load_scenario(path)

    # (overrides of basic_raw, the error naming the field at fault)
    INVALID = [
        ({"route": []}, "route must not be empty"),
        ({"route": ["nobody"]}, "route[0] names an unknown host 'nobody'"),
        ({"route_servers": []}, "route_servers must not be empty"),
        ({"route_servers": ["rs1", "rs1"]}, "route_servers[1]: 'rs1' is also route_servers[0]"),
        ({"agent_server": ""}, "agent_server: host label must encode to 1..8 non-NUL octets: ''"),
        ({"agent_server": "alpha"}, "hosts[0].id: 'alpha' is also agent_server"),
        (
            {"params": {"block_width_bits": 10}},
            "params.block_width_bits: block width must be one of (8, 16, 32, 64), got 10",
        ),
        ({"seed": -1}, "seed must fit in 64 bits"),
        ({"policy_mode": "shrug"}, "policy_mode must be one of record, abort, got 'shrug'"),
        ({"surprise": True}, "scenario: unknown keys ['surprise']"),
        (
            {"hosts": [{"id": "alpha"}, {"id": "alpha"}], "route": ["alpha"]},
            "hosts[1].id: 'alpha' is also hosts[0].id",
        ),
        (
            {"hosts": [{"id": "a-very-long-name", "payload": "00"}], "route": ["a-very-long-name"]},
            "hosts[0].id: host label must encode to 1..8 non-NUL octets: 'a-very-long-name'",
        ),
        (
            {"hosts": [{"id": "alpha", "payload": "zz"}], "route": ["alpha"]},
            "hosts[0].payload: expected hex octets, got 'zz'",
        ),
        (
            {"hosts": [{"id": "alpha", "mode": "rot13", "payload": "00"}], "route": ["alpha"]},
            "hosts[0].mode must be one of sign, encrypt, got 'rot13'",
        ),
        (
            {"hosts": [{"id": "alpha", "behavior": {"profile": "evil"}}], "route": ["alpha"]},
            "hosts[0].behavior.profile must be one of honest, counterfeit, erase_foreign,"
            " brainwash_replay, orphan_key, key_reuse, got 'evil'",
        ),
        (
            {"hosts": [{"id": "alpha", "behavior": {"profile": "counterfeit"}}], "route": ["alpha"]},
            "hosts[0].behavior: counterfeit needs target_index and forged_payload",
        ),
        (
            {"hosts": [{"id": "alpha", "behavior": {"profile": "erase_foreign"}}], "route": ["alpha"]},
            "hosts[0].behavior: erase_foreign needs target_index",
        ),
        (
            {"channels": [{"endpoints": ["alpha", "nobody"], "security": "secure"}]},
            "channels[0].endpoints[1]: 'nobody' is not a participant",
        ),
        (
            {"channels": [{"endpoints": ["alpha", "server"], "security": "leaky"}]},
            "channels[0].security must be one of secure, insecure, got 'leaky'",
        ),
        (
            {"channels": [{"endpoints": ["alpha", "alpha"], "security": "secure"}]},
            "channels[0]: channel from 'alpha' to itself",
        ),
        (
            {
                "channels": [
                    {"endpoints": ["alpha", "server"], "security": "secure"},
                    {"endpoints": ["server", "alpha"], "security": "insecure"},
                ]
            },
            "channels[1]: channel 'alpha'-'server' listed twice",
        ),
        (
            {
                "channels": [
                    {"endpoints": ["alpha", "server"], "security": "insecure"},
                    {"endpoints": ["alpha", "server"], "security": "insecure"},
                ]
            },
            "channels[1]: channel 'alpha'-'server' listed twice",
        ),
    ]

    @pytest.mark.parametrize(
        "overrides, message", INVALID, ids=[f"overrides{i}" for i in range(len(INVALID))]
    )
    def test_invalid_scenarios_rejected(self, overrides, message):
        with pytest.raises(InvalidScenarioError) as info:
            scenario_from_dict(basic_raw(**overrides))
        assert str(info.value) == message

    def test_key_reuse_without_payload_refused(self, tmp_path):
        # its first visit would be idle, so no second protection is ever tried
        hosts = [{"id": "h0", "behavior": {"profile": "key_reuse"}}, {"id": "h1", "payload": "01"}]
        path = tmp_path / "key_reuse.json"
        path.write_text(json.dumps(basic_raw(hosts=hosts, route=["h0", "h1"])))
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == "hosts[0].behavior: key_reuse needs a payload to protect"

    @pytest.mark.parametrize("document", ["[]", "3", '"x"', "null"])
    def test_non_object_json_refused(self, document, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(document)
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == "scenario file must hold a JSON object"

    def test_bad_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidScenarioError):
            load_scenario(bad)


# Every role and profile, so that a change to any field reaches code that reads it.
RICH_RAW = {
    "params": {"block_width_bits": 8},
    "seed": 3,
    "agent_server": "server",
    "route_servers": ["rs1", "rs2"],
    "hosts": [
        {"id": "alpha", "payload": "aa01", "mode": "sign", "revisit": "edit", "behavior": {"profile": "honest"}},
        {
            "id": "beta",
            "payload": "bb02",
            "mode": "encrypt",
            "revisit": "remove",
            "behavior": {"profile": "counterfeit", "target_index": 0, "forged_payload": "ff"},
        },
        {"id": "gamma", "payload": "cc03", "behavior": {"profile": "erase_foreign", "target_index": 1}},
    ],
    "route": ["alpha", "beta", "gamma", "alpha"],
    "channels": [{"endpoints": ["alpha", "server"], "security": "insecure"}],
    "default_channel_security": "secure",
    "policy_mode": "record",
}


def field_paths(value, path=()):
    """The path of every value inside a decoded JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
# values a field of some other name accepts, so that swaps reach past the type checks
near_valid = st.sampled_from(
    ["alpha", "gamma", "server", "rs1", "sign", "encrypt", "edit", "remove", "idle", "secure",
     "insecure", "abort", "honest", "counterfeit", "erase_foreign", "orphan_key", "", "00ff",
     0, 1, 2, -1, 8, 64, 2**64, ["alpha"], ["alpha", "server"], {}, {"profile": "key_reuse"}]
)


class TestScenarioLoaderIsTotal:
    @given(st.sampled_from(list(field_paths(RICH_RAW))), json_values | near_valid)
    @settings(max_examples=200, deadline=None)
    def test_any_value_in_any_field_loads_and_runs_or_is_rejected(self, path, value):
        raw = json.loads(json.dumps(RICH_RAW))
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        try:
            scenario = scenario_from_dict(raw)
        except InvalidScenarioError:
            return
        run_scenario(scenario)  # any other exception fails the property

    def test_rich_scenario_runs(self):
        # the property above says nothing unless the unchanged document runs
        report = run_scenario(scenario_from_dict(RICH_RAW))
        assert report.verification.verdict is Verdict.DISCARD


def field_replaced(value, path, new):
    """``value`` with the field or item at ``path`` replaced by ``new``; every
    dataclass on the way is made again, so each one's checks run."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(key, int):
        return value[:key] + (field_replaced(value[key], rest, new),) + value[key + 1 :]
    return replace(value, **{key: field_replaced(getattr(value, key), rest, new)})


def scenario_fields(value, path=()):
    """The path and value of every field and item inside a Scenario."""
    if is_dataclass(value) and not isinstance(value, CipherParams):
        children = [(f.name, getattr(value, f.name)) for f in fields(value)]
    elif isinstance(value, tuple):
        children = list(enumerate(value))
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from scenario_fields(child, path + (key,))


RICH = scenario_from_dict(RICH_RAW)
RICH_FIELDS = list(scenario_fields(RICH))
# values a Scenario's fields hold: the valid value of every field, so that swaps
# reach past the type checks, every protection mode and channel security word,
# octets and cipher parameters
scenario_values = (
    st.sampled_from([value for _, value in RICH_FIELDS])
    | st.sampled_from([*ProtectionMode, *CHANNEL_SECURITIES])
    | st.binary(max_size=4)
    | st.builds(CipherParams, st.sampled_from([8, 16, 32, 64]))
)


class TestScenarioValidatorIsTotal:
    """A Scenario built in code meets the same rules as a scenario file."""

    # Values of the wrong type, or not among their field's words: each must be
    # refused when the Scenario is made, not crash later in a Channel or a run.
    REFUSED = {
        "revisit-unknown": (("hosts", 0, "revisit"), "bogus"),
        "mode-word": (("hosts", 0, "mode"), "encrypt"),
        "channel-security-unknown": (("channels", 0, "security"), "bogus"),
        "default-security-unknown": (("default_channel_security",), "bogus"),
        "params-int": (("params",), 64),
        "payload-str": (("hosts", 0, "payload"), "aa01"),
        "profile-unknown": (("hosts", 0, "behavior"), BehaviorProfile("evil")),
        "seed-float": (("seed",), 1.5),
        "seed-bool": (("seed",), True),
        "endpoints-not-strings": (("channels", 0, "endpoints"), (1, "alpha")),
        "endpoints-one": (("channels", 0, "endpoints"), ("alpha",)),
    }

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_refused_when_made(self, name):
        path, value = self.REFUSED[name]
        with pytest.raises(InvalidScenarioError):
            field_replaced(RICH, path, value)

    @given(
        st.sampled_from([path for path, _ in RICH_FIELDS]), json_values | near_valid | scenario_values
    )
    @settings(max_examples=300, deadline=None)
    def test_any_value_in_any_field_is_refused_when_made_or_runs(self, path, value):
        try:
            scenario = field_replaced(RICH, path, value)
        except InvalidScenarioError:
            return
        run_scenario(scenario)  # any other exception fails the property

    @pytest.mark.parametrize(
        "path, where",
        [(("channels", 0, "security"), "channels[0].security"),
         (("default_channel_security",), "default_channel_security")],
        ids=["channel", "default"],
    )
    def test_unknown_security_word_refused_alike_when_loaded_or_made(self, path, where):
        raw = json.loads(json.dumps(RICH_RAW))
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "bogus"
        with pytest.raises(InvalidScenarioError) as loaded:
            scenario_from_dict(raw)
        with pytest.raises(InvalidScenarioError) as made:
            field_replaced(RICH, path, "bogus")
        message = f"{where} must be one of secure, insecure, got 'bogus'"
        assert str(loaded.value) == str(made.value) == message

    def test_errors_name_the_field_path(self):
        with pytest.raises(InvalidScenarioError) as info:
            field_replaced(RICH, ("hosts", 1, "behavior", "target_index"), "0")
        assert str(info.value) == "hosts[1].behavior.target_index must be an integer, got a string"

    def test_key_reuse_without_payload_refused(self):
        with pytest.raises(InvalidScenarioError) as info:
            field_replaced(RICH, ("hosts", 0), HostConfig("alpha", BehaviorProfile("key_reuse")))
        assert str(info.value) == "hosts[0].behavior: key_reuse needs a payload to protect"


class TestHonestRuns:
    def test_three_hosts_accept_with_attribution(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "honest.json"))
        v = report.verification
        assert v.verdict is Verdict.ACCEPT
        assert [(ri, h) for ri, h in v.attribution] == [
            (0, host_id("alpha")),
            (1, host_id("beta")),
            (2, host_id("gamma")),
        ]
        assert v.plaintexts == {1: b"beta-reading"}
        assert all(report.assertions.values())
        assert report.policy_violations == []

    def test_same_seed_bit_identical(self):
        scenario = load_scenario(SCENARIO_DIR / "honest.json")
        assert run_scenario(scenario).to_json() == run_scenario(scenario).to_json()

    def test_revisit_with_self_edit_accepts(self):
        raw = basic_raw(route=["alpha", "beta", "alpha", "gamma", "alpha"])
        report = run_scenario(scenario_from_dict(raw))
        assert report.verification.verdict is Verdict.ACCEPT
        assert len(report.verification.attribution) == 3

    def test_revisit_with_self_removal_accepts(self):
        raw = basic_raw()
        raw["hosts"][0]["revisit"] = "remove"
        raw["route"] = ["alpha", "beta", "alpha", "gamma"]
        report = run_scenario(scenario_from_dict(raw))
        v = report.verification
        assert v.verdict is Verdict.ACCEPT
        assert [h for _, h in v.attribution] == [host_id("beta"), host_id("gamma")]

    def test_revisit_appends_second_register(self):
        raw = basic_raw()
        raw["hosts"][0]["revisit"] = "append"
        raw["route"] = ["alpha", "alpha"]
        report = run_scenario(scenario_from_dict(raw))
        v = report.verification
        assert v.verdict is Verdict.ACCEPT
        assert [h for _, h in v.attribution] == [host_id("alpha")] * 2

    def test_route_revisits_logged_in_order(self):
        raw = basic_raw(route=["alpha", "beta", "alpha"])
        report = run_scenario(scenario_from_dict(raw))
        answers = [e for e in report.trace if e.kind == "route_answer"]
        assert answers[0].detail["hosts"] == ["alpha", "beta", "alpha"]

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_narrow_widths_run_end_to_end(self, width):
        raw = basic_raw(params={"block_width_bits": width})
        report = run_scenario(scenario_from_dict(raw))
        assert report.verification.verdict is Verdict.ACCEPT
        assert report.verification.plaintexts == {1: bytes.fromhex("bb02")}


class TestHonestForeignEditsAtW8:
    """At W=8 an honest revisit can edit a register that another host wrote.

    host_handle_agent edits the first register that one of the host's keys
    validates. At W=8 a register another host wrote later can validate under
    a key the host drew earlier, and come first in the area. The host then
    overwrites it, the register it wrote itself is left behind, and the run
    is discarded as orphan_key. These counts pin the fault as it stands
    (ROADMAP item 9); h0 is never visited, but its seed is drawn.
    """

    SHAPE = {
        "params": {"block_width_bits": 8},
        "agent_server": "server",
        "route_servers": ["rs1", "rs2"],
        "hosts": [
            {"id": "h0", "payload": "6830", "mode": "encrypt", "revisit": "append"},
            {"id": "h1", "payload": "6831", "mode": "sign", "revisit": "edit"},
            {"id": "h2", "payload": "6832", "mode": "sign", "revisit": "edit"},
        ],
        "route": ["h1", "h2", "h1", "h1", "h2", "h2"],
    }

    def test_every_orphan_key_discard_is_a_foreign_edit(self, monkeypatch):
        writer = {}  # a register's fields -> the host that wrote it
        foreign_edits = []  # (editor, writer) of each edit of another host's register

        def tracked(state, area, action, payload, mode, params):
            before = [astuple(reg) for reg in area.registers]
            area = host_handle_agent(state, area, action, payload, mode, params)
            after = [astuple(reg) for reg in area.registers]
            label = host_label(state.id)
            for old, new in zip(before, after):
                if new != old and action == "edit" and writer[old] != label:
                    foreign_edits.append((label, writer[old]))
            writer.update((new, label) for new in after if new not in before)
            return area

        monkeypatch.setattr("agentpad.simulator.host_handle_agent", tracked)
        outcomes, foreign_seeds = {}, []
        for seed in range(1000):
            writer.clear()
            foreign_edits.clear()
            v = run_scenario(scenario_from_dict({**self.SHAPE, "seed": seed})).verification
            outcome = v.reason.value if v.reason else v.verdict.value
            outcomes.setdefault(outcome, []).append(seed)
            if foreign_edits:
                foreign_seeds.append(seed)
        assert {outcome: len(seeds) for outcome, seeds in outcomes.items()} == {
            "accept": 988, "duplicate_match": 8, "orphan_key": 4
        }
        assert outcomes["orphan_key"] == [9, 199, 265, 353]
        assert outcomes["duplicate_match"] == [125, 285, 306, 319, 367, 446, 557, 912]
        assert foreign_seeds == outcomes["orphan_key"]


class TestAdversaries:
    def test_brainwash_replay_orphans_later_hosts(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "brainwash.json"))
        assert report.verification.verdict is Verdict.DISCARD
        assert report.verification.reason is DiscardReason.ORPHAN_KEY
        # the returned image is the bit-copy mallory forwarded on its first
        # visit, yet beta, gamma, and delta all still surrender their keys
        transfers = [e for e in report.trace if e.kind == "agent_transfer"]
        first_forward = next(e for e in transfers if e.src == "mallory" and e.dst == "beta")
        returned = next(e for e in transfers if e.dst == "server")
        assert returned.detail["octets"] == first_forward.detail["octets"]
        keys_by_host = {
            e.src: e.detail["keys"] for e in report.trace if e.kind == "key_response"
        }
        assert keys_by_host == {"mallory": 1, "beta": 1, "gamma": 1, "delta": 1}

    def test_brainwash_revisit_forwards_bit_identical_bytes(self, monkeypatch):
        images = []

        def capture(area, params):
            raw = encode_agent_transfer(area, params)
            images.append(raw)
            return raw

        monkeypatch.setitem(MESSAGE_CODECS, "agent_transfer", (capture, decode_agent_transfer))
        scenario = load_scenario(SCENARIO_DIR / "brainwash.json")
        three_visits = ("mallory", "beta", "mallory", "gamma", "delta", "mallory")
        for route in (scenario.route, three_visits):
            images.clear()
            report = run_scenario(replace(scenario, route=route))
            senders = [e.src for e in report.trace if e.kind == "agent_transfer"]
            assert senders == ["server", *route]
            # every image mallory forwards is the one it forwarded first, to
            # the bit, though the other hosts added registers in between
            forwarded = [image for image, src in zip(images, senders) if src == "mallory"]
            assert forwarded == [images[1]] * route.count("mallory")
            assert len(images[-2]) > len(images[1])

    def test_counterfeit_detected(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "counterfeit.json"))
        assert report.verification.verdict is Verdict.DISCARD
        # the victim's key validates nothing once the data field is forged
        assert report.verification.reason is DiscardReason.ORPHAN_KEY

    def test_erase_foreign_detected(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "erase_foreign.json"))
        assert report.verification.verdict is Verdict.DISCARD
        assert report.verification.reason is DiscardReason.ORPHAN_KEY

    def test_orphan_key_detected(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "orphan_key.json"))
        assert report.verification.verdict is Verdict.DISCARD
        assert report.verification.reason is DiscardReason.ORPHAN_KEY

    def test_key_reuse_blocked_locally(self):
        scenario = load_scenario(SCENARIO_DIR / "key_reuse.json")
        blocked = {
            "kind": "key_reuse_blocked",
            "host": "mallory",
            "note": "second use of a one-time key rejected locally",
        }
        # the second protection is tried on the first visit only
        for route in (scenario.route, ("alpha", "mallory", "alpha", "mallory")):
            report = run_scenario(replace(scenario, route=route))
            assert report.verification.verdict is Verdict.ACCEPT
            assert report.assertions["key_reuse_blocked"]
            assert report.policy_violations == [blocked]

    def test_unblocked_key_reuse_is_recorded(self, monkeypatch):
        # a protection layer that let the consumed key through
        monkeypatch.setattr("agentpad.simulator.protect_register", lambda *args: None)
        report = run_scenario(load_scenario(SCENARIO_DIR / "key_reuse.json"))
        assert report.policy_violations == [{"kind": "key_reuse_not_blocked", "host": "mallory"}]
        assert report.assertions["key_reuse_blocked"] is False

    def test_adversary_target_missing_is_surfaced(self):
        raw = basic_raw()
        raw["hosts"][0]["behavior"] = {
            "profile": "counterfeit",
            "target_index": 5,
            "forged_payload": "ff",
        }
        missing = {"kind": "adversary_target_missing", "target_index": 5, "host": "alpha"}
        # the profile acts on the first visit only, so a revisit adds no note
        for route in (raw["route"], ["alpha", "beta", "gamma", "alpha"]):
            report = run_scenario(scenario_from_dict({**raw, "route": route}))
            assert report.policy_violations == [missing]

    def test_erase_foreign_acts_on_first_visit_only(self, monkeypatch):
        counts = []

        def count(raw, params):
            area = decode_agent_transfer(raw, params)
            counts.append(len(area.registers))
            return area

        monkeypatch.setitem(MESSAGE_CODECS, "agent_transfer", (encode_agent_transfer, count))
        raw = basic_raw()
        raw["hosts"][1] = {
            "id": "mallory",
            "payload": "6d61",
            "behavior": {"profile": "erase_foreign", "target_index": 0},
            "revisit": "idle",
        }
        raw["hosts"][0]["revisit"] = "idle"
        raw["route"] = ["alpha", "gamma", "mallory", "alpha", "mallory"]
        run_scenario(scenario_from_dict(raw))
        # mallory removes alpha's register and appends its own on its first
        # visit; its idle revisit removes nothing more
        assert counts == [0, 1, 2, 2, 2, 2]


class TestGoldenReports:
    # SHA-256 of run_scenario(...).to_json() for every bundled scenario under
    # both policy modes; pins bit-identical reports across changes to the code.
    # tests/test_golden_outputs.py checks the same table on other interpreters
    GOLDEN_REPORTS = {
        (name, policy): digest
        for name, policies in json.loads(GOLDEN_REPORTS_PATH.read_text())["reports"].items()
        for policy, digest in policies.items()
    }

    @pytest.mark.parametrize("name, policy", sorted(GOLDEN_REPORTS))
    def test_golden_report(self, name, policy):
        scenario = replace(load_scenario(SCENARIO_DIR / f"{name}.json"), policy_mode=policy)
        digest = hashlib.sha256(run_scenario(scenario).to_json().encode()).hexdigest()
        assert digest == self.GOLDEN_REPORTS[name, policy]

    def test_golden_reports_cover_every_bundled_scenario(self):
        names = {path.stem for path in SCENARIO_DIR.glob("*.json")}
        assert {name for name, _ in self.GOLDEN_REPORTS} == names

    # Hosts that the route never reaches, first, in the middle and last in
    # the host list. Every host's rng seed is drawn in host order, reached or
    # not, so the reached hosts' codewords and keys depend on the others too.
    # A W=64 report shows no drawn value, so the agent's wire images, which
    # carry the masked signatures, are pinned beside it.
    OFF_ROUTE = {
        "params": {"block_width_bits": 64},
        "seed": 2511,
        "agent_server": "server",
        "route_servers": ["rs1", "rs2"],
        "hosts": [
            {"id": "early", "payload": "6561726c79", "mode": "encrypt"},
            {"id": "alpha", "payload": "616c706861", "mode": "sign"},
            {"id": "middle", "payload": "6d6964", "mode": "sign"},
            {"id": "beta", "payload": "62657461", "mode": "encrypt", "revisit": "append"},
            {"id": "gamma", "payload": "67616d6d61", "mode": "sign"},
            {"id": "late", "payload": "6c617465", "mode": "encrypt"},
        ],
        "route": ["alpha", "beta", "gamma", "beta"],
    }
    OFF_ROUTE_REPORT = "2eb10355f7e6110b38e161c6833b8d82e52b2b57a6cf99dd47a86de631e87e6d"
    OFF_ROUTE_IMAGES = "a6fe13afa8bcce93aefd08647febcc5d170ac802a5124e2ba4538c0d4eebbfb8"

    def test_hosts_off_the_route_change_no_output(self, monkeypatch):
        scenario = scenario_from_dict(self.OFF_ROUTE)
        labels = [cfg.id for cfg in scenario.hosts]
        assert [i for i, label in enumerate(labels) if label not in scenario.route] == [0, 2, 5]
        images = []
        encode, decode = MESSAGE_CODECS["agent_transfer"]

        def recorded(area, params):
            images.append(encode(area, params))
            return images[-1]

        monkeypatch.setitem(MESSAGE_CODECS, "agent_transfer", (recorded, decode))
        report = run_scenario(scenario)
        assert not {"early", "middle", "late"} & {label for e in report.trace for label in (e.src, e.dst)}
        assert report.verification.verdict is Verdict.ACCEPT
        assert len(images) == len(scenario.route) + 1
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == self.OFF_ROUTE_REPORT
        assert hashlib.sha256(b"".join(images)).hexdigest() == self.OFF_ROUTE_IMAGES


class TestRouteLogging:
    def test_idle_and_replay_visits_reach_every_route_server(self):
        raw = basic_raw(
            route_servers=["rs1", "rs2"],
            hosts=[
                {"id": "mallory", "payload": "6d61", "behavior": {"profile": "brainwash_replay"}},
                {"id": "idler"},
                {"id": "beta", "payload": "bb02", "mode": "encrypt"},
            ],
            route=["mallory", "idler", "beta", "mallory", "idler"],
        )
        report = run_scenario(scenario_from_dict(raw))
        # the replay itself is caught (beta's key is orphaned) ...
        assert report.verification.reason is DiscardReason.ORPHAN_KEY
        # ... and every visit, idle or replayed, was logged in route order
        answers = {e.src: e.detail["hosts"] for e in report.trace if e.kind == "route_answer"}
        assert answers == {"rs1": raw["route"], "rs2": raw["route"]}
        logs = [(e.src, e.dst) for e in report.trace if e.kind == "route_log"]
        assert logs == [(label, rs) for label in raw["route"] for rs in ("rs1", "rs2")]

    def test_disagreeing_route_servers_discard_before_any_key_request(self, monkeypatch):
        encode, decode = MESSAGE_CODECS["route_answer"]
        decoded = []

        def second_answer_altered(raw, params):
            hosts = decode(raw, params)
            decoded.append(hosts)
            return hosts[:-1] if len(decoded) == 2 else hosts

        monkeypatch.setitem(MESSAGE_CODECS, "route_answer", (encode, second_answer_altered))
        report = run_scenario(scenario_from_dict(basic_raw(route_servers=["rs1", "rs2"])))
        v = report.verification
        assert (v.verdict, v.reason, v.attribution, v.plaintexts) == (
            Verdict.DISCARD, DiscardReason.ROUTE_MISMATCH, (), {}
        )
        answers = [e.detail["hosts"] for e in report.trace if e.kind == "route_answer"]
        assert answers == [HONEST_ROUTE, HONEST_ROUTE[:-1]]
        assert [e for e in report.trace if e.kind == "key_request"] == []


OTHER_AGENT = bytes(16)
HONEST_ROUTE = ["alpha", "beta", "gamma"]
UNMATCHED = (Verdict.DISCARD, DiscardReason.UNMATCHED_REGISTER, [])


class TestWire:
    """The receiver of every message kind acts on the decoded value: an
    encoder that alters the value it sends changes the outcome of
    ``honest.json``, whose three hosts each contribute one register."""

    # kind -> (what the altered encoder sends instead; the verdict, reason and
    # attributed host of each register; the hosts of each route answer; the
    # key count of each key response)
    ALTERED = {
        # each hop reverses the registers: beta appends to [a] and forwards
        # [b, a], gamma appends to that and the server receives [g, a, b]; a
        # reorder keeps every key-register pair, so it is accepted
        "agent_transfer": (
            lambda area: AgentDataArea(area.agent, area.registers[::-1]),
            (Verdict.ACCEPT, None, ["gamma", "alpha", "beta"]), [HONEST_ROUTE] * 2, [1, 1, 1],
        ),
        # the visits are logged for another agent, so no route is known for
        # this one and no keys are requested
        "route_log": (lambda entry: (OTHER_AGENT, entry[1]), UNMATCHED, [[], []], []),
        "route_query": (lambda agent: OTHER_AGENT, UNMATCHED, [[], []], []),
        # gamma is missing from the route, so its key is never requested
        "route_answer": (lambda hosts: hosts[:-1], UNMATCHED, [HONEST_ROUTE[:-1]] * 2, [1, 1]),
        # each host holds keys only for the real agent, so it answers empty
        "key_request": (lambda agent: OTHER_AGENT, UNMATCHED, [HONEST_ROUTE] * 2, [0, 0, 0]),
        "key_response": (lambda keys: keys[:-1], UNMATCHED, [HONEST_ROUTE] * 2, [0, 0, 0]),
    }

    def test_cases_cover_the_table(self):
        assert list(self.ALTERED) == list(MESSAGE_CODECS)

    @pytest.mark.parametrize("kind", list(ALTERED))
    def test_receivers_act_on_the_decoded_message(self, kind, monkeypatch):
        alter, verification, route_answers, key_counts = self.ALTERED[kind]
        encode, decode = MESSAGE_CODECS[kind]

        def altering(value, params):
            return encode(alter(value), params)

        monkeypatch.setitem(MESSAGE_CODECS, kind, (altering, decode))
        report = run_scenario(load_scenario(SCENARIO_DIR / "honest.json"))
        v = report.verification
        assert (v.verdict, v.reason, [host_label(h) for _, h in v.attribution]) == verification
        trace = report.trace
        assert [e.detail["hosts"] for e in trace if e.kind == "route_answer"] == route_answers
        assert [e.detail["keys"] for e in trace if e.kind == "key_response"] == key_counts


class TestApplyAdversary:
    def setup_method(self):
        rng = random.Random(21)
        key = OneTimeKey(ProtectionMode.SIGNATURE, rng.randbytes(16))
        from agentpad.cipher import protect_register

        self.reg = protect_register(b"honest-data", rng.getrandbits(64), key, P64)
        self.area = AgentDataArea(bytes(16), (self.reg,))

    def test_counterfeit_keeps_signature(self):
        profile = BehaviorProfile("counterfeit", 0, b"forged!")
        area, note = apply_adversary(profile, self.area, P64)
        assert note is None
        forged = area.registers[0]
        assert forged.length == 7
        assert len(forged.data_field) == padded_octets(forged.length, P64)
        assert forged.data_field[:7] == b"forged!"
        assert (forged.masked_cw, forged.masked_mfd) == (self.reg.masked_cw, self.reg.masked_mfd)

    def test_erase_removes_register_only(self):
        profile = BehaviorProfile("erase_foreign", 0)
        area, note = apply_adversary(profile, self.area, P64)
        assert note is None
        assert area.registers == ()

    def test_missing_target_noted(self):
        profile = BehaviorProfile("erase_foreign", 3)
        area, note = apply_adversary(profile, self.area, P64)
        assert area == self.area
        assert note["kind"] == "adversary_target_missing"

    def test_honest_profile_is_identity(self):
        area, note = apply_adversary(BehaviorProfile(), self.area, P64)
        assert area == self.area and note is None


class TestChannelPolicy:
    ENDS = ("alpha", "server")

    def insecure(self, kind, value):
        return enforce_channel_policy(kind, value, self.ENDS, "insecure")

    def secure(self, kind, value):
        return enforce_channel_policy(kind, value, self.ENDS, "secure")

    def test_encryption_key_on_insecure_channel_violates(self):
        response = (OneTimeKey(ProtectionMode.ENCRYPTION, bytes(24)),)
        assert self.insecure("key_response", response) == {
            "kind": "insecure_key_transfer",
            "channel": ["alpha", "server"],
            "encryption_keys": 1,
        }

    def test_signature_key_passes_any_channel(self):
        response = (OneTimeKey(ProtectionMode.SIGNATURE, bytes(16)),)
        assert self.insecure("key_response", response) is None
        assert self.secure("key_response", response) is None

    def test_encryption_key_on_secure_channel_passes(self):
        response = (OneTimeKey(ProtectionMode.ENCRYPTION, bytes(24)),)
        assert self.secure("key_response", response) is None

    def test_other_messages_pass(self):
        assert self.insecure("route_log", (bytes(16), bytes(8))) is None

    def test_channel_endpoint_order_does_not_matter(self):
        honest = load_scenario(SCENARIO_DIR / "honest.json")
        violations = []
        for ends in (("server", "beta"), ("beta", "server")):
            channel = Channel(ends, "insecure")
            assert channel.endpoints == ("beta", "server")
            report = run_scenario(replace(honest, channels=(channel,)))
            violations.append(report.policy_violations)
        assert violations[0] == violations[1]
        assert [v["kind"] for v in violations[0]] == ["insecure_key_transfer"]
        assert violations[0][0]["channel"] == ["beta", "server"]

    def test_record_mode_delivers_and_records(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "insecure_channel.json"))
        assert report.verification.verdict is Verdict.ACCEPT
        violations = [v for v in report.policy_violations if v["kind"] == "insecure_key_transfer"]
        assert len(violations) == 1
        assert violations[0]["aborted"] is False
        assert sorted(violations[0]["channel"]) == ["alpha", "server"]

    def test_abort_mode_discards_exposed_keys(self):
        scenario = load_scenario(SCENARIO_DIR / "insecure_channel.json")
        scenario = replace(scenario, policy_mode="abort")
        report = run_scenario(scenario)
        assert report.verification.verdict is Verdict.DISCARD
        assert report.verification.reason is DiscardReason.UNMATCHED_REGISTER
        violations = [v for v in report.policy_violations if v["kind"] == "insecure_key_transfer"]
        assert violations and violations[0]["aborted"] is True
        # the aborted response never shows up as a delivered message
        senders = [e.src for e in report.trace if e.kind == "key_response"]
        assert "alpha" not in senders


class TestChannelTableMatchesReference:
    """Each delivered message is traced with the security of its channel, as
    ``channel_reference`` finds it by scanning the scenario's listed channels."""

    def assert_trace_matches(self, scenario) -> int:
        """Check every event; returns how many rode a listed channel whose
        security differs from the default."""
        listed_apart = 0
        default = scenario.default_channel_security
        for event in run_scenario(scenario).trace:
            expected = channel_reference(scenario.channels, default, event.src, event.dst)
            assert event.security == expected, event
            listed_apart += expected != default
        return listed_apart

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_bundled_scenarios(self, path):
        self.assert_trace_matches(load_scenario(path))

    def test_seeded_listings_under_both_defaults(self):
        listed_apart = 0
        paths = sorted(SCENARIO_DIR.glob("*.json"))
        for seed in range(40):
            rng = random.Random(7000 + seed)
            scenario = load_scenario(paths[seed % len(paths)])
            everyone = [scenario.agent_server, *scenario.route_servers]
            everyone += [cfg.id for cfg in scenario.hosts]
            pairs = [(a, b) for i, a in enumerate(everyone) for b in everyone[i + 1 :]]
            chosen = rng.sample(pairs, rng.randint(1, len(pairs) - 1))
            securities = ["insecure"] + [rng.choice(CHANNEL_SECURITIES) for _ in chosen[1:]]
            channels = tuple(
                Channel(pair[:: rng.choice((1, -1))], security)
                for pair, security in zip(chosen, securities)
            )
            for default in CHANNEL_SECURITIES:
                listed_apart += self.assert_trace_matches(
                    replace(scenario, channels=channels, default_channel_security=default)
                )
        assert listed_apart  # the listed channels were on the traced paths


class TestTraceInvariants:
    def test_no_server_host_traffic_in_flight(self):
        for name in ("honest.json", "brainwash.json", "counterfeit.json"):
            report = run_scenario(load_scenario(SCENARIO_DIR / name))
            assert report.assertions["non_interactive"]
            assert report.assertions["key_release_after_return"]
            assert report.assertions["drain_once"]

    # (kind, src, dst, keys in a key response) of each message, in time order
    DISPATCH = ("agent_transfer", "server", "alpha", None)
    RETURN = ("agent_transfer", "alpha", "server", None)
    REQUEST = ("key_request", "server", "alpha", None)
    RESPONSE = ("key_response", "alpha", "server", 1)
    HAND_BUILT = {
        "honest": ([DISPATCH, RETURN, REQUEST, RESPONSE], ()),
        "empty_second_response": (
            [DISPATCH, RETURN, REQUEST, RESPONSE, ("key_response", "alpha", "server", 0)], ()
        ),
        "server_host_message_in_flight": (
            [DISPATCH, REQUEST, RETURN, REQUEST, RESPONSE], ("non_interactive",)
        ),
        "key_response_before_return": ([RESPONSE, DISPATCH, RETURN], ("key_release_after_return",)),
        "two_nonempty_responses": ([DISPATCH, RETURN, REQUEST, RESPONSE, RESPONSE], ("drain_once",)),
    }

    @pytest.mark.parametrize("case", list(HAND_BUILT))
    def test_checks_on_hand_built_traces(self, case):
        messages, failing = self.HAND_BUILT[case]
        trace = [
            SimEvent(time, kind, src, dst, "secure", {} if keys is None else {"keys": keys})
            for time, (kind, src, dst, keys) in enumerate(messages, 1)
        ]
        checks = ("non_interactive", "key_release_after_return", "drain_once")
        expected = {check: check not in failing for check in checks}
        assert _trace_assertions(trace, scenario_from_dict(basic_raw()), []) == expected

    def test_trace_times_strictly_increase(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "honest.json"))
        times = [e.time for e in report.trace]
        assert times == sorted(times) and len(set(times)) == len(times)

    def test_report_json_shape(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "honest.json"))
        doc = json.loads(report.to_json())
        assert set(doc) == {"trace", "verification", "policy_violations", "assertions"}
        assert doc["verification"]["verdict"] == "accept"
        assert {e["kind"] for e in doc["trace"]} == {
            "agent_transfer",
            "route_log",
            "route_query",
            "route_answer",
            "key_request",
            "key_response",
        }


class TestHonestSoundnessRandomized:
    def test_long_random_routes_accept_with_ground_truth(self):
        # routes up to 16 hops with revisits; expected attribution derived
        # symbolically from the visit rules, independent of the crypto
        for seed in range(25):
            rng = random.Random(1000 + seed)
            labels = [f"h{i}" for i in range(rng.randint(2, 6))]
            hosts = []
            for label in labels:
                hosts.append(
                    {
                        "id": label,
                        "payload": rng.randbytes(rng.randint(1, 12)).hex(),
                        "mode": rng.choice(["sign", "encrypt"]),
                        "revisit": rng.choice(["edit", "append", "remove", "idle"]),
                    }
                )
            route = [rng.choice(labels) for _ in range(rng.randint(1, 16))]
            raw = basic_raw(hosts=hosts, route=route, seed=rng.getrandbits(32))
            scenario = scenario_from_dict(raw)
            report = run_scenario(scenario)
            assert report.verification.verdict is Verdict.ACCEPT, (seed, route)
            assert [h for _, h in report.verification.attribution] == [
                host_id(label) for label in expected_owners(scenario)
            ], (seed, route)


def expected_owners(scenario):
    """Symbolic replay of the honest visit rules over owner labels."""
    owners = []
    visits = {cfg.id: 0 for cfg in scenario.hosts}
    configs = {cfg.id: cfg for cfg in scenario.hosts}
    for label in scenario.route:
        cfg = configs[label]
        first = visits[label] == 0
        visits[label] += 1
        if cfg.payload is None:
            continue
        if first:
            owners.append(label)
        elif cfg.revisit == "append":
            owners.append(label)
        elif cfg.revisit == "edit":
            if label not in owners:
                owners.append(label)  # edit of a vanished register appends
        elif cfg.revisit == "remove":
            if label in owners:
                owners.remove(label)
    return owners
