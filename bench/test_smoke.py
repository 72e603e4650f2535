"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest bench/test_smoke.py -q

Checks that each workload emits every metric BENCHMARK.json names with no
failed operation, that the tracer leaves every module as it found it, and
that the twins of an item share its shape but not its content.
"""

import json
from dataclasses import replace

import pytest

import run
from tracer import Tracer
from workloads import SPECS, WORKLOADS

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "attack_mix": replace(SPECS["attack_mix"], prefix_items=14),
    "long_route": replace(SPECS["long_route"], prefix_items=1, hosts=12, revisits=3),
    "cli_files": replace(SPECS["cli_files"], file_octets=4096, prop3_per_round=1),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_without_failures(workload, trace):
    result = run.run(workload, seed=1, seconds=0.2, trace=trace, spec=SMALL[workload])
    group = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[group]}
    for m in DECLARED[group]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]


def test_same_seed_same_digest_and_counters(capsys):
    spec = SMALL["long_route"]
    first = run.run("long_route", seed=5, seconds=0.2, trace=True, spec=spec)
    out_first = capsys.readouterr().out
    second = run.run("long_route", seed=5, seconds=0.2, trace=True, spec=spec)
    out_second = capsys.readouterr().out
    digests = [line for line in out_first.splitlines() if line.startswith("digest")]
    assert digests and digests == [
        line for line in out_second.splitlines() if line.startswith("digest")
    ]
    for m in DECLARED["per_layer"]:
        if m["unit"] == "count":
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]


def test_untraced_run_after_traced_sees_original_functions():
    ap = run.import_agentpad(run.ROOT / "src")
    owners = [ap.package, ap.cipher, ap.codec, ap.protocol, ap.simulator, ap.cli,
              ap.simulator.SimReport]
    before = [dict(vars(owner)) for owner in owners]
    scenario = ap.simulator.scenario_from_dict({
        "agent_server": "server", "route_servers": ["rs1"], "route": ["h0", "h1"],
        "hosts": [{"id": "h0", "payload": "00", "mode": "sign"},
                  {"id": "h1", "payload": "01", "mode": "encrypt"}],
    })
    original = ap.cipher.check_register
    with Tracer(ap) as tracer:
        assert ap.protocol.check_register is not original
        assert ap.codec.check_register is not original
        ap.simulator.run_scenario(scenario)
    spans = len(tracer.spans)
    assert spans > 0 and tracer.metrics()["protocol.server_reconcile.pairs"] == (4, "count")
    assert tracer.leftovers() == []
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert all(now[name] is value for name, value in saved.items()), owner
    report = ap.simulator.run_scenario(scenario)
    assert report.verification.verdict is ap.protocol.Verdict.ACCEPT
    assert len(tracer.spans) == spans


def shape(raw: dict) -> list:
    return [(h["id"], h["mode"], h.get("revisit"), len(h["payload"])) for h in raw["hosts"]]


@pytest.mark.parametrize("workload", ["attack_mix", "long_route"])
def test_twins_share_shape_not_content(workload):
    ap = run.import_agentpad(run.ROOT / "src")
    spec = SMALL[workload]
    items = WORKLOADS[workload](workload, 3, spec, ap, None)
    for index in range(7):
        (kind, first, _), (kind2, second, _) = items.item(index, 0), items.item(index, 1)
        assert kind == kind2 and first["route"] == second["route"]
        assert shape(first) == shape(second)
        assert first["seed"] != second["seed"]
        assert [h["payload"] for h in first["hosts"]] != [h["payload"] for h in second["hosts"]]
