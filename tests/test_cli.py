"""CLI contract: subcommands, exit codes, stdout/stderr split."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import agentpad
from agentpad.cipher import VALID_WIDTHS
from agentpad.cli import build_parser, main

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


def child_env():
    """The environment of a ``python -m agentpad`` child that imports the same
    package as this test, however pytest found it."""
    src = str(Path(agentpad.__file__).parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, inherited] if inherited else [src])}


# every field a scenario file may hold, with every profile's options
FULL_SCENARIO = {
    "params": {"block_width_bits": 8},
    "seed": 3,
    "agent_server": "server",
    "route_servers": ["rs1"],
    "hosts": [
        {"id": "alpha", "payload": "aa01", "mode": "sign", "revisit": "edit", "behavior": {"profile": "honest"}},
        {
            "id": "beta",
            "payload": "bb02",
            "mode": "encrypt",
            "behavior": {"profile": "counterfeit", "target_index": 0, "forged_payload": "ff"},
        },
    ],
    "route": ["alpha", "beta"],
    "channels": [{"endpoints": ["alpha", "server"], "security": "insecure"}],
    "default_channel_security": "secure",
    "policy_mode": "record",
}


# a string that would forge a second diagnostic line if printed as it is
FORGED = "64\nerror: forged line"


def forgeable(value, path=()):
    """Where a scenario file can put a string of its choosing: the path of
    every value that is not an object or an array, and a new key in every
    object."""
    if isinstance(value, dict):
        yield path + (FORGED,)
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        yield path
        return
    for key, child in items:
        yield from forgeable(child, path + (key,))


class TestRun:
    def test_honest_scenario_exits_zero(self, capsys):
        assert main(["run", str(SCENARIO_DIR / "honest.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verification"]["verdict"] == "accept"

    def test_brainwash_scenario_exits_two_with_orphan_reason(self, capsys):
        assert main(["run", str(SCENARIO_DIR / "brainwash.json")]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verification"]["reason"] == "orphan_key"

    def test_missing_file_exits_one(self, capsys):
        assert main(["run", "/no/such/scenario.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1}))
        assert main(["run", str(bad)]) == 1
        assert "invalid scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exits_one(self, seed, capsys):
        assert main(["run", str(SCENARIO_DIR / "honest.json"), "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid scenario: seed must fit in 64 bits\n"

    @pytest.mark.parametrize(
        "changes",
        [
            pytest.param({("hosts",): 5}, id="hosts-number"),
            pytest.param({("hosts",): [5]}, id="hosts-of-numbers"),
            pytest.param({("seed",): "7"}, id="seed-string"),
            pytest.param({("route_servers",): 5}, id="route_servers-number"),
            pytest.param({("agent_server",): 5}, id="agent_server-number"),
            pytest.param({("hosts", 0, "id"): 5}, id="host-id-number"),
            pytest.param({("hosts", 0, "mode"): []}, id="host-mode-array"),
            pytest.param({("hosts", 0, "behavior"): 5}, id="behavior-number"),
            pytest.param(
                {("hosts", 1, "behavior"): {"profile": "erase_foreign", "target_index": "x"}},
                id="target_index-string",
            ),
            pytest.param({("channels",): [5]}, id="channels-of-numbers"),
            pytest.param({("route",): [["alpha"]]}, id="route-of-arrays"),
            pytest.param({("params", "block_width_bits"): 64.0}, id="width-float"),
            pytest.param(
                {("hosts", 0, "id"): "alpha\x00", ("route", 0): "alpha\x00"}, id="host-id-with-nul"
            ),
            pytest.param(
                {
                    ("channels",): [
                        {"endpoints": ["alpha", "server"], "security": "secure"},
                        {"endpoints": ["server", "alpha"], "security": "insecure"},
                    ]
                },
                id="contradictory-channels",
            ),
            pytest.param(
                {("channels",): [{"endpoints": ["beta", "beta"], "security": "insecure"}]},
                id="channel-to-itself",
            ),
        ],
    )
    def test_malformed_scenario_exits_one(self, changes, tmp_path, capsys):
        raw = json.loads((SCENARIO_DIR / "honest.json").read_text())
        for (*parents, last), value in changes.items():
            target = raw
            for key in parents:
                target = target[key]
            target[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["run", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid scenario: ")
        assert captured.err.count("\n") == 1

    def test_no_scenario_value_or_key_forges_a_line(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(FULL_SCENARIO))
        assert main(["run", str(good)]) == 2  # so each refusal below is the forged value's
        capsys.readouterr()
        for path in forgeable(FULL_SCENARIO):
            raw = json.loads(json.dumps(FULL_SCENARIO))
            target = raw
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = FORGED
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(raw))
            assert main(["run", str(bad)]) == 1, path
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: invalid scenario: "), path
            assert captured.err.count("\n") == 1, captured.err

    @pytest.mark.parametrize(
        "content, error",
        [
            pytest.param(b'{"agent_server": "\xff"}', "not UTF-8 text: ", id="not-utf8"),
            pytest.param(b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply", id="deep"),
        ],
    )
    def test_undecodable_scenario_exits_one(self, content, error, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["run", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: invalid scenario: {error}")

    @pytest.mark.parametrize("document", ["[]", "3", '"x"', "null"])
    def test_non_object_scenario_exits_one(self, document, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        assert main(["run", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid scenario: scenario file must hold a JSON object\n"

    def test_unwritable_report_exits_one(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "report.json"
        assert main(["run", str(SCENARIO_DIR / "honest.json"), "--report", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write report: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_seed_override_and_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["run", str(SCENARIO_DIR / "honest.json"), "--seed", "99", "--report", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == doc

    def test_verbose_verdict_on_stderr(self, capsys):
        main(["run", str(SCENARIO_DIR / "erase_foreign.json"), "-v"])
        captured = capsys.readouterr()
        assert "verdict: discard (orphan_key)" in captured.err


class TestProtectVerify:
    def roundtrip(self, tmp_path, message, mode, width, capsys=None):
        tmp_path.mkdir(parents=True, exist_ok=True)
        src = tmp_path / "message.bin"
        src.write_bytes(message)
        reg = tmp_path / "register.bin"
        key = tmp_path / "key.bin"
        code = main(
            ["protect", str(src), "--key", str(key), "--mode", mode,
             "--width", str(width), "--seed", "42", "--out", str(reg)]
        )
        assert code == 0
        return reg, key

    def test_protect_then_verify(self, tmp_path, capsys):
        reg, key = self.roundtrip(tmp_path, b"field measurement 17.3", "sign", 64)
        assert main(["verify", str(reg), "--key", str(key)]) == 0
        assert "valid: 22" in capsys.readouterr().out

    def test_encrypted_roundtrip_recovers_plaintext(self, tmp_path, capsys):
        reg, key = self.roundtrip(tmp_path, b"secret-value", "encrypt", 64)
        plain = tmp_path / "plain.bin"
        assert main(["verify", str(reg), "--key", str(key), "--out", str(plain)]) == 0
        assert plain.read_bytes() == b"secret-value"

    def test_empty_input_is_legal(self, tmp_path, capsys):
        reg, key = self.roundtrip(tmp_path, b"", "sign", 64)
        assert len(reg.read_bytes()) == 21
        assert main(["verify", str(reg), "--key", str(key)]) == 0
        assert "valid: 0" in capsys.readouterr().out

    def test_deterministic_with_fixed_seed(self, tmp_path):
        reg1, key1 = self.roundtrip(tmp_path / "a", b"same", "encrypt", 32)
        reg2, key2 = self.roundtrip(tmp_path / "b", b"same", "encrypt", 32)
        assert reg1.read_bytes() == reg2.read_bytes()
        assert key1.read_bytes() == key2.read_bytes()

    def test_flipped_octet_fails_with_digest_mismatch(self, tmp_path, capsys):
        reg, key = self.roundtrip(tmp_path, b"tamper-me", "sign", 64)
        raw = bytearray(reg.read_bytes())
        raw[6] ^= 0x40  # inside the data field
        reg.write_bytes(bytes(raw))
        assert main(["verify", str(reg), "--key", str(key)]) == 2
        assert "digest_mismatch" in capsys.readouterr().out

    def test_wrong_length_key_fails(self, tmp_path, capsys):
        reg, _ = self.roundtrip(tmp_path, b"payload", "sign", 64)
        _, other_key = self.roundtrip(tmp_path / "other", b"longer payload!!!", "encrypt", 64)
        assert main(["verify", str(reg), "--key", str(other_key)]) == 2
        assert "key_length_mismatch" in capsys.readouterr().out

    def test_malformed_register_exits_one(self, tmp_path, capsys):
        reg, key = self.roundtrip(tmp_path, b"data", "sign", 64)
        reg.write_bytes(reg.read_bytes()[:-1])
        assert main(["verify", str(reg), "--key", str(key)]) == 1
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "written, read",
        [(w, r) for w in VALID_WIDTHS for r in VALID_WIDTHS if w != r],
        ids=lambda w: f"W{w}",
    )
    def test_width_mismatch_is_detected_not_crashing(self, written, read, tmp_path, capsys):
        # a register image is 5 + pad_W(L) + 2*W/8 octets, and no two widths
        # give the same size, so the decoder always refuses the other width's image
        reg, key = self.roundtrip(tmp_path, b"0123456789abcdef", "sign", written)
        assert main(["verify", str(reg), "--key", str(key), "--width", str(read)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed input: ")
        assert captured.err.count("\n") == 1

    def test_text_only_stdout_exits_one_before_writing_the_key(self, tmp_path, capsys):
        src = tmp_path / "message.bin"
        src.write_bytes(b"payload")
        key = tmp_path / "key.bin"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["protect", str(src), "--key", str(key), "--seed", "1"])
        assert code == 1
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not key.exists()

    def assert_one_error(self, argv, prefix, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {prefix}: [Errno ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("unwritable", ["--key", "--out"])
    def test_protect_unwritable_output_exits_one(self, unwritable, tmp_path, capsys):
        src = tmp_path / "message.bin"
        src.write_bytes(b"payload")
        paths = {"--key": tmp_path / "key.bin", "--out": tmp_path / "register.bin"}
        paths[unwritable] = tmp_path / "no-such-dir" / "file.bin"
        argv = ["protect", str(src), "--seed", "1"]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        self.assert_one_error(argv, "cannot write", capsys)
        assert not paths[unwritable].exists()

    def test_verify_unwritable_plaintext_exits_one(self, tmp_path, capsys):
        reg, key = self.roundtrip(tmp_path, b"secret-value", "encrypt", 64)
        out = tmp_path / "no-such-dir" / "plain.bin"
        self.assert_one_error(
            ["verify", str(reg), "--key", str(key), "--out", str(out)], "cannot write", capsys
        )

    @pytest.mark.parametrize("missing", ["register", "key"])
    def test_verify_unreadable_input_exits_one(self, missing, tmp_path, capsys):
        files = dict(zip(("register", "key"), self.roundtrip(tmp_path, b"data", "sign", 64)))
        files[missing] = tmp_path / "nope"
        argv = ["verify", str(files["register"]), "--key", str(files["key"])]
        self.assert_one_error(argv, "cannot read", capsys)

    def test_missing_input_exits_one(self, tmp_path, capsys):
        assert main(["protect", str(tmp_path / "nope"), "--key", str(tmp_path / "k")]) == 1

    @pytest.mark.parametrize("mode", ["sign", "encrypt"])
    def test_one_mebibyte_round_trip(self, tmp_path, capsys, mode):
        import random

        payload = random.Random(0x1B).randbytes(1 << 20)
        reg, key = self.roundtrip(tmp_path / mode, payload, mode, 64)
        plain = tmp_path / f"{mode}.plain"
        assert main(["verify", str(reg), "--key", str(key), "--out", str(plain)]) == 0
        assert plain.read_bytes() == payload


class TestProp3:
    def test_width_8_counts_256(self, capsys):
        assert main(["prop3", "--width", "8", "--seed", "3"]) == 0
        assert "256 of 65536" in capsys.readouterr().out

    def test_width_64_guarded(self, capsys):
        assert main(["prop3", "--width", "64"]) == 1
        # the advice names the one enumerable width that CipherParams accepts
        assert "width 8" in capsys.readouterr().err

    def test_width_10_not_a_valid_width(self, capsys):
        # 10 is not a power of two, so the parameter set itself rejects it
        assert main(["prop3", "--width", "10"]) == 1

    def test_default_width_is_8(self, capsys):
        assert main(["prop3", "--seed", "4"]) == 0
        assert "256 of 65536" in capsys.readouterr().out


class TestUsage:
    def test_bad_usage_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # missing scenario argument
        assert exc.value.code == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "agentpad", "run", str(SCENARIO_DIR / "honest.json")],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verification"]["verdict"] == "accept"


class TestSharedParser:
    def test_dispatch_reads_the_command_at_call_time(self, monkeypatch):
        # a tracer rebinds cmd_*; a parser that held the originals would bypass it
        assert build_parser() is build_parser()
        monkeypatch.setattr(agentpad.cli, "cmd_prop3", lambda args: 7)
        assert main(["prop3"]) == 7

    def test_one_parser_serves_a_sequence_of_calls(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

        src = tmp_path / "message.bin"
        src.write_bytes(b"shared parser, fresh arguments")
        reg, key, plain = tmp_path / "register.bin", tmp_path / "key.bin", tmp_path / "plain.bin"
        protect = ["protect", str(src), "--mode", "encrypt", "--width", "16", "--seed", "5"]
        assert main([*protect, "--key", str(key), "--out", str(reg)]) == 0
        assert main(["verify", str(reg), "--key", str(key), "--width", "16", "--out", str(plain)]) == 0
        assert plain.read_bytes() == src.read_bytes()
        plain.unlink()
        assert main(["verify", str(reg), "--key", str(key), "--width", "16"]) == 0
        assert not plain.exists()

        child_key = tmp_path / "child.key"
        proc = subprocess.run(
            [sys.executable, "-m", "agentpad", *protect, "--key", str(child_key)],
            capture_output=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == reg.read_bytes()
        assert child_key.read_bytes() == key.read_bytes()
