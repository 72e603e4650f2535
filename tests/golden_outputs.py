"""Print the outputs that must be bit-identical on every supported Python.

It needs only the standard library and the package source beside it, so any
interpreter can run it without pytest or an install:

    python3.10 tests/golden_outputs.py

It prints one JSON object:

- ``reports``: the SHA-256 of each bundled scenario's report under each
  policy mode, as in tests/golden/reports.json;
- ``transcripts``: for the same runs, the SHA-256 over every bus message
  image in delivery order, each prefixed by ``"<kind> <octet count>\n"``, as
  in tests/golden/transcripts.json. The images are recorded by wrapping the
  encoders of ``MESSAGE_CODECS``, so the hash sees every value a run draws,
  while a report shows only some of them;
- ``vectors``: the register octets that each criterion-9 wire vector's
  protection recipe produces, or its committed octets decoded and
  re-encoded where it has no recipe, as in tests/golden/registers.json;
- ``prop3``: the line that ``agentpad prop3 --width 8 --seed 7`` prints.

tests/test_golden_outputs.py runs it under each Python from 3.10 to 3.13 and
compares its output with those tables.
"""

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from agentpad.cipher import CipherParams, OneTimeKey, protect_register
from agentpad.cli import main
from agentpad.codec import MESSAGE_CODECS, decode_register, encode_register
from agentpad.simulator import MODE_WORDS, POLICY_MODES, load_scenario, run_scenario


def recording(kind: str, encode, images: list[bytes]):
    """``encode``, also appending each image it returns to ``images``, framed
    by its kind and length."""

    def encode_and_record(value, params):
        raw = encode(value, params)
        images.append(f"{kind} {len(raw)}\n".encode() + raw)
        return raw

    return encode_and_record


def scenario_hashes() -> tuple[dict, dict]:
    """The report hash and the transcript hash of each bundled scenario
    under each policy mode."""
    reports, transcripts = {}, {}
    images: list[bytes] = []
    codecs = dict(MESSAGE_CODECS)
    for kind, (encode, decode) in codecs.items():
        MESSAGE_CODECS[kind] = (recording(kind, encode, images), decode)
    try:
        for path in sorted((ROOT / "scenarios").glob("*.json")):
            for policy in POLICY_MODES:
                images.clear()
                report = run_scenario(replace(load_scenario(path), policy_mode=policy))
                digest = hashlib.sha256(report.to_json().encode()).hexdigest()
                reports.setdefault(path.stem, {})[policy] = digest
                digest = hashlib.sha256(b"".join(images)).hexdigest()
                transcripts.setdefault(path.stem, {})[policy] = digest
    finally:
        MESSAGE_CODECS.update(codecs)
    return reports, transcripts


def wire_vectors() -> dict:
    golden = json.loads((ROOT / "tests" / "golden" / "registers.json").read_text())
    vectors = {}
    for vector in golden["vectors"]:
        params = CipherParams(vector["width"])
        recipe = vector.get("protect")
        if recipe is None:
            reg = decode_register(bytes.fromhex(vector["register_hex"]), params)
        else:
            key = OneTimeKey(MODE_WORDS[vector["mode"]], bytes.fromhex(recipe["key_hex"]))
            message = bytes.fromhex(recipe["message_hex"])
            reg = protect_register(message, int(recipe["codeword_hex"], 16), key, params)
        vectors[vector["name"]] = encode_register(reg, params).hex()
    return vectors


def prop3_line() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["prop3", "--width", "8", "--seed", "7"])
    return f"{out.getvalue().strip()} (exit {status})"


if __name__ == "__main__":
    reports, transcripts = scenario_hashes()
    outputs = {
        "reports": reports,
        "transcripts": transcripts,
        "vectors": wire_vectors(),
        "prop3": prop3_line(),
    }
    print(json.dumps(outputs, indent=2, sort_keys=True))
