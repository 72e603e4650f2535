"""The golden outputs are bit-identical on every Python the package supports.

tests/golden_outputs.py prints the report hashes, the bus transcript hashes,
the wire vectors and one ``prop3`` line using the standard library alone. This runs it under each
Python from 3.10 to 3.13 and compares what it prints with tests/golden/.
"""

import glob
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"

# from pyproject.toml's requires-python to the newest release
VERSIONS = ("3.10", "3.11", "3.12", "3.13")


def find_python(name: str) -> tuple[str | None, list[str]]:
    """The path of a Python ``name`` ("3.X") that starts, and every command tried.

    The running interpreter serves its own version. Otherwise ``python3.X``
    on PATH is tried, then each ``$PYENV_ROOT/versions/3.X*/bin/python3``. A
    command is found when it runs and is that version: a pyenv shim whose
    version is not selected is on PATH, but exits with "command not found".
    The path the command reports is returned, so the shim runs only once.
    """
    version = tuple(int(part) for part in name.split("."))
    if sys.version_info[:2] == version:
        return sys.executable, [sys.executable]
    tried = [f"python{name}"]
    root = os.environ.get("PYENV_ROOT")
    if root:
        tried += sorted(glob.glob(f"{root}/versions/{name}*/bin/python3"))
    else:
        tried.append("$PYENV_ROOT/versions/ (PYENV_ROOT is not set)")
    probe = f"import sys\nif sys.version_info[:2] != {version}: sys.exit(1)\nprint(sys.executable)"
    for command in tried:
        try:
            found = subprocess.run(
                [command, "-c", probe], capture_output=True, text=True, timeout=30
            )
        except OSError:
            continue
        if found.returncode == 0:
            return found.stdout.strip(), tried
    return None, tried


def run_golden_outputs(name: str):
    """Every command tried for Python ``name``, and the script's run under the
    one found (None when none was)."""
    python, tried = find_python(name)
    if python is None:
        return tried, None
    script = [python, "-B", str(TESTS / "golden_outputs.py")]
    return tried, subprocess.run(script, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def runs():
    # each interpreter spends most of its run starting up and importing, so
    # they run side by side
    with ThreadPoolExecutor(len(VERSIONS)) as pool:
        return dict(zip(VERSIONS, pool.map(run_golden_outputs, VERSIONS)))


@pytest.mark.parametrize("name", VERSIONS)
def test_golden_outputs_on_every_supported_python(runs, name):
    tried, run = runs[name]
    if run is None:
        pytest.skip(f"no Python {name} starts; tried {', '.join(tried)}")
    assert run.returncode == 0, run.stderr
    outputs = json.loads(run.stdout)
    assert outputs["reports"] == json.loads((GOLDEN / "reports.json").read_text())["reports"]
    transcripts = json.loads((GOLDEN / "transcripts.json").read_text())["transcripts"]
    assert outputs["transcripts"] == transcripts
    vectors = json.loads((GOLDEN / "registers.json").read_text())["vectors"]
    assert outputs["vectors"] == {v["name"]: v["register_hex"] for v in vectors}
    assert outputs["prop3"] == "256 of 65536 signature keys validate (exit 0)"
