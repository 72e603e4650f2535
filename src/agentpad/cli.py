"""Command-line front end.

Subcommands: run (scenario simulation), protect / verify (standalone register
files), prop3 (exhaustive signature-key count at a brute-forceable width).

Exit codes are a stable contract: 0 accept/valid, 2 protocol-level rejection
(discard verdict or failed check), 1 operational error (including bad usage,
which argparse would otherwise report as 2). Reports go to stdout so they can
be piped; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .cipher import (
    VALID_WIDTHS,
    CipherParams,
    ProtectionMode,
    WidthTooLargeError,
    check_register,
    default_rng,
    enumerate_valid_signature_keys,
    gen_key,
    protect_register,
)
from .codec import CodecError, decode_key, decode_register, encode_key, encode_register
from .protocol import Verdict
from .simulator import MODE_WORDS, InvalidScenarioError, load_scenario, run_scenario


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors remapped to exit code 1 (2 means rejection here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write_octets(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)  # re-validates
    except OSError as exc:
        return _fail(f"cannot read scenario: {exc}")
    except InvalidScenarioError as exc:
        return _fail(f"invalid scenario: {exc}")
    report = run_scenario(scenario)
    text = report.to_json()
    if args.report:
        try:
            Path(args.report).write_text(text + "\n")
        except OSError as exc:
            return _fail(f"cannot write report: {exc}")
    print(text)
    verdict = report.verification.verdict
    if args.verbose:
        reason = report.verification.reason
        print(
            f"verdict: {verdict.value}" + (f" ({reason.value})" if reason else ""),
            file=sys.stderr,
        )
    return 0 if verdict is Verdict.ACCEPT else 2


def cmd_protect(args) -> int:
    if not args.out and not hasattr(sys.stdout, "buffer"):
        return _fail("stdout takes no octets here; name a register file with --out")
    try:
        message = Path(args.input).read_bytes()
    except OSError as exc:
        return _fail(f"cannot read input: {exc}")
    params = CipherParams(args.width)
    rng = default_rng(args.seed)
    mode = MODE_WORDS[args.mode]
    cw = rng.getrandbits(params.block_width_bits)
    key = gen_key(mode, len(message), [], [], rng, params)
    register = protect_register(message, cw, key, params)
    try:
        Path(args.key).write_bytes(encode_key(key))
        _write_octets(encode_register(register, params), args.out)
    except OSError as exc:
        return _fail(f"cannot write: {exc}")
    return 0


def cmd_verify(args) -> int:
    try:
        raw_register = Path(args.register).read_bytes()
        raw_key = Path(args.key).read_bytes()
    except OSError as exc:
        return _fail(f"cannot read: {exc}")
    params = CipherParams(args.width)
    try:
        register = decode_register(raw_register, params)
        key = decode_key(raw_key)
    except CodecError as exc:
        return _fail(f"malformed input: {exc}")
    result = check_register(register, key, params)
    if not result.valid:
        print(f"invalid: {result.reason.value}")
        return 2
    if result.plaintext is not None:
        recovered = result.plaintext
    else:
        recovered = register.data_field[: register.length]
    if args.out:
        try:
            Path(args.out).write_bytes(recovered)
        except OSError as exc:
            return _fail(f"cannot write: {exc}")
    print(f"valid: {register.length} plaintext octets")
    return 0


def cmd_prop3(args) -> int:
    try:
        params = CipherParams(args.width)
    except ValueError as exc:
        return _fail(str(exc))
    rng = default_rng(args.seed)
    message = rng.randbytes(1 + rng.getrandbits(3))
    cw = rng.getrandbits(params.block_width_bits)
    key = gen_key(ProtectionMode.SIGNATURE, len(message), [], [], rng, params)
    register = protect_register(message, cw, key, params)
    try:
        count = enumerate_valid_signature_keys(register, params)
    except WidthTooLargeError as exc:
        return _fail(str(exc))
    expected = 1 << params.block_width_bits
    print(f"{count} of {1 << params.signature_width_bits} signature keys validate")
    if count != expected:
        return _fail(f"expected exactly {expected} validating keys")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use rather than at import.

    ``parse_args`` only reads it, so every ``main`` call can share it. It holds
    no command functions: ``main`` looks those up when it is called, so a
    rebound ``cmd_*`` (a tracer's wrapper, a test's stub) is the one that runs.
    """
    parser = _Parser(prog="agentpad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario file and reconcile the agent")
    run.add_argument("scenario", help="scenario JSON path")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--report", default=None, help="also write the report JSON here")
    run.add_argument("-v", "--verbose", action="store_true", help="verdict summary on stderr")

    protect = sub.add_parser("protect", help="protect a message file as a register")
    protect.add_argument("input", help="message octets to protect")
    protect.add_argument("--key", required=True, help="where to write the generated key")
    protect.add_argument("--mode", choices=sorted(MODE_WORDS), default="sign")
    protect.add_argument("--width", type=int, choices=VALID_WIDTHS, default=64)
    protect.add_argument("--seed", type=int, default=None, help="seeded rng (default: system entropy)")
    protect.add_argument("--out", default=None, help="register output path (default: stdout)")

    verify = sub.add_parser("verify", help="check a register file against a key file")
    verify.add_argument("register", help="register octets")
    verify.add_argument("--key", required=True, help="key file from protect")
    verify.add_argument("--width", type=int, choices=VALID_WIDTHS, default=64)
    verify.add_argument("--out", default=None, help="write recovered plaintext here")

    prop3 = sub.add_parser("prop3", help="count validating signature keys by brute force")
    prop3.add_argument("--width", type=int, default=8, help="block width, must stay enumerable")
    prop3.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"run": cmd_run, "protect": cmd_protect, "verify": cmd_verify, "prop3": cmd_prop3}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
