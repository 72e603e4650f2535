"""Mutation testing for one package module, with the standard library only.

    python3 tests/mutants.py [--module cipher] [--sample N] [--seed S]
                             [--budget SECONDS]

A mutant is the module with one small edit to its syntax tree:

- a comparison flipped (``<`` to ``>=``, ``==`` to ``!=``, ``is`` to
  ``is not``, ``in`` to ``not in`` and back);
- an integer constant, or a slice bound that is not one, shifted by one
  either way;
- ``and`` swapped with ``or``;
- a statement in a function body dropped (replaced by ``pass``);
- a returned boolean negated.

The repository is copied once to a temporary directory. Each sampled mutant
is written over the module in the copy and tier-1 is run there with ``-x``,
in its own process, with bytecode writing off so that no stale compiled copy
of the module is imported, and with its address space capped at MEMORY_CAP
octets, since a mutant can build lists without bound (one that drops the
width guard of the key enumeration tries 2^64 entries). A mutant the suite
passes survives. A mutant that runs past three times the unmutated suite's
time is stopped and counted as killed. The sample is drawn from every mutant
with ``--seed``. No mutant is started once ``--budget`` seconds have passed.
Survivors are listed by line.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY_CAP = 2**31

FLIPPED = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
BOOL_CALLS = {"any", "all", "bool", "isinstance"}


def _short(node: ast.AST) -> str:
    text = ast.unparse(node).splitlines()[0]
    return text if len(text) <= 60 else text[:57] + "..."


def _is_docstring(stmt: ast.stmt, body: list) -> bool:
    return (
        stmt is body[0]
        and isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _returns_bool(value: ast.expr | None) -> bool:
    if isinstance(value, (ast.Compare, ast.BoolOp)):
        return True
    if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.Not):
        return True
    if isinstance(value, ast.Constant) and isinstance(value.value, bool):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in BOOL_CALLS
    )


def sites(tree: ast.Module) -> list[tuple[int, str, object]]:
    """Every mutation of ``tree`` as ``(line, description, apply)``, in a
    fixed order for a given source; ``apply()`` edits ``tree`` in place."""
    found = []

    def add(node, what, apply):
        found.append((node.lineno, what, apply))

    def shift(parent, field, node, by):
        def apply():
            setattr(parent, field, ast.BinOp(node, ast.Add() if by > 0 else ast.Sub(), ast.Constant(1)))
        return apply

    def set_attr(obj, field, value):
        return lambda: setattr(obj, field, value)

    def set_item(seq, i, value):
        return lambda: seq.__setitem__(i, value)

    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody"):
                body = getattr(node, field, None)
                for i, stmt in enumerate(body if isinstance(body, list) else ()):
                    if not isinstance(stmt, ast.Pass) and not _is_docstring(stmt, body):
                        add(stmt, f"drop {_short(stmt)}", set_item(body, i, ast.Pass()))
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new = FLIPPED[type(op)]()
                add(node, f"flip {_short(node)} ({type(op).__name__} -> {type(new).__name__})",
                    set_item(node.ops, i, new))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for by in (1, -1):
                add(node, f"constant {node.value} -> {node.value + by}",
                    set_attr(node, "value", node.value + by))
        elif isinstance(node, ast.Slice):
            for field in ("lower", "upper"):
                bound = getattr(node, field)
                if bound is None or (isinstance(bound, ast.Constant) and type(bound.value) is int):
                    continue
                for by in (1, -1):
                    add(bound, f"slice {field} {_short(bound)} {'+' if by > 0 else '-'} 1",
                        shift(node, field, bound, by))
        elif isinstance(node, ast.BoolOp):
            new = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            add(node, f"swap and/or in {_short(node)}", set_attr(node, "op", new))
        elif isinstance(node, ast.Return) and _returns_bool(node.value):
            add(node, f"negate {_short(node)}",
                set_attr(node, "value", ast.UnaryOp(ast.Not(), node.value)))
    return found


def mutant_source(source: str, index: int) -> str:
    tree = ast.parse(source)
    sites(tree)[index][2]()
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_suite(copy: Path, timeout: float | None) -> tuple[str, float]:
    """Tier-1 with ``-x`` in ``copy``: ("passed" | "failed" | "timeout", seconds)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    with subprocess.Popen(
        command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True, preexec_fn=_cap_memory,
    ) as proc:
        try:
            status = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout", time.perf_counter() - start
    return ("passed" if status == 0 else "failed"), time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", default="cipher", help="module under src/agentpad/")
    parser.add_argument("--sample", type=int, default=40, help="mutants to run (0: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=1800.0, help="seconds")
    args = parser.parse_args(argv)

    relative = Path("src", "agentpad", f"{args.module}.py")
    source = (ROOT / relative).read_text()
    catalogue = sites(ast.parse(source))
    chosen = range(len(catalogue))
    if args.sample and args.sample < len(chosen):
        chosen = sorted(random.Random(args.seed).sample(chosen, args.sample))
    print(f"{relative}: {len(catalogue)} mutants, running {len(chosen)}", flush=True)

    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench-work-*")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        outcome, baseline = run_suite(copy, None)
        if outcome != "passed":
            print("the unmutated suite does not pass; nothing to measure")
            return 1
        print(f"unmutated suite: {baseline:.1f} s", flush=True)
        start = time.perf_counter()
        survivors, run = [], 0
        for index in chosen:
            if time.perf_counter() - start > args.budget:
                break
            line, what, _ = catalogue[index]
            (copy / relative).write_text(mutant_source(source, index))
            outcome, seconds = run_suite(copy, 3 * baseline)
            run += 1
            verdict = "SURVIVED" if outcome == "passed" else f"killed ({outcome})"
            print(f"  #{index} line {line}: {what}: {verdict} in {seconds:.1f} s", flush=True)
            if outcome == "passed":
                survivors.append((line, index, what))

    print(f"ran {run} of {len(chosen)} in {time.perf_counter() - start:.0f} s;"
          f" {len(survivors)} survived")
    for line, index, what in sorted(survivors):
        print(f"  line {line} (#{index}): {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
