"""agentpad benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload attack_mix --seed 1 --seconds 55 --trace 0

The program under test is imported from ``src/`` beside this directory, and
receives only the inputs this benchmark generates from ``--seed``. Each
operation starts when the previous one has completed (one process, one
thread). Every output is checked; mismatches count as failed operations.

Both modes first run a fixed prefix of items as warm-up and hash their
outputs into the result digest. ``--trace 0`` then times fresh items for
``--seconds / TWINS``, runs the same items' twins (same shape, fresh content)
in further passes, and reports the end-to-end metrics over the fastest twin
of each operation, divided by the machine's slowdown (see reference.py).
``--trace 1`` then runs two more blocks the size of the prefix, the first
untraced and the second under the span tracer, and reports the per-layer
metrics; the ratio of the two blocks' mean operation times is the tracing
overhead. The last line of standard output is one JSON object: correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from array import array
from collections import Counter
from itertools import count
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from reference import NOMINAL_S, Reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SPECS, WORKLOADS  # noqa: E402

SETUP_REPS = 8  # spread over the timed loop, so they sample the same machine states
TWINS = 5  # timed passes; see README.md, Noise on this machine
OVERRUN = 1.15  # later passes stop at this share of --seconds, so a run ends in time
MODULES = ("cipher", "codec", "protocol", "simulator", "cli")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class SetupError(Exception):
    """The checkout does not hold the program to benchmark."""


def import_agentpad(src: Path) -> SimpleNamespace:
    """Import agentpad afresh from ``src``, never from an installed copy."""
    for name in [n for n in sys.modules if n == "agentpad" or n.startswith("agentpad.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("agentpad")
    if Path(package.__file__).resolve().parent != (src / "agentpad").resolve():
        raise SetupError(f"agentpad imported from {package.__file__}, not from {src}")
    return SimpleNamespace(
        package=package, **{m: importlib.import_module(f"agentpad.{m}") for m in MODULES}
    )


def set_up(name: str, seed: int, spec, workdir: Path):
    """Import, generate the prefix inputs and write their files; timed as setup_s."""
    started = perf_counter()
    ap = import_agentpad(ROOT / "src")
    workload = WORKLOADS[name](name, seed, spec, ap, workdir)
    prefix = [workload.item(i) for i in range(spec.prefix_items)]
    return perf_counter() - started, ap, workload, prefix


class Tally:
    """Operations attempted and failed, and how many ended in each outcome."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outcomes: Counter[str] = Counter()

    def run(self, workload, index: int, item, digest=None) -> list[tuple[str, float, int]]:
        """Run one item; returns (kind, seconds, work) per operation.

        ``digest``, a hashlib object or None, absorbs the item's outputs.
        """
        try:
            ops = workload.run(item, digest is not None)
        except Exception:  # noqa: BLE001 - one broken item must not end the run
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return []
        finally:
            workload.discard(item)
        for op in ops:
            self.attempted += 1
            if op.errors:
                self.failed += 1
                print(f"item {index} {op.kind}: " + "; ".join(op.errors), file=sys.stderr)
            if op.outcome:
                self.outcomes[f"{op.kind}: {op.outcome}"] += 1
            for part in op.digest_parts:
                digest.update(len(part).to_bytes(8, "big") + part)
        return [(op.kind, op.seconds, op.work) for op in ops]


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    rank = p / 100 * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def tail(sorted_values: list[float], preferred: float) -> tuple[float, float]:
    """The workload's tail percentile, or the highest lower one with 10 samples beyond it."""
    n = len(sorted_values)
    for p in (preferred, *(q for q in TAIL_LADDER if q < preferred)):
        if n * (100 - p) / 100 >= 10:
            return p, percentile(sorted_values, p)
    return 100.0, sorted_values[-1]


class Fastest:
    """Per timed operation: its kind and work, and the time of its fastest twin.

    Kept in flat arrays, so that the memory they take barely grows with the
    number of operations and peak_rss_mb stays the program's.
    """

    def __init__(self):
        self.kinds: list[str] = []
        self.work = array("q")
        self.seconds = array("d")
        self.starts = array("q")  # index of each item's first operation

    def add(self, ops) -> None:
        self.starts.append(len(self.seconds))
        for kind, seconds, work in ops:
            self.kinds.append(kind)
            self.work.append(work)
            self.seconds.append(seconds)

    def update(self, item: int, ops) -> None:
        lo = self.starts[item]
        hi = self.starts[item + 1] if item + 1 < len(self.starts) else len(self.seconds)
        if len(ops) == hi - lo:  # else the twin failed, which the tally counts
            for k, (_, seconds, _) in enumerate(ops, lo):
                self.seconds[k] = min(self.seconds[k], seconds)


def timed_passes(name, seed, spec, seconds, tally, workload, setup_times, workdir, reference):
    """The timed loop: every operation's fastest twin.

    Pass 0 runs fresh items for ``seconds / TWINS``, starting an item
    only if the one before, taking as long, would end in time; each later
    pass runs the next twin of the same items in the same order, so the
    twins of one operation are about ``seconds / TWINS`` apart. If the
    machine slows down so much that the passes reach ``OVERRUN * seconds``,
    the remaining twins are skipped. Set-up is repeated at each
    ``1 / SETUP_REPS`` of ``seconds``. The reference loop is probed between
    items throughout.
    """
    first, fastest = spec.prefix_items, Fastest()
    started, last = perf_counter(), 0.0
    for twin in range(TWINS):
        for i in count(first) if twin == 0 else range(first, first + len(fastest.starts)):
            now = perf_counter() - started
            if twin == 0 and fastest.starts and 2 * now - last > seconds / TWINS:
                break
            if now >= OVERRUN * seconds:
                print(f"passes reached {now:.1f} s; skipped the remaining twins")
                return fastest
            last = now
            if now >= len(setup_times) * seconds / SETUP_REPS:
                elapsed, _, workload, again = set_up(name, seed, spec, workdir)
                setup_times.append(elapsed)
                for item in again:
                    workload.discard(item)
            ops = tally.run(workload, i, workload.item(i, twin))
            reference.maybe_probe()
            if twin == 0:
                fastest.add(ops)
            else:
                fastest.update(i - first, ops)
    return fastest


def end_to_end(name, spec, fastest: Fastest, setup_times, rss_mb, reference) -> dict:
    """End-to-end metrics; every time is divided by the machine's slowdown."""
    slow = reference.slowdown()
    times = sorted(seconds / slow for seconds in fastest.seconds)
    n = len(times)
    busy = sum(times)
    p, tail_s = tail(times, spec.tail_percentile)
    metrics = {
        "setup_s": (statistics.median(setup_times) / slow, "s"),
        "ops_per_s": (n / busy, "1/s"),
        "op_p50_ms": (percentile(times, 50) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(
        f"machine slowdown {slow:.4f}: reference loop lower decile"
        f" {reference.lower_decile() * 1e3:.4f} ms over {len(reference.times)} probes,"
        f" nominal {NOMINAL_S * 1e3:g} ms; the times below are divided by it"
    )
    print(
        f"  as measured: ops_per_s = {n * slow / busy:.4f} 1/s,"
        f" op_p50_ms = {metrics['op_p50_ms'][0] * slow:.4f} ms,"
        f" setup_s = {statistics.median(setup_times):.4f} s"
    )
    print(
        f"timed operations: n={n}, each the fastest of {TWINS} twins, busy {busy:.3f} s;"
        f" setup_s is the median of {len(setup_times)}"
    )
    print(f"op_tail_ms is p{p:g} of n={n}; percentiles with 10 samples beyond them:")
    print("  " + " ".join(
        f"p{q:g}={percentile(times, q) * 1e3:.4f}ms"
        for q in reversed(TAIL_LADDER) if n * (100 - q) / 100 >= 10
    ))
    if name in ("attack_mix", "long_route"):
        print(f"  scenarios_per_s = {n / busy:.4f} 1/s  (n={n})")
        print(f"  scenario_p50_ms = {metrics['op_p50_ms'][0]:.4f} ms  (n={n})")
        print(f"  scenario_tail_ms = {tail_s * 1e3:.4f} ms  (p{p:g}, n={n})")
    else:
        for kind, label, unit, scale in (
            ("protect", "protect_mb_per_s", "MB/s", 1e-6),
            ("verify", "verify_mb_per_s", "MB/s", 1e-6),
            ("prop3", "prop3_keys_per_s", "keys/s", 1),
        ):
            mine = [
                (seconds, work)
                for k, seconds, work in zip(fastest.kinds, fastest.seconds, fastest.work)
                if k == kind
            ]
            rate = sum(w for _, w in mine) * scale / sum(s for s, _ in mine)
            print(f"  {label} = {rate:.4f} {unit}  (n={len(mine)} commands)")
    return metrics


def per_layer(ap, workload, tally: Tally, spec) -> dict:
    """An untraced block, then a traced one; per-layer metrics plus overhead."""
    k = spec.prefix_items
    untraced, traced = [], []
    for i in range(k, 2 * k):
        untraced += tally.run(workload, i, workload.item(i))
    digest = hashlib.sha256()
    with Tracer(ap) as tracer:
        for i in range(2 * k, 3 * k):
            item = workload.item(i)
            tracer.op = i
            traced += tally.run(workload, i, item, digest)
    print(f"digest sha256 over the traced items {2 * k}..{3 * k - 1}: {digest.hexdigest()}")
    leftover = tracer.leftovers()
    if leftover:
        print(f"tracer left wrapped functions behind: {leftover}", file=sys.stderr)
        tally.failed += 1
    metrics = tracer.metrics()
    untraced_mean = sum(s for _, s, _ in untraced) / len(untraced)
    traced_mean = sum(s for _, s, _ in traced) / len(traced)
    metrics["trace.overhead_ratio"] = (traced_mean / untraced_mean - 1, "ratio")
    print(
        f"tracing overhead: mean op {traced_mean * 1e3:.3f} ms traced vs"
        f" {untraced_mean * 1e3:.3f} ms untraced ({len(traced)} and {len(untraced)} ops)"
    )
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, spec=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    spec = spec or SPECS[name]
    if not (ROOT / "src" / "agentpad" / "__init__.py").is_file():
        raise SetupError(f"no agentpad sources under {ROOT / 'src'}")
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        elapsed, ap, workload, prefix = set_up(name, seed, spec, workdir)
        setup_times = [elapsed]
        tally = Tally()
        digest = hashlib.sha256()
        for i, item in enumerate(prefix):
            tally.run(workload, i, item, digest)
        print(f"digest sha256 over the first {len(prefix)} items: {digest.hexdigest()}")

        if trace:
            metrics = per_layer(ap, workload, tally, spec)
        else:
            reference = Reference()
            fastest = timed_passes(
                name, seed, spec, seconds, tally, workload, setup_times, workdir, reference
            )
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            print(f"timed items: {len(fastest.starts)}, each run as {TWINS} twins")
            metrics = end_to_end(name, spec, fastest, setup_times, rss_mb, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for outcome, count in sorted(tally.outcomes.items()):
        print(f"  {outcome}: {count}")
    ratio = tally.failed / tally.attempted
    print(f"  fail_ratio = {ratio:g}  ({tally.failed} failed of {tally.attempted} attempted)")
    for key, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {key} = {shown} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
        f" trace={args.trace} python={platform.python_version()}"
        f" nproc={os.cpu_count()} platform={platform.platform()}"
    )
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
