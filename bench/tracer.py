"""Span tracer for the agentpad layers, installed by rebinding names.

Most layer functions reach each other through ``from .cipher import ...``,
so a name is looked up in the calling module, not in the defining one:
``gen_key`` resolves ``cipher.check_register`` while ``server_reconcile``
resolves ``protocol.check_register``. The tracer therefore replaces every
module attribute that is one of the traced functions, in every agentpad
module, and puts the originals back on exit.

Each call records one span (name, start, end, parent span, operation id),
kept in memory until the run ends; the operation id is whatever the caller
last stored in ``Tracer.op`` (the benchmark stores the item index). Counters are taken at the same
boundaries from the call's arguments and result.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

TRACED = {
    "cipher": ("check_register", "protect_register", "gen_key", "enumerate_valid_signature_keys"),
    "codec": (
        "encode_area", "decode_area", "find_own_registers",
        "encode_register", "decode_register", "encode_key", "decode_key",
    ),
    "protocol": ("server_reconcile", "host_handle_agent", "host_send_keys"),
    "simulator": ("run_scenario",),
    "cli": ("cmd_protect", "cmd_verify", "cmd_prop3"),
}
REGISTER_IO = ("encode_register", "decode_register", "encode_key", "decode_key")
WIDTHS = (8, 16, 32, 64)


class Tracer:
    """Context manager that wraps the traced functions of the modules in ``ap``."""

    def __init__(self, ap):
        self.ap = ap
        self.modules = [ap.package, ap.cipher, ap.codec, ap.protocol, ap.simulator, ap.cli]
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span, op id)
        self.stack: list[int] = []  # open spans
        self.open_names: list[int] = []  # their name indices
        self.op = 0
        self.counts = defaultdict(int)
        self.by_width = defaultdict(float)  # ("octets"|"s", W) -> total
        self._restore: list = []
        self._wrappers: set[int] = set()

    # --- installation -------------------------------------------------------

    def __enter__(self):
        wrappers = {}
        for mod_name, names in TRACED.items():
            mod = getattr(self.ap, mod_name)
            for name in names:
                original = getattr(mod, name)
                wrappers[id(original)] = self._wrap(name, original)
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        report_cls = self.ap.simulator.SimReport
        original_to_json = report_cls.__dict__["to_json"]
        self._restore.append((report_cls, "to_json", original_to_json))
        report_cls.to_json = self._wrap("report_json", original_to_json)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, open_names = self.spans, self.stack, self.open_names
        hook = getattr(self, f"_count_{name}", None)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            caller = self.names[open_names[-1]] if open_names else None
            me = len(spans)
            spans.append(None)
            stack.append(me)
            open_names.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_names.pop()
                spans[me] = (index, start, end, parent, self.op)
            if hook is not None:
                hook(args, kwargs, result, caller, end - start)
            return result

        traced.__wrapped__ = fn
        self._wrappers.add(id(traced))
        return traced

    def leftovers(self) -> list[str]:
        """Names still bound to a wrapper; empty once the tracer has exited."""
        owners = [*self.modules, self.ap.simulator.SimReport]
        return [
            f"{owner.__name__}.{attr}"
            for owner in owners
            for attr, value in vars(owner).items()
            if id(value) in self._wrappers
        ]

    # --- counters ---------------------------------------------------------------

    def _params(self, args, kwargs, position):
        if len(args) > position:
            return args[position]
        return kwargs.get("params", self.ap.cipher.DEFAULT_PARAMS)

    def _count_check_register(self, args, kwargs, result, caller, seconds):
        c = self.counts
        reg, params = args[0], self._params(args, kwargs, 2)
        width = params.block_width_bits
        c["check.valid"] += result.valid
        c[f"check.under.{caller}"] += 1
        c[f"check.valid_under.{caller}"] += result.valid
        self.by_width["s", width] += seconds
        if result.reason is self.ap.cipher.CheckReason.KEY_LENGTH_MISMATCH:
            c["check.length_reject"] += 1
            return
        c["check.blocks"] += len(reg.data_field) // params.block_bytes
        self.by_width["octets", width] += len(reg.data_field)

    def _count_protect_register(self, args, kwargs, result, caller, seconds):
        width = self._params(args, kwargs, 3).block_width_bits
        self.by_width["s", width] += seconds
        self.by_width["octets", width] += len(result.data_field)

    def _count_encode_area(self, args, kwargs, result, caller, seconds):
        self.counts["encode_area.octets"] += len(result)

    def _count_decode_area(self, args, kwargs, result, caller, seconds):
        self.counts["decode_area.octets"] += len(args[0])

    def _count_server_reconcile(self, args, kwargs, result, caller, seconds):
        area, key_responses = args[2], args[3]
        keys = sum(len(keys) for keys in key_responses.values())
        self.counts["reconcile.pairs"] += keys * len(area.registers)

    def _count_run_scenario(self, args, kwargs, result, caller, seconds):
        self.counts["trace_events"] += len(result.trace)

    # --- results ------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every span recorded so far."""
        n = len(self.names)
        calls, total, child = [0] * n, [0.0] * n, [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * n
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]

        index = {name: i for i, name in enumerate(self.names)}

        def agg(name):
            i = index[name]
            return calls[i], total[i], self_s[i]

        c = self.counts
        m: dict[str, tuple[float, str]] = {}

        def ratio(num, den):
            return num / den if den else 0.0

        checks, check_s, _ = agg("check_register")
        m["cipher.check_register.calls"] = (checks, "count")
        m["cipher.check_register.s"] = (check_s, "s")
        m["cipher.check_register.valid_ratio"] = (ratio(c["check.valid"], checks), "ratio")
        m["cipher.check_register.length_reject_ratio"] = (
            ratio(c["check.length_reject"], checks), "ratio")
        m["cipher.blocks_folded"] = (c["check.blocks"], "count")
        calls_, s, _ = agg("protect_register")
        m["cipher.protect_register.calls"] = (calls_, "count")
        m["cipher.protect_register.s"] = (s, "s")
        calls_, s, _ = agg("gen_key")
        m["cipher.gen_key.calls"] = (calls_, "count")
        m["cipher.gen_key.s"] = (s, "s")
        m["cipher.gen_key.checks"] = (c["check.under.gen_key"], "count")
        m["cipher.enumerate_valid_signature_keys.s"] = (
            agg("enumerate_valid_signature_keys")[1], "s")
        for width in WIDTHS:
            octets, s = self.by_width["octets", width], self.by_width["s", width]
            m[f"cipher.digest_mb_per_s.w{width}"] = (ratio(octets / 1e6, s), "MB/s")

        for name in ("encode_area", "decode_area"):
            calls_, s, _ = agg(name)
            m[f"codec.{name}.calls"] = (calls_, "count")
            m[f"codec.{name}.s"] = (s, "s")
            m[f"codec.{name}.octets"] = (c[f"{name}.octets"], "count")
        calls_, s, _ = agg("find_own_registers")
        m["codec.find_own_registers.calls"] = (calls_, "count")
        m["codec.find_own_registers.s"] = (s, "s")
        m["codec.register_io.s"] = (sum(agg(name)[1] for name in REGISTER_IO), "s")

        calls_, s, own = agg("server_reconcile")
        m["protocol.server_reconcile.calls"] = (calls_, "count")
        m["protocol.server_reconcile.s"] = (s, "s")
        m["protocol.server_reconcile.self_s"] = (own, "s")
        m["protocol.server_reconcile.pairs"] = (c["reconcile.pairs"], "count")
        m["protocol.server_reconcile.valid_ratio"] = (
            ratio(c["check.valid_under.server_reconcile"], c["check.under.server_reconcile"]),
            "ratio")
        calls_, s, own = agg("host_handle_agent")
        m["protocol.host_handle_agent.calls"] = (calls_, "count")
        m["protocol.host_handle_agent.s"] = (s, "s")
        m["protocol.host_handle_agent.self_s"] = (own, "s")
        m["protocol.host_send_keys.s"] = (agg("host_send_keys")[1], "s")

        _, s, own = agg("run_scenario")
        m["simulator.run_scenario.s"] = (s, "s")
        m["simulator.run_scenario.self_s"] = (own, "s")
        m["simulator.trace_events"] = (c["trace_events"], "count")
        m["simulator.report_json.s"] = (agg("report_json")[1], "s")

        for cmd in ("protect", "verify", "prop3"):
            m[f"cli.{cmd}.self_s"] = (agg(f"cmd_{cmd}")[2], "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m
