"""Per-layer tracing of one benchmark pass, from outside the program.

Each layer's public functions, and the few hot methods the layer metrics
name, are replaced by a wrapper that records a span: calls, inclusive time
and self time (the span minus the wrapped calls made inside it).  A name is
replaced in every ``tcorelab`` module namespace that holds it, and in
function tables such as ``stats.STATISTICS``, because ``from .x import f``
copies the reference.  Generators are timed per ``next()``.

Spans are folded into one record per function as they close rather than
kept one by one: a registry pass makes millions of calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("partitions", "stats", "cores", "orbits", "qseries", "rings", "verify")
METHODS = {
    "partitions": {"Partition": ("conjugate",)},
    "qseries": {"Series": ("__mul__", "mul_one_minus", "div_one_minus")},
    "rings": {"Laurent": ("__mul__", "__rmul__"), "Cyclotomic5": ("__mul__", "__rmul__")},
}
# both pochhammer product functions are charged to one record
SHARED = {"qseries.pochhammer_inf": "qseries.poch_product"}
STAT_NAMES = ("srank", "st-crank", "five-core-crank", "two-quotient-rank", "ag-crank")

CALLS, TOTAL, SELF, DEPTH, ITEMS = range(5)


class _TracedIter:
    __slots__ = ("it", "rec", "stack", "on_exhausted", "count")

    def __init__(self, it, rec, stack, on_exhausted):
        self.it = it
        self.rec = rec
        self.stack = stack
        self.on_exhausted = on_exhausted
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        rec = self.rec
        stack = self.stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            item = next(self.it)
        except StopIteration:
            if self.on_exhausted is not None:
                self.on_exhausted(self.count)
            raise
        finally:
            elapsed = time.perf_counter() - start
            rec[SELF] += elapsed - stack.pop()
            stack[-1] += elapsed
            rec[TOTAL] += elapsed
        rec[ITEMS] += 1
        self.count += 1
        return item


class Tracer:
    def __init__(self):
        self.records: dict[str, list] = {}
        self.stack = [0.0]
        # n -> partitions yielded by one complete enumerate_partitions(n)
        self.enumerated: dict[int, int] = {}
        self.check_ids: list[str] = []

    def record(self, key: str) -> list:
        return self.records.setdefault(key, [0, 0.0, 0.0, 0, 0])

    def _span(self, fn, rec):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec[CALLS] += 1
            rec[DEPTH] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                rec[SELF] += elapsed - stack.pop()
                stack[-1] += elapsed
                rec[DEPTH] -= 1
                if not rec[DEPTH]:
                    rec[TOTAL] += elapsed

        return traced

    def _generator(self, fn, rec, by_weight: bool):
        stack = self.stack
        enumerated = self.enumerated

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec[CALLS] += 1
            on_exhausted = None
            if by_weight:
                n = args[0]

                def on_exhausted(count):
                    enumerated[n] = max(enumerated.get(n, 0), count)

            return _TracedIter(fn(*args, **kwargs), rec, stack, on_exhausted)

        return traced

    def _run_check(self, fn):
        spans = {}

        @functools.wraps(fn)
        def traced(check_id, **overrides):
            if check_id not in spans:
                spans[check_id] = self._span(fn, self.record(f"verify.check.{check_id}"))
            return spans[check_id](check_id, **overrides)

        return traced

    def install(self) -> None:
        """Wrap every layer; call once, after importing tcorelab."""
        import tcorelab  # noqa: F401  (loads every layer module)

        self.check_ids = list(sys.modules["tcorelab.verify"].REGISTRY)
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"tcorelab.{layer}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                if key == "verify.run_check":
                    wrapped = self._run_check(obj)
                elif inspect.isgeneratorfunction(obj):
                    wrapped = self._generator(obj, self.record(key),
                                              key == "partitions.enumerate_partitions")
                else:
                    wrapped = self._span(obj, self.record(SHARED.get(key, key)))
                replace[id(obj)] = (obj, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for method in methods:
                    rec = self.record(f"{layer}.{cls_name}.{method}")
                    setattr(cls, method, self._span(vars(cls)[method], rec))

        def swap(obj):
            hit = replace.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for name, mod in list(sys.modules.items()):
            if name != "tcorelab" and not name.startswith("tcorelab."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapped = swap(obj)
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        wrapped = swap(v)
                        if wrapped is not None:
                            obj[k] = wrapped

    # -- per-layer metrics ---------------------------------------------------

    def _get(self, key: str) -> list:
        return self.records.get(key, [0, 0.0, 0.0, 0, 0])

    def _per_call_us(self, key: str) -> float:
        rec = self._get(key)
        return 1e6 * rec[TOTAL] / rec[CALLS] if rec[CALLS] else 0.0

    def _self_s(self, layer: str) -> float:
        return sum(rec[SELF] for key, rec in self.records.items()
                   if key.startswith(layer + "."))

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers; `_us` is inclusive time per call."""
        g = self._get
        enum = g("partitions.enumerate_partitions")
        yielded = enum[ITEMS]
        m = {
            "partitions.enumerate_s": enum[TOTAL],
            "partitions.yielded": yielded,
            "partitions.useful_ratio": (sum(self.enumerated.values()) / yielded
                                        if yielded else 0.0),
            "partitions.conjugate_calls": g("partitions.Partition.conjugate")[CALLS],
            "partitions.rim_hook_removals_calls": g("partitions.rim_hook_removals")[CALLS],
        }
        for name in STAT_NAMES:
            key = "stats." + name.replace("-", "_")
            m[f"stats.{name}_calls"] = g(key)[CALLS]
            m[f"stats.{name}_us"] = self._per_call_us(key)
        m["stats.self_s"] = self._self_s("stats")
        for name in ("phi1", "phi1_inv", "phi2"):
            m[f"cores.{name}_us"] = self._per_call_us(f"cores.{name}")
            m[f"cores.{name}_calls"] = g(f"cores.{name}")[CALLS]
        m["cores.self_s"] = self._self_s("cores")
        m["cores.iter_core_vectors_s"] = g("cores.iter_core_vectors")[TOTAL]
        m["cores.core_vectors"] = g("cores.iter_core_vectors")[ITEMS]
        for metric, key in (("orbit_map", "orbits.orbit_map"),
                            ("orbit_map_shifted", "orbits.orbit_map_s")):
            m[f"orbits.{metric}_us"] = self._per_call_us(key)
            m[f"orbits.{metric}_calls"] = g(key)[CALLS]
        m["orbits.self_s"] = self._self_s("orbits")
        m["qseries.poch_product_s"] = g("qseries.poch_product")[TOTAL]
        m["qseries.poch_product_calls"] = g("qseries.poch_product")[CALLS]
        m["qseries.series_mul_s"] = g("qseries.Series.__mul__")[TOTAL]
        m["qseries.series_mul_calls"] = g("qseries.Series.__mul__")[CALLS]
        m["qseries.factor_passes"] = (g("qseries.Series.mul_one_minus")[CALLS]
                                      + g("qseries.Series.div_one_minus")[CALLS])
        m["qseries.self_s"] = self._self_s("qseries")
        muls = {cls: [g(f"rings.{cls}.{op}") for op in ("__mul__", "__rmul__")]
                for cls in ("Cyclotomic5", "Laurent")}
        m["rings.cyc5_mul_calls"] = sum(r[CALLS] for r in muls["Cyclotomic5"])
        m["rings.laurent_mul_calls"] = sum(r[CALLS] for r in muls["Laurent"])
        m["rings.mul_s"] = sum(r[TOTAL] for rs in muls.values() for r in rs)
        for check_id in self.check_ids:
            m[f"verify.check_s.{check_id}"] = g(f"verify.check.{check_id}")[TOTAL]
        m["verify.self_s"] = self._self_s("verify")
        return m
