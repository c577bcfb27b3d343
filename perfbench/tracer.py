"""Spans around the calls into torsiongen's layers, recorded from outside.

The tracer replaces module and class attributes under the names the callers
use (``torsiongen.cli.classify`` is what cli calls, ``torsiongen.families.
compose`` what families calls) with wrappers that record a span per call,
and puts the originals back afterwards.  A target that no longer exists
makes the metrics that need it unavailable; the run goes on without them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            **(self.counts or {}),
        }


# -- per-call counts, read from arguments and results after the span ends --


def _hit(result, args, kwargs):
    return {"hits": int(result is not None)}


def _chain(result, args, kwargs):
    # Read from the StabilizerChain object itself so the counts survive
    # changes to the helpers that build it.
    chain = args[0]
    levels = getattr(chain, "levels", [])
    strong = {id(g) for lvl in levels for g in getattr(lvl, "gens", ())}
    return {
        "built": 1,
        "levels": len(levels),
        "strong_gens": len(strong),
        "stopped": int(getattr(chain, "complete", True) is False),
    }


def _payload_bytes(result, args, kwargs):
    payload = args[2] if len(args) > 2 else kwargs.get("payload")
    return {"bytes": len(json.dumps(payload, sort_keys=True))}


def _text_bytes(result, args, kwargs):
    return {"bytes": len(result.encode())}


def _order_macs(result, args, kwargs):
    # The dense order loop multiplies 2g x 2g matrices once per step.
    if result is None:
        return {"macs": 0}
    return {"macs": result * (2 * args[0].g) ** 3}


def _modp_elements(result, args, kwargs):
    return {"elements": result[1]}


def _labels(result, args, kwargs):
    labels = args[1] if len(args) > 1 else kwargs.get("labels", ())
    return {"labels": len(labels)}


def _tokens(result, args, kwargs):
    return {"tokens": len(result.tokens)}


# (span name, "module:attribute path", count function)
HOOKS = (
    ("cli.main", "torsiongen.cli:main", None),
    ("cli.sweep_one", "torsiongen.cli:_sweep_one", None),
    ("families.conjecture_pair", "torsiongen.cli:conjecture_pair", None),
    ("families.check_orders", "torsiongen.cli:check_orders", None),
    ("perms.compose", "torsiongen.families:compose", None),
    ("perms.compose", "torsiongen.perms:compose", None),
    ("engine.classify", "torsiongen.cli:classify", None),
    ("engine.classify", "torsiongen.families:classify", None),
    ("engine.StabilizerChain", "torsiongen.engine:StabilizerChain.__init__", _chain),
    ("engine.jordan_certificate", "torsiongen.cli:jordan_certificate", _hit),
    ("engine.jordan_certificate", "torsiongen.engine:jordan_certificate", _hit),
    ("engine.is_primitive", "torsiongen.engine:is_primitive", None),
    ("cache.key", "torsiongen.cli:cache_key", None),
    ("cache.get", "torsiongen.cli:cache_get", _hit),
    ("cache.put", "torsiongen.cli:cache_put", _payload_bytes),
    ("report.serialize", "torsiongen.report:SweepReport.to_json", _text_bytes),
    ("report.serialize", "torsiongen.report:SweepReport.to_csv", _text_bytes),
    ("genus.decompose", "torsiongen.cli:decompose", None),
    ("sympl.rotation_matrix", "torsiongen.cli:rotation_matrix", None),
    ("sympl.order", "torsiongen.sympl:SymplecticMatrix.order", _order_macs),
    ("sympl.generates_mod_p", "torsiongen.cli:generates_mod_p", _modp_elements),
    ("curves.build_action", "torsiongen.cli:build_action_four", None),
    ("curves.build_action", "torsiongen.cli:build_action_three", None),
    ("curves.lantern_hypotheses", "torsiongen.cli:verify_lantern_hypotheses", None),
    ("curves.certify_single_orbit", "torsiongen.cli:certify_single_orbit", _labels),
    ("lantern.verify_lantern_word", "torsiongen.cli:verify_lantern_word", _tokens),
)


def _resolve(target: str):
    """(owner, attribute) for "module:a.b", or raise LookupError."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"cannot import {module_name}: {exc}") from None
    *parents, attr = path.split(".")
    for name in parents:
        if not hasattr(owner, name):
            raise LookupError(f"{module_name} has no {name}")
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise LookupError(f"{target.replace(':', '.')} does not exist")
    return owner, attr


class Tracer:
    """Records nested spans in memory; ``op`` tags every span with the op
    that is running."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.op = None
        self.installed: set[str] = set()  # span names with a live target
        self.missing: dict[str, str] = {}  # target -> reason
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.counts = count(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for name, target, count in self.hooks:
            try:
                owner, attr = _resolve(target)
            except LookupError as exc:
                self.missing[target] = str(exc)
                continue
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))
            self.installed.add(name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def end_op(self, first_span: int, now: float) -> None:
        """Close what an interrupted op left open: a cap can land between a
        wrapper's bookkeeping steps."""
        for span in self.spans[first_span:]:
            if span.end is None:
                span.end = now
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self, scale: dict | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counts.
        Self time is a span's duration minus the time its children cover.
        ``scale`` maps an op to the factor its durations are multiplied by."""
        scale = scale or {}
        dur = [(s.end - s.start) * scale.get(s.op, 1.0) for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                child[span.parent] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            agg = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur[i]
            agg["self_s"] += dur[i] - child[i]
            for key, val in (span.counts or {}).items():
                agg[key] = agg.get(key, 0) + val
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    needs: tuple[str, ...]  # span names
    value: object  # (totals, ops) -> float


def _get(totals, span, key):
    return totals.get(span, {}).get(key, 0)


def _per_op(span, key):
    return lambda t, ops: _get(t, span, key) / ops


def _share(span, key, base_key="calls"):
    def value(t, ops):
        base = _get(t, span, base_key)
        return _get(t, span, key) / base if base else 0.0

    return value


def _cli_self(t, ops):
    return sum(v["self_s"] for k, v in t.items() if k.startswith("cli.")) / ops


def _spot_checks(t, ops):
    # Every cell a sweep computes goes through _sweep_one once; beyond the
    # cache misses, the rest are spot checks of cache hits.
    misses = _get(t, "cache.get", "calls") - _get(t, "cache.get", "hits")
    return (_get(t, "cli.sweep_one", "calls") - misses) / ops


def _m(name, unit, needs, value):
    return LayerMetric(name, unit, tuple(needs), value)


_CH = "engine.StabilizerChain"
LAYER_METRICS = (
    _m("cli.self_s", "s/op", ["cli.main"], _cli_self),
    _m("families.pair_s", "s/op", ["families.conjecture_pair"],
       _per_op("families.conjecture_pair", "total_s")),
    _m("families.check_orders_s", "s/op", ["families.check_orders"],
       _per_op("families.check_orders", "total_s")),
    _m("perms.compose_calls", "count/op", ["perms.compose"],
       _per_op("perms.compose", "calls")),
    _m("engine.classify_s", "s/op", ["engine.classify"],
       _per_op("engine.classify", "total_s")),
    _m("engine.classify_calls", "count/op", ["engine.classify"],
       _per_op("engine.classify", "calls")),
    _m("engine.chains", "count/op", [_CH], _per_op(_CH, "built")),
    _m("engine.chain_levels", "count/op", [_CH], _per_op(_CH, "levels")),
    _m("engine.strong_gens", "count/op", [_CH], _per_op(_CH, "strong_gens")),
    _m("engine.stop_order_frac", "ratio", [_CH], _share(_CH, "stopped", "built")),
    _m("engine.jordan_s", "s/op", ["engine.jordan_certificate"],
       _per_op("engine.jordan_certificate", "total_s")),
    _m("engine.jordan_calls", "count/op", ["engine.jordan_certificate"],
       _per_op("engine.jordan_certificate", "calls")),
    _m("engine.jordan_hit_frac", "ratio", ["engine.jordan_certificate"],
       _share("engine.jordan_certificate", "hits")),
    _m("engine.primitive_s", "s/op", ["engine.is_primitive"],
       _per_op("engine.is_primitive", "total_s")),
    _m("cache.key_s", "s/op", ["cache.key"], _per_op("cache.key", "total_s")),
    _m("cache.get_s", "s/op", ["cache.get"], _per_op("cache.get", "total_s")),
    _m("cache.get_calls", "count/op", ["cache.get"], _per_op("cache.get", "calls")),
    _m("cache.hit_frac", "ratio", ["cache.get"], _share("cache.get", "hits")),
    _m("cache.spot_checks", "count/op", ["cache.get", "cli.sweep_one"], _spot_checks),
    _m("cache.put_s", "s/op", ["cache.put"], _per_op("cache.put", "total_s")),
    _m("cache.put_calls", "count/op", ["cache.put"], _per_op("cache.put", "calls")),
    _m("cache.put_bytes", "B/op", ["cache.put"], _per_op("cache.put", "bytes")),
    _m("report.serialize_s", "s/op", ["report.serialize"],
       _per_op("report.serialize", "total_s")),
    _m("report.bytes", "B/op", ["report.serialize"], _per_op("report.serialize", "bytes")),
    _m("genus.decompose_s", "s/op", ["genus.decompose"],
       _per_op("genus.decompose", "total_s")),
    _m("sympl.rotation_s", "s/op", ["sympl.rotation_matrix"],
       _per_op("sympl.rotation_matrix", "total_s")),
    _m("sympl.order_s", "s/op", ["sympl.order"], _per_op("sympl.order", "total_s")),
    _m("sympl.order_macs", "count/op", ["sympl.order"], _per_op("sympl.order", "macs")),
    _m("sympl.modp_s", "s/op", ["sympl.generates_mod_p"],
       _per_op("sympl.generates_mod_p", "total_s")),
    _m("sympl.modp_elements", "count/op", ["sympl.generates_mod_p"],
       _per_op("sympl.generates_mod_p", "elements")),
    _m("curves.actions_s", "s/op", ["curves.build_action"],
       _per_op("curves.build_action", "total_s")),
    _m("curves.hypotheses_s", "s/op", ["curves.lantern_hypotheses"],
       _per_op("curves.lantern_hypotheses", "total_s")),
    _m("curves.certify_s", "s/op", ["curves.certify_single_orbit"],
       _per_op("curves.certify_single_orbit", "total_s")),
    _m("curves.certify_labels", "count/op", ["curves.certify_single_orbit"],
       _per_op("curves.certify_single_orbit", "labels")),
    _m("lantern.replay_s", "s/op", ["lantern.verify_lantern_word"],
       _per_op("lantern.verify_lantern_word", "total_s")),
    _m("lantern.word_tokens", "count/op", ["lantern.verify_lantern_word"],
       _per_op("lantern.verify_lantern_word", "tokens")),
)


def layer_metrics(tracer: Tracer, ops: int, scale: dict | None = None) -> tuple[dict, dict]:
    """(metrics, unavailable): each metric as {"value", "unit"}, with value
    None when a span it needs had no target to hook.  ``scale`` is as for
    Tracer.totals."""
    totals = tracer.totals(scale)
    live = tracer.installed
    metrics, unavailable = {}, {}
    for m in LAYER_METRICS:
        lost = [n for n in m.needs if n not in live]
        if lost:
            metrics[m.name] = {"value": None, "unit": m.unit}
            unavailable[m.name] = f"no hook target for {', '.join(lost)}"
        else:
            metrics[m.name] = {"value": m.value(totals, max(ops, 1)), "unit": m.unit}
    return metrics, unavailable
