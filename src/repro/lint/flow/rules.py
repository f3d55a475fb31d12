"""Flow rules NF101–NF103: NetFence's security invariants, machine-checked.

These are whole-program rules — they need the call graph, so they do not
run per-file like NF001–NF016.  Each is registered in the ordinary rule
registry (stable code, catalog entry, ``--select`` support) but carries
``paths = ()`` so the per-file engine never instantiates it; the engine's
flow phase (``runner lint --flow``) calls :meth:`FlowRule.analyze` with the
graph built over every parsed file.

* **NF101** — *no unverified rate increase* (§4.4, Fig. 17): no call path
  from a function that decodes wire input (``decode_frame`` /
  ``decode_packet``) to a rate-limiter increase site (``rate_bps +=`` or
  ``has_incr* = True``) unless the path passes a node that calls a
  feedback verifier (``validate`` / ``multi_validate`` / ``mac_equal`` /
  ``verify``).
* **NF102** — *key material never leaves the crypto layer un-MAC'd*
  (§4.4, Eqs. 1–3): values derived from the master secret or epoch keys
  must not flow to logs, flight-recorder rings, stats JSON, or the wire;
  passing through ``compute_mac`` launders (that is the MAC'ing).
* **NF103** — *MAC comparisons are constant-time* (§6.2): any value that
  is a MAC (``compute_mac`` result, ``.mac`` / ``.token_nop`` field) must
  be compared via ``crypto.mac.mac_equal``, never ``==``/``!=`` — the
  interprocedural twin of the per-node NF013.
"""

from __future__ import annotations

import ast
import re
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Type

from repro.lint.context import FileContext
from repro.lint.flow.callgraph import CallGraph, FunctionInfo
from repro.lint.flow.taint import Finding, TaintSpec, analyze_taint
from repro.lint.registry import LintRule, register
from repro.lint.violations import Violation

__all__ = ["FlowRule", "NoUnverifiedRateIncrease", "NoKeyMaterialEgress",
           "ConstantTimeMacCompareFlow", "flow_rules", "run_flow_rules"]


class FlowRule(LintRule):
    """Base class for whole-program (call-graph) rules."""

    #: Flow rules never match per-file scoping; the flow phase runs them.
    paths: ClassVar[Tuple[str, ...]] = ()
    is_flow_rule: ClassVar[bool] = True

    @classmethod
    def analyze(cls, graph: CallGraph,
                contexts: Sequence[FileContext]) -> List[Violation]:
        raise NotImplementedError

    @classmethod
    def _violation(cls, finding: Finding,
                   contexts_by_path: Dict[str, FileContext]) -> Violation:
        ctx = contexts_by_path.get(finding.path)
        source_line = ctx.line_text(finding.line) if ctx is not None else ""
        message = finding.message
        if finding.witness:
            message += " [path: " + " -> ".join(
                _short(q) for q in finding.witness) + "]"
        return Violation(
            code=cls.code, rule=cls.name, path=finding.path,
            line=finding.line, col=finding.col, message=message,
            source_line=source_line, witness=finding.witness)


def _short(qname: str) -> str:
    """Witness entries without the ``repro.``-package prefix noise."""
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qname


# ---------------------------------------------------------------------------
# NF101 — reachability: wire input → rate increase must pass a verifier
# ---------------------------------------------------------------------------

_DECODERS = frozenset({"decode_frame", "decode_packet"})
_VERIFIERS = frozenset({"validate", "multi_validate", "verify", "mac_equal"})
_INCR_ATTRS = frozenset({"has_incr", "has_incr_star"})


def _decode_site(fn: FunctionInfo) -> Optional[int]:
    for site in fn.calls:
        if site.kind == "call" and site.callee_name in _DECODERS:
            return site.lineno
    return None


def _is_sanitizing(fn: FunctionInfo) -> bool:
    return any(site.kind == "call" and site.callee_name in _VERIFIERS
               for site in fn.calls)


def _increase_sites(fn: FunctionInfo) -> List[Tuple[int, str]]:
    """(line, description) of rate-increase statements in this function."""
    out: List[Tuple[int, str]] = []
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not fn.node:
            continue
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) \
                and isinstance(node.target, ast.Attribute) \
                and node.target.attr == "rate_bps":
            out.append((node.lineno, "rate_bps +="))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) \
                        and target.attr in _INCR_ATTRS \
                        and isinstance(node.value, ast.Constant) \
                        and node.value.value is True:
                    out.append((node.lineno, f"{target.attr} = True"))
    return out


@register
class NoUnverifiedRateIncrease(FlowRule):
    code = "NF101"
    name = "no-unverified-rate-increase"
    rationale = (
        "no call path from wire-input decoding to a RegularRateLimiter "
        "rate-increase site may skip feedback verification (§4.4: unverified "
        "feedback must never raise a sender's rate)"
    )
    history = ("PR 6's live policer asserts this dynamically via the "
               "unverified_admissions counter; this proves it statically")

    @classmethod
    def analyze(cls, graph: CallGraph,
                contexts: Sequence[FileContext]) -> List[Violation]:
        by_path = {ctx.path: ctx for ctx in contexts}
        sanitizing = {fn.qname for fn in graph.functions.values()
                      if _is_sanitizing(fn)}
        sinks = {fn.qname: _increase_sites(fn)
                 for fn in graph.functions.values()}
        sinks = {q: sites for q, sites in sinks.items() if sites}
        violations: List[Violation] = []
        for fn in graph.functions.values():
            decode_line = _decode_site(fn)
            if decode_line is None or fn.qname in sanitizing:
                continue
            # BFS avoiding sanitizing nodes; parent map gives the witness.
            parent: Dict[str, Optional[str]] = {fn.qname: None}
            frontier = [fn.qname]
            while frontier:
                current = frontier.pop(0)
                for _site, target in graph.successors(current):
                    if target in parent or target in sanitizing:
                        continue
                    parent[target] = current
                    frontier.append(target)
            for sink_qname, sites in sorted(sinks.items()):
                if sink_qname not in parent:
                    continue
                chain: List[str] = []
                cursor: Optional[str] = sink_qname
                while cursor is not None:
                    chain.append(cursor)
                    cursor = parent[cursor]
                chain.reverse()
                line, what = sites[0]
                finding = Finding(
                    code=cls.code, path=fn.path, line=decode_line, col=0,
                    message=(f"wire input decoded here reaches rate increase "
                             f"'{what}' in {_short(sink_qname)} without "
                             f"passing a feedback verifier"),
                    witness=tuple(chain) + (f"{_short(sink_qname)}:{line}",))
                violations.append(cls._violation(finding, by_path))
        return violations


# ---------------------------------------------------------------------------
# NF102 — taint: key material must not reach logs / dumps / stats / wire
# ---------------------------------------------------------------------------

_NF102_SPEC = TaintSpec(
    code="NF102",
    name_re=re.compile(r"(^|_)(master(_secrets?)?|epoch_keys?|secrets?|kai?)(_|$)",
                       re.IGNORECASE),
    source_calls=frozenset({"derive_key"}),
    source_call_qnames=frozenset({
        "repro.crypto.mac.derive_key",
        "AccessRouterSecret.current",
        "AccessRouterSecret._key_for_epoch",
        "ASKeyRegistry.key_for",
    }),
    sanitizer_calls=frozenset({"compute_mac", "mac_equal"}),
    sink_call_qnames=frozenset({
        "JsonLinesLogger.emit", "JsonLinesLogger.debug", "JsonLinesLogger.info",
        "JsonLinesLogger.warning", "JsonLinesLogger.error",
        "JsonLinesLogger.span_record",
        "FlightRecorder.record_log", "FlightRecorder.record_span",
        "FlightRecorder.record_metrics", "FlightRecorder.payload",
        "FlightRecorder.dump",
        "repro.runtime.codec.encode_packet", "repro.runtime.codec.encode_hello",
        "json.dump", "json.dumps",
    }),
    message="key material '{origin}' flows to sink '{sink}' un-MAC'd",
)


@register
class NoKeyMaterialEgress(FlowRule):
    code = "NF102"
    name = "no-key-material-egress"
    rationale = (
        "master-secret / epoch-key values must never flow to logs, flight "
        "dumps, stats JSON, or the wire except through compute_mac (§4.4: "
        "feedback is unforgeable only while Ka/Kai stay inside the router)"
    )
    history = ("the flight recorder serializes raw log attrs; one logged "
               "secret would void every MAC the policer ever stamped")

    @classmethod
    def analyze(cls, graph: CallGraph,
                contexts: Sequence[FileContext]) -> List[Violation]:
        by_path = {ctx.path: ctx for ctx in contexts}
        return [cls._violation(f, by_path)
                for f in analyze_taint(graph, _NF102_SPEC)]


# ---------------------------------------------------------------------------
# NF103 — taint: MAC values are compared only via mac_equal
# ---------------------------------------------------------------------------

_NF103_SPEC = TaintSpec(
    code="NF103",
    source_calls=frozenset({"compute_mac"}),
    source_call_qnames=frozenset({"repro.crypto.mac.compute_mac"}),
    source_attrs=frozenset({"mac", "token_nop"}),
    sanitizer_calls=frozenset({"mac_equal"}),
    exempt_functions=frozenset({"mac_equal"}),
    check_compares=True,
    compare_message=("MAC value '{origin}' compared with ==/!= "
                     "(timing side channel); use crypto.mac.mac_equal"),
)


@register
class ConstantTimeMacCompareFlow(FlowRule):
    code = "NF103"
    name = "mac-compare-flow"
    rationale = (
        "every comparison against a MAC value (compute_mac result, "
        ".mac/.token_nop field) must route through mac_equal, even when the "
        "value crossed function boundaries first (interprocedural NF013)"
    )
    history = "crypto.mac.mac_equal exists precisely for this (seed)"

    @classmethod
    def analyze(cls, graph: CallGraph,
                contexts: Sequence[FileContext]) -> List[Violation]:
        by_path = {ctx.path: ctx for ctx in contexts}
        return [cls._violation(f, by_path)
                for f in analyze_taint(graph, _NF103_SPEC)]


def flow_rules(rules: Sequence[Type[LintRule]]) -> List[Type[FlowRule]]:
    """The flow-capable subset of a selected rule list."""
    return [rule for rule in rules
            if isinstance(rule, type) and issubclass(rule, FlowRule)]


def run_flow_rules(graph: CallGraph, contexts: Sequence[FileContext],
                   rules: Sequence[Type[FlowRule]]) -> List[Violation]:
    violations: List[Violation] = []
    for rule in rules:
        violations.extend(rule.analyze(graph, contexts))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations
