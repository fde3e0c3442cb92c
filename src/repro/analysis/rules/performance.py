"""Performance rules (PERF).

The batched timing kernel (:func:`repro.simulator.batch.run_pipeline_batch`,
surfaced as ``Simulator.simulate_batch``) replays a trace once for a whole
block of configs, so a per-point ``simulate_point``/``simulate`` loop in
harness or study code pays the per-instruction python overhead once per
design instead of once per block — typically a 3-6x slowdown at realistic
block sizes.  Small blocks, where the scalar pipeline is cheaper, are
routed by ``Simulator.simulate_many`` in the simulator package, so
harness and study code never need a per-point loop; the scalar oracle
the batch kernel is checked against lives in the tests, which are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..registry import Rule, register

#: Scalar per-point simulation entry points.  ``simulate_batch`` and
#: ``simulate_many`` are the batched replacements and never flagged.
_SCALAR_SIMULATE = {"simulate", "simulate_point"}

#: AST nodes whose lexical body repeats per element.
_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


class _LoopedCallScanner(ast.NodeVisitor):
    """Collect scalar-simulate calls lexically nested inside a loop."""

    def __init__(self) -> None:
        self._depth = 0
        self.hits: List[ast.Call] = []

    def visit(self, node: ast.AST) -> None:
        looping = isinstance(node, _LOOP_NODES)
        if looping:
            self._depth += 1
        if (
            self._depth
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SCALAR_SIMULATE
        ):
            self.hits.append(node)
        self.generic_visit(node)
        if looping:
            self._depth -= 1


@register
class ScalarSimulateInLoop(Rule):
    """PERF001: per-point simulation loop where the batch kernel applies."""

    id = "PERF001"
    name = "scalar-simulate-in-loop"
    severity = Severity.WARNING
    exempt_tests = True
    description = (
        "Per-point simulate()/simulate_point() call inside a loop in"
        " harness or study code — Simulator.simulate_batch replays the"
        " trace once per block of configs with bit-identical results;"
        " baseline intentional scalar reference paths with a reason."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag loop-nested scalar simulate calls in harness/studies."""
        if ctx.package not in ("harness", "studies"):
            return
        scanner = _LoopedCallScanner()
        scanner.visit(ctx.tree)
        for node in scanner.hits:
            yield self.finding(
                ctx,
                node.lineno,
                f"per-point {node.func.attr}() inside a loop; batch the"
                " block through Simulator.simulate_batch (or"
                " StudyContext.simulate_many) — results are bit-identical"
                " and the trace is replayed once per block",
                col=node.col_offset,
            )
