"""The candidate race that ends both extractors, :func:`pick`, the
extraction-report record it alone builds, and the report's JSON text."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .graph import ForbiddenFamily, Graph, certify, girth_json

SCHEMA_VERSION = 1


@dataclass
class ExtractionReport:
    """Run record emitted by both extractors.

    Only :func:`pick` builds one, and only for an output that passed
    certification (it raises otherwise), so the certificate status in the
    JSON is always "pass".  ``timing_ms`` is None unless timing was
    explicitly requested, so that identical command lines produce
    byte-identical reports.
    """

    input_n: int
    input_m: int
    method: str
    r: int
    trials: int
    seed: int
    output_edges: int
    output_min_degree: int
    output_girth: float
    family: ForbiddenFamily
    timing_ms: Optional[int] = None
    extras: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "input": {"n": self.input_n, "m": self.input_m},
            "method": self.method,
            "r": self.r,
            "trials": self.trials,
            "seed": self.seed,
            "output": {
                "edges": self.output_edges,
                "min_degree": self.output_min_degree,
                "girth": girth_json(self.output_girth),
            },
            "certificate": {
                "family": self.family.describe(),
                "status": "pass",
            },
            "timing_ms": self.timing_ms,
        }
        doc.update(self.extras)
        return doc

    def to_json(self) -> str:
        return dumps(self.to_dict())


def pick(
    g: Graph, fam: ForbiddenFamily, candidates: list, key: Callable,
    r: int, trials: int, seed: int, extras: dict,
) -> tuple[Graph, ExtractionReport]:
    """The earliest of the candidates with the largest ``key``, and its report.

    A candidate is ``(graph, certified girth or None, fields)``: ``fields``
    holds its ``"method"`` and the report extras it owns, which precede
    ``extras``.  A winner whose girth is None is certified here, so this is
    the one place an uncertified output can become a report.
    """
    best, girth, fields = max(candidates, key=lambda c: key(c[0]))
    method = fields["method"]
    if girth is None:
        girth = certify(best, fam, f"selected {method} output")
    own = {k: v for k, v in fields.items() if k != "method"}
    return best, ExtractionReport(
        input_n=g.n, input_m=g.m, method=method, r=r, trials=trials, seed=seed,
        output_edges=best.m, output_min_degree=best.min_degree(),
        output_girth=girth, family=fam, extras={**own, **extras},
    )


def dumps(doc: dict) -> str:
    """The one JSON text of every report: sorted keys, compact separators.

    A non-finite number raises ``ValueError`` instead of printing
    ``Infinity``, so a girth that skipped ``girth_json`` fails loudly.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
