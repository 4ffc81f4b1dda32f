"""Shared extraction-report record and its JSON serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .graph import ForbiddenFamily, GirthValue

SCHEMA_VERSION = 1


def girth_json(value: GirthValue):
    """Integers pass through; the acyclic sentinel serializes as 'Infinite'."""
    return value if isinstance(value, int) else "Infinite"


@dataclass
class ExtractionReport:
    """Run record emitted by both extractors.

    An extractor returns a report only for an output that passed
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
    output_girth: GirthValue
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
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
