"""Run reports as JSON, through the standard library encoder.

Floats are written as ``repr``: the shortest string that reads back to the
same double.  A report therefore parses back to exactly the values computed,
and a fixed config and seed give the same bytes on every run and platform.
NaN and infinity have no JSON form and raise ``ValueError``.
"""

from __future__ import annotations

import json


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"
