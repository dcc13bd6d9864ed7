"""The benchmark's span tracer still finds the engine's layers.

``perfbench/tracer.py`` wraps functions by the names their callers look them
up under.  A rename in the engine would silently empty a per-layer metric,
so this runs one traced ``analyze`` and checks the spans it must record.
"""

import sys
from pathlib import Path

from ttldelay import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer as tracing  # noqa: E402

CONFIG = ROOT / "configs" / "binary_two_level_mmm.yaml"


def analyze(out):
    argv = ["analyze", "--config", str(CONFIG), "--lump", "on",
            "--sweep", "tau_delta=0:1:2", "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_text()


def test_traced_analyze_records_engine_spans(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.operation(1):
        traced = analyze(tmp_path / "traced.csv")
    names = {span.name for span in tracer.spans}
    for layer in ("hierarchy.line_superpose", "lumping.lump_symmetric_level",
                  "cache_builders.build"):
        assert layer in names
    assert traced == analyze(tmp_path / "untraced.csv")
