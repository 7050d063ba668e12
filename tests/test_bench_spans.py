"""The traced benchmark run (`benchmarks/run.py --trace 1`) wraps library
layers by name from outside the library; every name must keep resolving."""

import importlib
import importlib.util
import sys
from pathlib import Path

from bianchicert import pipeline

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves():
    spans = load_spans()
    for layer in spans.LAYERS:
        module_name, attr = layer.name.split(".")[:2]
        owner = importlib.import_module(f"bianchicert.{module_name}")
        assert hasattr(owner, attr), layer.name
        for method in layer.methods:
            assert method in vars(getattr(owner, attr)), (layer.name, method)


def test_traced_construct_and_verify_count_calls():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        w = pipeline.construct_witness(pipeline.FIG8, pipeline.validate_fig8(20, 7), 1)
        assert pipeline.verify_witness(w).ok
    finally:
        tracer.uninstall()
    calls = dict(zip(tracer.names, tracer.calls))
    for name in ("pipeline.construct_witness", "pipeline.run_checks", "psl2.PslElement.pow"):
        assert calls[name] >= 1, name
