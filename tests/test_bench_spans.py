"""The traced benchmark run (`benchmarks/run.py --trace 1`) wraps library
layers by name from outside the library; every name must keep resolving."""

import importlib
import importlib.util
import sys
from pathlib import Path

from bianchicert import pipeline

from test_pipeline import sugared

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
        calls = dict(zip(tracer.names, tracer.calls))
        tracer.reset()
        assert pipeline.parse_witnesses(pipeline.render_witnesses([w])) == [w]
        rendered = dict(zip(tracer.names, tracer.calls))
        tracer.reset()
        assert pipeline.parse_witnesses(sugared(w)) == [w]
        sugar = dict(zip(tracer.names, tracer.calls))
    finally:
        tracer.uninstall()
    for name in ("pipeline.construct_witness", "pipeline.run_checks"):
        assert calls[name] >= 1, name
    assert calls["psl2.PslElement.pow"] == 0
    # the word is evaluated once by construct and once by verify, through eval_word
    assert calls["psl2.eval_word"] == 2
    # a record in render's form is read with one match of its mode's pattern,
    # with no call of the element and matrix parsers
    assert rendered["pipeline.parse_witnesses"] == 1
    assert rendered["psl2.parse_mat2"] == rendered["quadint.parse_quadint"] == 0
    # the line reader looks the parsers up by name on every call, so the tracer
    # sees each one: h and g_k are two matrices of four ring elements, plus xi,
    # alpha_k and beta_k
    assert sugar["psl2.parse_mat2"] == 2
    assert sugar["quadint.parse_quadint"] == 11
