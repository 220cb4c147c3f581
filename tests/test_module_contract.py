"""Module attributes that the benchmark's tracer (``bench/spans.py``) wraps
by name, as listed in ROADMAP.md under "Names the harness relies on": each
must exist with the same parameters, and the cached ones must keep
``.cache_info()``.  The benchmark itself is not imported here."""

import importlib
import inspect

import pytest

# (module, attribute, parameter names)
NAMES = (
    ("core_order", "f_classes", ("T",)),
    ("labelled_graph", "cached_order", ("T",)),
    ("smorita", "cached_order", ("T",)),
    ("decide", "build_graph", ("T",)),
    ("labelled_graph", "build_graph", ("T",)),
    ("decide", "graphs_isomorphic_ordered", ("G1", "G2")),
    ("smorita", "build_cd", ("T",)),
    ("smorita", "cd_isomorphic", ("cd1", "cd2")),
    ("smorita", "coherent_check", ("T",)),
    ("lgis", "run_axiom_suite", ("G", "maxlen", "samples3", "seed")),
    ("sweeps", "sweep_oracle", ("T", "depth")),
)
CACHED = {("labelled_graph", "cached_order"), ("smorita", "cached_order")}


@pytest.mark.parametrize("module, attr, params", NAMES)
def test_named_attribute_keeps_its_signature(module, attr, params):
    fn = getattr(importlib.import_module(f"shiftmorita.{module}"), attr)
    assert tuple(inspect.signature(fn).parameters) == params
    if (module, attr) in CACHED:
        assert fn.cache_info().maxsize is not None
