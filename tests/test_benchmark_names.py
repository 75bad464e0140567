"""The gsrecon names the benchmark under ``perfbench/`` traces and calls
still exist, so deleting one fails the test suite, not only the
benchmark's self-test.  Reads ``perfbench/`` and changes nothing there."""

import importlib.util
from pathlib import Path

from gsrecon import fem, geometry
from gsrecon.basis import SplineBasis
from gsrecon.mesh import build_rect_mesh

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_exists():
    # the Tracer constructor only plans its wrappers; it installs none
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.Tracer().absent == []


def test_names_the_run_record_calls():
    m = build_rect_mesh(2.0, 3.0, -1.2, 1.2, 8, 8)
    assert len(geometry.quadrature_points(m)[2]) == len(m.edge_index()[0])
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(m, fem.MU0),
                                 m.boundary).mat
    assert stiff.shape == (m.n_nodes, m.n_nodes)
    SplineBasis(end_constraint=True)
