"""Tests for the experiment harness (Tables III/IV flow)."""

import hashlib
import json

import pytest

from repro.backend.bitset import BitsetBDD
from repro.benchgen.paper_data import PAPER_ROWS
from repro.benchgen.registry import load_benchmark
from repro.engine.wire import cover_to_payload
from repro.harness.experiment import row_backend, run_benchmark
from repro.harness.report import comparison_lines, shape_summary
from repro.harness.tables import (
    render_table1,
    render_table2,
    render_table_results,
)


@pytest.fixture(scope="module")
def z4_result():
    return run_benchmark("z4", keep_artifacts=True)


@pytest.fixture(scope="module")
def newtpla2_result():
    return run_benchmark("newtpla2")


def test_result_fields(z4_result):
    assert z4_result.name == "z4"
    assert z4_result.n_inputs == 7 and z4_result.n_outputs == 4
    assert z4_result.area_f > 0
    assert 0 <= z4_result.pct_errors <= 100
    assert z4_result.op_areas.keys() == {"AND", "NOT_IMPLIES"}
    assert z4_result.time_s >= 0


def test_gain_formula(z4_result):
    expected = 100.0 * (z4_result.area_f - z4_result.area_and) / z4_result.area_f
    assert z4_result.gain_and == pytest.approx(expected)
    expected = 100.0 * (z4_result.area_f - z4_result.area_nimp) / z4_result.area_f
    assert z4_result.gain_nimp == pytest.approx(expected)


def test_z4_lands_in_table4_regime(z4_result):
    """z4 is the cleanest arithmetic instance: the paper reports 43.75%
    error and a ~98% g-area reduction; the reproduction matches both."""
    assert 35 <= z4_result.pct_errors <= 55
    assert z4_result.pct_reduction >= 90


def test_newtpla2_lands_in_table3_regime(newtpla2_result):
    assert newtpla2_result.pct_errors < 10
    assert abs(newtpla2_result.gain_and) <= 60


def test_artifacts_are_verified_decompositions(z4_result):
    from repro.core.bidecomposition import apply_operator
    from repro.core.operators import operator_by_name

    assert z4_result.artifacts is not None
    for artifacts in z4_result.artifacts:
        f = artifacts.f
        mgr = f.mgr
        for op_name, h_cover in artifacts.h_covers.items():
            op = operator_by_name(op_name)
            rebuilt = apply_operator(op, artifacts.g, h_cover.to_function(mgr))
            assert (rebuilt & f.care) == (f.on & f.care)


def test_render_table1_lists_all_operators():
    text = render_table1()
    for name in ("AND", "NOR", "XNOR", "IMPLIES"):
        assert name in text
    assert "f = g · h" in text


def test_render_table2_lists_formulas():
    text = render_table2()
    assert "g_off | f_dc" in text
    assert "0->1 approx of f" in text
    assert text.count("\n") >= 12


def test_render_results_table(z4_result):
    text = render_table_results([z4_result], "IV")
    assert "z4 (7/4)" in text
    assert "(paper)" in text
    row = PAPER_ROWS["z4"]
    assert f"{row.area_f:.0f}" in text.replace(" ", " ")


def test_render_results_without_paper(z4_result):
    text = render_table_results([z4_result], "IV", with_paper=False)
    assert "(paper)" not in text


def test_comparison_lines(z4_result):
    lines = comparison_lines([z4_result])
    assert len(lines) == 1
    assert "z4" in lines[0] and "paper" in lines[0]


def test_shape_summary(z4_result, newtpla2_result):
    summary = shape_summary([z4_result, newtpla2_result])
    assert summary["compared"] == 2
    assert 0 <= summary["gain_sign_matches"] <= 2
    assert 0 <= summary["operators_agree_measured"] <= 2


def test_isolated_area_columns(z4_result):
    # Network-aware accounting: the shared multi-output network can
    # never cost more than mapping every output separately.
    assert z4_result.area_f_isolated is not None
    assert z4_result.area_f <= z4_result.area_f_isolated
    assert z4_result.op_areas_isolated.keys() == z4_result.op_areas.keys()
    for op_name, shared in z4_result.op_areas.items():
        assert shared <= z4_result.op_areas_isolated[op_name]


def test_render_results_table_has_sharing_columns(z4_result):
    text = render_table_results([z4_result], "IV")
    assert "F iso" in text and "Shr%" in text


#: sha256 of each row's f/g/h cover payloads, network and isolated
#: areas and error rate (:func:`_row_digest`), recorded with every row
#: computed on BDDs.  Rows of <= 16 declared inputs compute in a dense
#: bitset manager; the digests pin that the backend is invisible.
GOLDEN_ROW_DIGESTS = {
    "z4": "b098b1e4f4317b5c1ca698fc06042ffd3c4cd253172d80afc0c2b1ab710e73b3",
    "radd": "843cc20f96c19caafbc8d954c9c0d0e8bd5e4281cf3f77658dd00070224e8870",
    "adr4": "a6e0a36cc4afb96b3765953db9f4f13d14e374f7d8597856f4ccfcf4bd4e97f2",
    "Z5xp1": "452c652dd88f3ede729c3d49eb75041f12862741bee36aa48251dec530749a17",
    "newtpla2": "f642a5f97a4a34f9aadd1f40d0bdcaab35e910b99f260cba870a6c67b05aad8f",
    "b7": "f123c939f910b71e17bc6a4ee59d1d61b3a0176083f5b013ba215cc44f4f4cce",
}


def _row_digest(result) -> str:
    outputs = [
        {
            "f": cover_to_payload(artifacts.f_cover),
            "g": cover_to_payload(artifacts.g_cover),
            "h": {
                op_name: cover_to_payload(cover)
                for op_name, cover in sorted(artifacts.h_covers.items())
            },
        }
        for artifacts in result.artifacts
    ]
    document = {
        "outputs": outputs,
        "area_f": result.area_f,
        "op_areas": result.op_areas,
        "area_f_isolated": result.area_f_isolated,
        "op_areas_isolated": result.op_areas_isolated,
        "pct_errors": result.pct_errors,
    }
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_ROW_DIGESTS))
def test_rows_match_golden_digests(name):
    result = run_benchmark(name, keep_artifacts=True)
    assert _row_digest(result) == GOLDEN_ROW_DIGESTS[name]


def test_narrow_rows_compute_in_bitset_manager(z4_result):
    for artifacts in z4_result.artifacts:
        assert isinstance(artifacts.f.mgr, BitsetBDD)
        assert artifacts.g.mgr is artifacts.f.mgr


@pytest.mark.parametrize(
    "name, backend", [("spla", "bitset"), ("opa", "bdd"), ("bcb", "bdd")]
)
def test_row_backend_follows_declared_width(name, backend):
    # spla declares exactly 16 inputs; opa declares 17 although most of
    # its outputs have support <= 16, so the whole row stays on BDDs.
    assert row_backend(load_benchmark(name)) == backend
