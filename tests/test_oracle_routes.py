"""The oracles expand x^3 and E, and build algebras from cubics, on
routes of their own.

The integer forms hold D^2 x^3 only as x_0-degree blocks and E only as
the blocks of the radial quintic.  An oracle that read those blocks
would compare a route with itself, so ``tests/oracles.py`` builds x^3 by
one product of x^2 with x and E from that, and this test keeps it so.
Likewise its dense constructor from a cubic form never calls the sparse
``algebra_from_cubic`` it is compared with, and its gradient witness never
builds a component alone, as the witness it is compared with does.
"""

import ast
import os

ORACLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")
BLOCK_ROUTE = {"radial_blocks", "cube_block", "_build_cube_block", "quintic"}
SPARSE_COLUMNS = {"algebra_from_cubic"}


def route_reads(source: str, route=BLOCK_ROUTE) -> list[tuple[int, str]]:
    """(line, name) of each attribute or name of the route read in source."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in route:
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in route:
            reads.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in route:
            reads.append((node.lineno, node.name))
    return sorted(reads)


def oracle_source() -> str:
    with open(ORACLES, encoding="utf-8") as handle:
        return handle.read()


def test_the_oracles_never_read_the_block_route():
    assert route_reads(oracle_source()) == []


def test_the_dense_oracle_never_calls_the_sparse_columns():
    assert "def dense_algebra_from_cubic(" in oracle_source()
    assert route_reads(oracle_source(), SPARSE_COLUMNS) == []
    source = "cubic.algebra_from_cubic(u)\nfrom coneforge.cubic import algebra_from_cubic\n"
    assert len(route_reads(source, SPARSE_COLUMNS)) == 2


def test_the_gradient_oracle_builds_whole_products():
    # the witness it is compared with builds one component at a time
    assert "def gradient_witness(" in oracle_source()
    assert route_reads(oracle_source(), {"product_at", "_gradient_witness"}) == []


def test_the_guard_sees_each_kind_of_read():
    source = "forms.quintic\nf(forms.cube_block(0))\nfrom coneforge._zpoly import radial_blocks\n_build_cube_block\n"
    assert [name for _, name in route_reads(source)] == [
        "quintic",
        "cube_block",
        "radial_blocks",
        "_build_cube_block",
    ]
