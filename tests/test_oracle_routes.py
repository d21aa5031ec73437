"""The oracles expand x^3 and E on a route of their own.

The integer forms hold D^2 x^3 only as x_0-degree blocks and E only as
the blocks of the radial quintic.  An oracle that read those blocks
would compare a route with itself, so ``tests/oracles.py`` builds x^3 by
one product of x^2 with x and E from that, and this test keeps it so.
"""

import ast
import os

ORACLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")
BLOCK_ROUTE = {"radial_blocks", "cube_block", "_build_cube_block", "quintic"}


def block_route_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each attribute or name of the block route read in source."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BLOCK_ROUTE:
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in BLOCK_ROUTE:
            reads.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in BLOCK_ROUTE:
            reads.append((node.lineno, node.name))
    return sorted(reads)


def test_the_oracles_never_read_the_block_route():
    with open(ORACLES, encoding="utf-8") as handle:
        assert block_route_reads(handle.read()) == []


def test_the_guard_sees_each_kind_of_read():
    source = "forms.quintic\nf(forms.cube_block(0))\nfrom coneforge._zpoly import radial_blocks\n_build_cube_block\n"
    assert [name for _, name in block_route_reads(source)] == [
        "quintic",
        "cube_block",
        "radial_blocks",
        "_build_cube_block",
    ]
