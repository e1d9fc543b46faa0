"""Check that the benchmark's input records match qrgraph's own generators.

``run.py --smoke`` runs this; it exits 1 and names the first mismatch.
"""
from __future__ import annotations

import math
import sys

import inputs
from qrgraph.generators import gen_cycle_cover, gen_polar_grid, gen_winding
from qrgraph.spaces import space_to_json


def normal(space: dict) -> tuple:
    """Vertex records in order, edges as an unordered set."""
    verts = tuple((v["id"], v["mass"]) for v in space["vertices"])
    edges = frozenset((frozenset((e["u"], e["v"])), e["len"]) for e in space["edges"])
    return verts, edges, space["dist"]


def same_map(rec: dict, vm) -> bool:
    pairs = {vm.source.ids[i]: vm.target.ids[int(vm.f[i])] for i in range(vm.source.n)}
    return (normal(rec["source"]) == normal(space_to_json(vm.source))
            and normal(rec["target"]) == normal(space_to_json(vm.target))
            and rec["assignment"] == pairs)


def main() -> int:
    cases = {
        "annulus 8": normal(inputs.annulus_records(8))
        == normal(space_to_json(gen_polar_grid(9, 8, 1.0, math.e))),
        "annulus 12": normal(inputs.annulus_records(12))
        == normal(space_to_json(gen_polar_grid(13, 12, 1.0, math.e))),
        "winding 2,4,8": same_map(inputs.winding_records(2, 4, 8), gen_winding(2, 4, 8)),
        "winding 3,3,8": same_map(inputs.winding_records(3, 3, 8), gen_winding(3, 3, 8)),
        "cycle cover 8,2": same_map(inputs.cycle_cover_records(8, 2), gen_cycle_cover(8, 2)),
    }
    bad = [name for name, ok in cases.items() if not ok]
    if bad:
        print(f"mismatch: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
