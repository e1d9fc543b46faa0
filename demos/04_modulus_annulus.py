"""Discrete p-modulus: annuli, squares, Loewner profiles.

The connecting-family modulus of a polar annulus converges to the classical
2 pi / log(R/r) as the grid is refined; a unit square's opposite-side family
sits near 1.  The solver reports a rigorous duality gap alongside the value.
"""
import math

from qrgraph import CurveFamily, annulus_modulus, modulus
from qrgraph.generators import gen_grid, gen_polar_grid
from qrgraph.modulus import loewner_profile, minimal_upper_gradient

# annulus [1, e] at s sectors and s + 1 rings, refined: the relative error to
# 2 pi / log(e) falls with s
print(f"annulus Mod_2, 2 pi / log(e) = {2 * math.pi:.5f}")
for s in (32, 64, 128, 256):
    ann = gen_polar_grid(s + 1, s, 1.0, math.e)
    fam = CurveFamily.connecting(
        ann,
        [f"r000s{j:03d}" for j in range(s)],
        [f"r{s:03d}s{j:03d}" for j in range(s)],
    )
    res = modulus(fam, p=2)
    err = abs(res.value - 2 * math.pi) / (2 * math.pi)
    print(f"  {s:3d} sectors: Mod_2 = {res.value:.5f}  relative error {err:.2%},"
          f" duality gap {res.gap:.1e}")

# shells inside a disk, via the annulus operation
disk = gen_polar_grid(16, 24, 0.0, 1.0)
radii = sorted({float(disk.dist[disk.i('center'), disk.i(f'r{i:03d}s000')]) for i in range(16)})
a, b = radii[3], radii[12]
res2 = annulus_modulus(disk, "center", a, b, p=2)
print(f"disk shells [{a:.3f}, {b:.3f}]: Mod_2 = {res2.value:.5f}"
      f"  (2 pi / log(b/a) = {2 * math.pi / math.log(b / a):.5f})")

# conformal square modulus ~ 1
g = gen_grid(10, 10)
sq = modulus(CurveFamily.connecting(
    g, [f"g000_{j:03d}" for j in range(11)], [f"g010_{j:03d}" for j in range(11)]), p=2)
print(f"unit square opposite sides: Mod_2 = {sq.value:.5f}")

# Loewner profile: modulus against relative separation
rows = loewner_profile(
    g,
    [([f"g000_{j:03d}" for j in range(4)], [f"g{i:03d}_{j:03d}" for j in range(4)])
     for i in (3, 5, 8, 10)],
    q=2.0,
)
print("\nLoewner profile (zeta, Mod_2, solver flags):")
for row in rows:
    print(f"  zeta = {row['zeta']:.3f}   Mod = {row['modulus']:.4f}"
          f"   flags: {', '.join(row['flags']) or 'none'}")

# minimal upper gradient of the distance function has slope <= 1
u = g.dist[g.i("g000_000")]
mug = minimal_upper_gradient(g, u)
print("\nmax slope of the minimal upper gradient of d(x0, .):",
      float(mug.values.max()))
