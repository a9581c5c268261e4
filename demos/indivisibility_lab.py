"""Coloring experiments: annulus colorings, greedy chases, and chain spans.

The two-color annulus rule around a net of centers is the classical device
for dividing a space with a rich rational distance set; the greedy chase is
the opposite force, recovering monochromatic copies in extension-rich spaces.
"""

import random
from fractions import Fraction

from finmetric import (
    DistanceSet,
    FiniteMetricSpace,
    NetSystem,
    divisibility_coloring,
    greedy_monochromatic,
    indivisibility_search,
    lambda_epsilon,
    urysohn_approx,
)

# a tiny net: two centers of radius 2/5 owning two points each
rows = [[Fraction(0)] * 5 for _ in range(5)]
def put(i, j, v):
    rows[i][j] = rows[j][i] = Fraction(v)
put(0, 1, "21/100"); put(0, 2, "29/100"); put(1, 2, "1/5")
put(3, 4, "21/100")
for a in (0, 1, 2):
    for b in (3, 4):
        put(a, b, "9/10")
x = FiniteMetricSpace(rows)
net = NetSystem(centers=(0, 3), radii={0: Fraction(2, 5), 3: Fraction(2, 5)})
colors = divisibility_coloring(x, net)
print("annulus coloring over the two-center net:", "".join(map(str, colors)))

# exhaustive indivisibility scan on a small equilateral space
eq = FiniteMetricSpace.equilateral(6, 1)
target = FiniteMetricSpace.equilateral(3, 1)
report = indivisibility_search(eq, target, k=2)
print(f"all {len(report.outcomes)} two-colorings of 6 equal points keep a "
      f"monochromatic triple: {report.all_monochromatic()}")

# greedy chase in a Rado-like space
space, _ = urysohn_approx(DistanceSet((1, 2)), 3)
rng = random.Random(3)
coloring = [rng.randrange(2) for _ in range(space.n)]
path = FiniteMetricSpace([[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]])
res = greedy_monochromatic(space, coloring, path)
print(f"greedy chase for a 4-point path: found {len(res.copy_indices)} points "
      f"in color {res.color}" + ("" if res.complete else " (obstructed)"))

# chain spans: the largest distance reachable through small steps
line = FiniteMetricSpace([[abs(Fraction(a, 2) - Fraction(b, 2)) for b in range(3)] for a in range(3)])
print("span through 1/2-steps on {0, 1/2, 1}:", lambda_epsilon(line, 0, Fraction(1, 2)))
print("span when steps cannot bridge:", lambda_epsilon(line, 0, Fraction(1, 4)))
