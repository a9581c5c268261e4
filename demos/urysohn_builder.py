"""Finite spaces with the bounded extension property.

The closure loop adjoins a realizing point for every small admissible
one-point extension until none is missing.  For distances {1,2} the result is
a Rado-graph-like space; for {1,3} it is ultrametric and matches a grid.
"""

import itertools

from finmetric import (
    Config,
    DistanceSet,
    FiniteMetricSpace,
    copies,
    is_katetov,
    realizers,
    ultrametric_urysohn_grid,
    urysohn_approx,
)

s = DistanceSet((1, 2))
space, log = urysohn_approx(s, 3)
print(f"closure for distances {s} below size 3: {space.n} points, "
      f"{len(log.entries)} additions")

# re-check the extension property exhaustively
missing = 0
for size in (1, 2):
    for subset in itertools.combinations(range(space.n), size):
        sub = space.submetric(subset)
        for f in itertools.product(s, repeat=size):
            if is_katetov(sub, f)[0] and not realizers(space, subset, f):
                missing += 1
print("unrealized admissible extensions after closure:", missing)

# the space contains every small shape over {1,2}
path = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
cfg = Config(copies_bound=space.n)
print("copies of the 3-point path (1,1,2):", len(copies(space, path, cfg)))

# the ultrametric analogue has an explicit description: a grid of tuples
grid = ultrametric_urysohn_grid(DistanceSet((3, 1)), 2)
print("\nthe 2x2 ultrametric grid over {3,1}:")
for row in grid.d:
    print(" ".join(str(v) for v in row))
ultra_space, _ = urysohn_approx(DistanceSet((1, 3)), 3)
print(f"the {{1,3}} closure is ultrametric: {ultra_space.is_ultrametric()} "
      f"({ultra_space.n} points)")
