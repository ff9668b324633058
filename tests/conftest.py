import random

import pytest

from equimap.groups import build_group, to_table


def swap_intercalate(t, rng):
    """The multiplication rows of t with one 2x2 Latin subsquare (rows r1, r2,
    columns c1, c2, products p, q crosswise) swapped, away from the identity.
    The result is still a Latin square with identity and inverses; for a
    group table it is never associative."""
    n = t.order
    while True:
        r1, c1, c2 = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        p, q = t.mul[r1][c1], t.mul[r1][c2]
        r2 = t.mul[p][t.inv[c2]]
        if (t.mul[r2][c1] == q and t.id not in (r1, r2, c1, c2, p, q)
                and r1 != r2 and c1 != c2):
            mul = [list(r) for r in t.mul]
            mul[r1][c1], mul[r1][c2], mul[r2][c1], mul[r2][c2] = q, p, p, q
            return mul


@pytest.fixture(scope="session")
def perturbed_2i_tables():
    """40 seeded order-120 Latin squares, each the 2I table with one
    intercalate swapped."""
    t = to_table(build_group("binary-icosahedral"))
    rng = random.Random(7)
    return [swap_intercalate(t, rng) for _ in range(40)]
