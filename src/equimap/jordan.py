"""Brute-force invariants of finite multiplication tables.

Everything here is exhaustive at desk scale: the subgroup lattice is built
bottom-up from cyclic atoms, and the m/J/j constants, p-ranks, and product
inequalities are read straight off it. The bound evaluator at the end works
in exact rational arithmetic with certified enclosures.
"""

from fractions import Fraction
from math import floor, isqrt

from .errors import CheckFailed, NotPrime, OrderCapExceeded
from .groups import closure, direct_product

SUBGROUP_ORDER_CAP = 256


class SubgroupList:
    """All subgroups of a table, as sorted index tuples, smallest first."""

    __slots__ = ("parent", "subgroups")

    def __init__(self, parent, subgroups):
        self.parent = parent
        self.subgroups = tuple(
            sorted((tuple(sorted(s)) for s in subgroups), key=lambda s: (len(s), s))
        )
        if self.subgroups[0] != (parent.id,):
            raise CheckFailed("the smallest subgroup is not the trivial one")
        if self.subgroups[-1] != tuple(range(parent.order)):
            raise CheckFailed("the largest subgroup is not the whole group")

    def __len__(self):
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

    def __getitem__(self, i):
        return self.subgroups[i]

    def to_json(self):
        return {
            "order": self.parent.order,
            "subgroups": [list(s) for s in self.subgroups],
        }


def subgroups(t, cap=SUBGROUP_ORDER_CAP):
    """Every subgroup, by joining cyclic atoms until the lattice is stable.

    The lattice is computed once per table and kept in its cache; the cap is
    checked on every call.
    """
    if t.order > cap:
        raise OrderCapExceeded("table order %d exceeds the cap %d" % (t.order, cap))
    subs = t._cache.get("subgroups")
    if subs is not None:
        return subs
    atoms = {closure(t, (x,)) for x in range(t.order)}
    atom_sets = [(a, frozenset(a)) for a in sorted(atoms, key=lambda s: (len(s), s))]
    found = {(t.id,)} | atoms
    frontier = list(atoms)
    while frontier:
        h = frontier.pop()
        hs = frozenset(h)
        for a, aset in atom_sets:
            if aset <= hs:
                continue
            j = closure(t, h + a)
            if j not in found:
                found.add(j)
                frontier.append(j)
    subs = t._cache["subgroups"] = SubgroupList(t, found)
    return subs


def _is_abelian_subset(t, s):
    mul = t.mul
    for i, x in enumerate(s):
        for y in s[i + 1:]:
            if mul[x][y] != mul[y][x]:
                return False
    return True


def _is_normal_in(t, s, f):
    mul, inv = t.mul, t.inv
    sset = frozenset(s)
    for g in f:
        gi = inv[g]
        for x in s:
            if mul[mul[g][x]][gi] not in sset:
                return False
    return True


def m_of_witness(t, cap=SUBGROUP_ORDER_CAP):
    """(m, S): the least index of a normal abelian subgroup, with a witness."""
    subs = subgroups(t, cap)
    full = tuple(range(t.order))
    best = None
    witness = None
    for s in subs:
        if not _is_abelian_subset(t, s):
            continue
        if not _is_normal_in(t, s, full):
            continue
        idx = t.order // len(s)
        if best is None or idx < best:
            best, witness = idx, s
    return best, witness


def m_of(t, cap=SUBGROUP_ORDER_CAP):
    return m_of_witness(t, cap)[0]


def jordan_constants(t, cap=SUBGROUP_ORDER_CAP):
    """(J, j): worst m over subgroups, and worst min-abelian-index.

    J maximizes the least index of a normal abelian subgroup of F over all
    subgroups F; j drops the normality requirement, so j <= J always.
    """
    subs = list(subgroups(t, cap))
    abelian = [_is_abelian_subset(t, s) for s in subs]
    sets = [frozenset(s) for s in subs]
    big_j = small_j = 1
    for fi, f in enumerate(subs):
        fset = sets[fi]
        best_m = None
        best_a = None
        for si, s in enumerate(subs):
            if not abelian[si] or not (sets[si] <= fset):
                continue
            idx = len(f) // len(s)
            if best_a is None or idx < best_a:
                best_a = idx
            if (best_m is None or idx < best_m) and _is_normal_in(t, s, f):
                best_m = idx
        big_j = max(big_j, best_m)
        small_j = max(small_j, best_a)
    if small_j > big_j:
        raise CheckFailed(f"j = {small_j} exceeds J = {big_j}")
    return big_j, small_j


def product_inequality_check(a, b, cap=SUBGROUP_ORDER_CAP):
    """m, J, j on a, b, and a x b, with the product lower bounds."""
    if a.order * b.order > cap:
        raise OrderCapExceeded(
            "product order %d exceeds the cap %d" % (a.order * b.order, cap)
        )
    prod = direct_product(a, b)
    ma, mb = m_of(a, cap), m_of(b, cap)
    mp = m_of(prod, cap)
    ja, sa = jordan_constants(a, cap)
    jb, sb = jordan_constants(b, cap)
    jp, sp = jordan_constants(prod, cap)
    return {
        "order": prod.order,
        "m": {"a": ma, "b": mb, "product": mp, "lower": ma * mb,
              "holds": mp >= ma * mb},
        "J": {"a": ja, "b": jb, "product": jp, "lower": ja * jb,
              "holds": jp >= ja * jb},
        "j": {"a": sa, "b": sb, "product": sp, "lower": sa * sb,
              "holds": sp >= sa * sb},
    }


def _is_prime(p):
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def p_rank(t, p, cap=SUBGROUP_ORDER_CAP):
    """Largest k with an elementary abelian subgroup of order p^k."""
    if not _is_prime(p):
        raise NotPrime("%r is not prime" % (p,))
    best = 0
    for s in subgroups(t, cap):
        if len(s) == 1 or not _is_abelian_subset(t, s):
            continue
        if any(t.element_order(x) != p for x in s if x != t.id):
            continue
        k = 0
        m = len(s)
        while m % p == 0:
            m //= p
            k += 1
        if m != 1:
            raise CheckFailed(f"a subgroup of order {len(s)} with exponent {p} "
                              f"is not a {p}-group")
        best = max(best, k)
    return best


def nonembeddability_threshold(j_p):
    """floor(log2(J_P)): longer products of nonabelian-bearing groups can't embed."""
    if j_p < 1:
        raise ValueError("the Jordan constant is a positive integer")
    return j_p.bit_length() - 1


def homeo_bound(n, b_m):
    """Least integer d with d > (sqrt(n^2 + 4n(n+1)B) + n)/2 + log2(B).

    Both irrational pieces are bracketed exactly: the square root by scaled
    integer square roots, the logarithm by bit lengths of large powers. The
    bound can only be an exact integer when both pieces are rational (a
    rational log2 forces B to be a power of two), and that case is computed
    exactly, so the refinement loop terminates.
    """
    if n < 1 or b_m < 1:
        raise ValueError("need n >= 1 and B_M >= 1")
    disc = n * n + 4 * n * (n + 1) * b_m
    power_of_two = b_m & (b_m - 1) == 0

    def enclose(bits):
        scaled = disc << (2 * bits)
        r = isqrt(scaled)
        lo = Fraction(r, 1 << bits)
        hi = lo if r * r == scaled else Fraction(r + 1, 1 << bits)
        if power_of_two:
            llo = lhi = Fraction(b_m.bit_length() - 1)
        else:
            k = pow(b_m, 1 << bits).bit_length() - 1
            llo = Fraction(k, 1 << bits)
            lhi = Fraction(k + 1, 1 << bits)
        return (lo + n) / 2 + llo, (hi + n) / 2 + lhi

    bits = 12
    while True:
        lo, hi = enclose(bits)
        if hi - lo < Fraction(1, 100) and (lo == hi or floor(lo) == floor(hi)):
            return {"d": floor(hi) + 1, "low": lo, "high": hi}
        bits += 8
