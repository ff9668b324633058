"""Brute-force invariants of finite multiplication tables.

Everything here is exhaustive at desk scale: the subgroup lattice is built
bottom-up from cyclic atoms, each join extending a known subgroup by one more
generator through its cosets (`groups.closure`), and m, p-ranks and product
inequalities are read straight off it. The Jordan constants J and j are
maxima over all subgroups F, but both are monotone in F, so they are read off
the whole group: J = m(G), and j is |G| over the largest abelian order
(`jordan_constants` has the proof). The bound evaluator at the end works in
exact rational arithmetic with certified enclosures.
"""

from fractions import Fraction
from math import floor, isqrt

from .errors import CheckFailed, NotPrime, OrderCapExceeded
from .groups import closure, direct_product

SUBGROUP_ORDER_CAP = 256


class SubgroupList:
    """All subgroups of a table, as sorted index tuples, smallest first."""

    __slots__ = ("subgroups",)

    def __init__(self, parent, subgroups):
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


def subgroups(t, cap=SUBGROUP_ORDER_CAP):
    """Every subgroup, by joining cyclic atoms until the lattice is stable.

    Each subgroup found keeps the generator tuple it was found from: an atom
    <x> keeps (x,) for its least x, and the join of H with an atom <x>, x not
    in H, is the closure of H's tuple plus x. The lattice is computed once
    per table and kept in its cache; the cap is checked on every call.
    """
    if t.order > cap:
        raise OrderCapExceeded("table order %d exceeds the cap %d" % (t.order, cap))
    subs = t._cache.get("subgroups")
    if subs is not None:
        return subs
    gens = {}
    for x in range(t.order):
        gens.setdefault(closure(t, (x,)), (x,))
    atoms = [x for (x,) in gens.values()]
    frontier = list(gens)
    while frontier:
        h = frontier.pop()
        hs = set(h)
        for x in atoms:
            if x in hs:
                continue
            hx = gens[h] + (x,)
            j = closure(t, hx)
            if j not in gens:
                gens[j] = hx
                frontier.append(j)
    subs = t._cache["subgroups"] = SubgroupList(t, gens)
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
    """(J, j): J the largest m(F) over the subgroups F, m(F) the least index
    of a normal abelian subgroup of F, and j the largest least index of an
    abelian subgroup of F.

    Both are taken at F = G. For F <= G and N normal abelian in G, F n N is
    normal abelian in F, and [F : F n N] = |FN| / |N| <= [G : N], since
    |FN| = |F| |N| / |F n N| counts a subset of G. So m(F) <= m(G), and
    J = m(G). The same count with A abelian, not necessarily normal, gives
    j = [G : A] for A an abelian subgroup of the largest order. j <= J, as
    a normal abelian subgroup is abelian; CheckFailed otherwise.
    """
    big_j = m_of(t, cap)
    small_j = t.order // max(len(s) for s in subgroups(t, cap) if _is_abelian_subset(t, s))
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


# Miller-Rabin to the prime bases up to 41 is exact below the least strong
# pseudoprime to all of them (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin. A witness proves p composite at any size;
    passing every base proves p prime only below MR_EXACT_BELOW, and above
    it the question is refused (ValueError) rather than guessed."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= MR_EXACT_BELOW:
        raise ValueError("primality of %d is not decided at or above %d"
                         % (p, MR_EXACT_BELOW))
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
