import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest

from equimap.errors import NotPrime, OrderCapExceeded
from equimap.groups import (
    GroupTable,
    abelian_table,
    build_group,
    cyclic_table,
    direct_product,
    symmetric_table,
    to_table,
)
from equimap.jordan import (
    SubgroupList,
    _is_abelian_subset,
    _is_normal_in,
    closure,
    homeo_bound,
    jordan_constants,
    lattice_generators,
    m_of,
    m_of_witness,
    nonembeddability_threshold,
    p_rank,
    product_inequality_check,
    subgroups,
)
from equimap.scalars import MR_EXACT_BELOW, _is_prime
from test_kernel import base_tables, reference_close


@lru_cache(maxsize=None)
def tbl(name):
    if name == "q8":
        return to_table(build_group("dihedral", 2))
    if name == "bd8":
        return to_table(build_group("dihedral", 8))
    if name == "2t":
        return to_table(build_group("tetrahedral"))
    if name == "2o":
        return to_table(build_group("octahedral"))
    if name == "2i":
        return to_table(build_group("icosahedral"))
    if name == "s3xs3":
        return direct_product(tbl("s3"), tbl("s3"))
    if name == "z2^4":
        return abelian_table([2, 2, 2, 2])
    if name.startswith("s"):
        return symmetric_table(int(name[1:]))
    if name.startswith("z"):
        return cyclic_table(int(name[1:]))
    raise ValueError(name)


def pairwise_join_oracle(t):
    """Subgroup lattice by joining pairs of known subgroups, not atom chains,
    through the O(|K|^2) reference closure, so it shares no code with the
    package's closure."""
    found = {reference_close(t.mul, (x,)) for x in range(t.order)}
    found.add((t.id,))
    changed = True
    while changed:
        changed = False
        for a in list(found):
            aset = set(a)
            for b in list(found):
                if aset.issuperset(b):
                    continue
                j = reference_close(t.mul, a + b)
                if j not in found:
                    found.add(j)
                    changed = True
    return found


def lattice_generators_from_scratch(t):
    """The lattice loop as it ran before joins extended the known subgroup:
    each join H v <x> is closed from H's generator tuple plus x, from
    scratch."""
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
    return gens


class TestSubgroups:
    @pytest.mark.parametrize("name", ["(Z/2)^5", "S5", "S3xS4", "2O"])
    def test_joins_from_the_known_subgroup(self, name):
        """The same subgroups with the same generator tuples, found in the
        same order, as the joins closed from scratch."""
        t = base_tables()[name]
        got = lattice_generators(t)
        assert list(got.items()) == list(lattice_generators_from_scratch(t).items())
        assert len(subgroups(t)) == len(got)
        for h, hgens in got.items():
            assert closure(t, hgens) == h

    def test_cyclic_four(self):
        subs = subgroups(cyclic_table(4))
        assert len(subs) == 3
        assert [len(s) for s in subs] == [1, 2, 4]

    def test_quaternion(self):
        subs = subgroups(tbl("q8"))
        assert len(subs) == 6
        assert sorted(len(s) for s in subs) == [1, 2, 4, 4, 4, 8]

    def test_symmetric_three(self):
        assert len(subgroups(tbl("s3"))) == 6

    def test_symmetric_four(self):
        assert len(subgroups(tbl("s4"))) == 30

    def test_elementary_eight(self):
        # 1 + 7 points + 7 planes + 1 in the Fano lattice
        assert len(subgroups(abelian_table([2, 2, 2]))) == 16

    def test_every_entry_is_closed(self):
        t = tbl("s4")
        for s in subgroups(t):
            assert closure(t, s) == s

    def test_has_trivial_and_full(self):
        t = tbl("q8")
        subs = subgroups(t)
        assert subs[0] == (t.id,)
        assert subs[-1] == tuple(range(t.order))

    def test_matches_pairwise_join_oracle(self):
        for name in ("z6", "z12", "s3", "q8", "2t"):
            t = tbl(name)
            assert set(subgroups(t)) == pairwise_join_oracle(t), name

    def test_oracle_on_products(self):
        for t in (direct_product(cyclic_table(2), cyclic_table(4)),
                  direct_product(cyclic_table(2), tbl("s3"))):
            assert set(subgroups(t)) == pairwise_join_oracle(t)

    @pytest.mark.parametrize("name", ["bd8", "2o", "s3xs3", "z2^4"])
    def test_oracle_on_larger_tables(self, name):
        t = tbl(name)
        assert set(subgroups(t)) == pairwise_join_oracle(t)

    def test_known_counts(self):
        # S5 has 156 subgroups; SL(2, 5) has 76
        assert len(subgroups(tbl("s5"))) == 156
        assert len(subgroups(tbl("2i"))) == 76

    def test_lagrange(self):
        t = tbl("2t")
        for s in subgroups(t):
            assert t.order % len(s) == 0

    def test_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            subgroups(symmetric_table(4), cap=16)

    def test_cached_lattice_matches_fresh(self):
        t = to_table(build_group("tetrahedral"))
        cached = subgroups(t)
        assert subgroups(t) is cached
        assert m_of_witness(t) == m_of_witness(GroupTable(t.mul))
        fresh = subgroups(GroupTable(t.mul))
        assert fresh is not cached and fresh.subgroups == cached.subgroups
        with pytest.raises(OrderCapExceeded):
            subgroups(t, cap=16)
        with pytest.raises(OrderCapExceeded):
            jordan_constants(t, cap=16)

    def test_deterministic_order(self):
        a = subgroups(tbl("q8")).subgroups
        b = subgroups(tbl("q8")).subgroups
        assert a == b


class TestMOf:
    def test_abelian_is_one(self):
        assert m_of(cyclic_table(6)) == 1
        assert m_of(abelian_table([2, 2])) == 1

    def test_one_means_abelian(self):
        for name in ("z5", "q8", "s3", "s4"):
            t = tbl(name)
            assert (m_of(t) == 1) == t.is_abelian()

    def test_quaternion(self):
        assert m_of(tbl("q8")) == 2

    def test_symmetric_four(self):
        assert m_of(tbl("s4")) == 6

    def test_witness_is_normal_abelian(self):
        t = tbl("s4")
        m, w = m_of_witness(t)
        assert m == 6 and len(w) == 4
        # conjugation stability of the witness
        for g in range(t.order):
            for x in w:
                assert t.mul[t.mul[g][x]][t.inv[g]] in w


class TestAbelianShortcut:
    """An abelian table answers m = J = j = 1 with G as the witness, with no
    lattice built, and the same answer as the lattice gives."""

    @pytest.mark.parametrize("t", [cyclic_table(1), cyclic_table(12), abelian_table([2] * 5),
                                   abelian_table([4, 6]), abelian_table([2, 2, 3, 3])],
                             ids=["1", "z12", "z2^5", "z4xz6", "z2^2xz3^2"])
    def test_same_as_the_lattice(self, t):
        m, w = m_of_witness(t)
        assert "subgroups" not in t._cache
        assert jordan_constants(t) == (1, 1) and "subgroups" not in t._cache
        subs = subgroups(t)
        full = tuple(range(t.order))
        lattice_best = min((t.order // len(s), s) for s in subs
                           if _is_abelian_subset(t, s) and _is_normal_in(t, s, full))
        assert (m, w) == lattice_best == (1, full)
        assert jordan_constants_pair_loop(t) == (1, 1)

    def test_no_lattice_at_order_128(self):
        t = abelian_table([2] * 7)
        assert m_of_witness(t) == (1, tuple(range(128)))
        assert jordan_constants(t) == (1, 1)
        assert "subgroups" not in t._cache

    def test_cap_is_checked_first(self):
        t = abelian_table([2] * 9)
        for f in (m_of_witness, m_of, jordan_constants):
            with pytest.raises(OrderCapExceeded):
                f(t)
        with pytest.raises(OrderCapExceeded):
            m_of_witness(abelian_table([2] * 5), cap=16)

    def test_nonabelian_still_reads_the_lattice(self):
        t = symmetric_table(3)
        assert m_of_witness(t)[0] == 2
        assert "subgroups" in t._cache


class TestJordanConstants:
    def test_abelian(self):
        assert jordan_constants(abelian_table([4, 2])) == (1, 1)

    def test_quaternion(self):
        assert jordan_constants(tbl("q8")) == (2, 2)

    def test_symmetric(self):
        assert jordan_constants(tbl("s3")) == (2, 2)
        assert jordan_constants(tbl("s4")) == (6, 6)

    def test_binary_tetrahedral(self):
        # Q8 is normal but nonabelian, so the center is the best normal
        # abelian subgroup (index 12); the largest abelian subgroup is Z/6.
        assert jordan_constants(tbl("2t")) == (12, 4)

    def test_j_le_big_j(self):
        for name in ("z8", "s3", "q8", "s4", "2t"):
            big, small = jordan_constants(tbl(name))
            assert small <= big

    def test_at_least_m(self):
        for name in ("q8", "s4"):
            assert jordan_constants(tbl(name))[0] >= m_of(tbl(name))


def jordan_constants_pair_loop(t, cap=256):
    """(J, j) by the pair loop over the whole lattice that jordan_constants
    ran before it read both off the whole group: for every subgroup F, the
    least index in F of a normal abelian subgroup and of an abelian one."""
    subs = list(subgroups(t, cap))
    abelian = [_is_abelian_subset(t, s) for s in subs]
    sets = [frozenset(s) for s in subs]
    big_j = small_j = 1
    for f, fset in zip(subs, sets):
        best_m = best_a = None
        for s, sset, ab in zip(subs, sets, abelian):
            if not ab or not sset <= fset:
                continue
            idx = len(f) // len(s)
            if best_a is None or idx < best_a:
                best_a = idx
            if (best_m is None or idx < best_m) and _is_normal_in(t, s, f):
                best_m = idx
        big_j = max(big_j, best_m)
        small_j = max(small_j, best_a)
    return big_j, small_j


def workload_tables():
    """Every table the jordan-paths benchmark workload builds: its tables
    and the factors and products of its product checks."""
    out = {"S3": symmetric_table(3), "S4": symmetric_table(4), "Q8": tbl("q8"),
           "SL(2,3)": tbl("2t"), "2O": tbl("2o")}
    out.update({f"BD{ell}": to_table(build_group("dihedral", ell)) for ell in range(3, 9)})
    out.update({f"(Z/2)^{k}": abelian_table([2] * k) for k in range(1, 6)})
    out.update({f"Z/{n}": cyclic_table(n) for n in (2, 3, 4, 5, 6, 12, 16, 30)})
    for a, b in (("Z/2", "S4"), ("S3", "S3"), ("S3", "Q8"), ("Z/6", "S3"), ("Q8", "Q8"),
                 ("Z/2", "Q8"), ("Z/3", "Q8"), ("Z/4", "S3"), ("Z/2", "S3"), ("Q8", "Z/5")):
        out[f"{a} x {b}"] = direct_product(out[a], out[b])
    return out


class TestJordanConstantsAgainstPairLoop:
    def test_workload_tables(self):
        for name, t in workload_tables().items():
            assert jordan_constants(t) == jordan_constants_pair_loop(t), name

    def test_seeded_products(self):
        # products of two seeded small tables, up to order 144
        pool = [cyclic_table(n) for n in range(2, 9)] + [
            symmetric_table(3), tbl("q8"), tbl("2t"), to_table(build_group("dihedral", 3)),
            abelian_table([2, 2]), symmetric_table(4)]
        rng = random.Random(0x144)
        done = 0
        while done < 12:
            a, b = rng.choice(pool), rng.choice(pool)
            if a.order * b.order > 144:
                continue
            t = direct_product(a, b)
            assert jordan_constants(t) == jordan_constants_pair_loop(t)
            done += 1


class TestProductInequality:
    def test_s3_squared(self):
        rep = product_inequality_check(tbl("s3"), tbl("s3"))
        assert rep["m"]["product"] == 4
        assert rep["m"]["lower"] == 4
        assert rep["m"]["holds"]

    def test_z2_q8(self):
        rep = product_inequality_check(cyclic_table(2), tbl("q8"))
        assert rep["m"] == {"a": 1, "b": 2, "product": 2, "lower": 2,
                            "holds": True}

    def test_abelian_pair(self):
        rep = product_inequality_check(cyclic_table(3), cyclic_table(4))
        assert rep["m"]["product"] == 1
        assert rep["J"]["product"] == 1

    def test_catalog_pairs_hold(self):
        pairs = [
            ("z2", "q8"), ("z3", "q8"), ("z4", "s3"), ("z2", "s3"),
            ("z2", "s4"), ("s3", "s3"), ("q8", "z5"), ("s3", "q8"),
            ("z6", "s3"), ("q8", "q8"),
        ]
        for na, nb in pairs:
            rep = product_inequality_check(tbl(na), tbl(nb))
            assert rep["m"]["holds"], (na, nb)
            assert rep["J"]["holds"], (na, nb)
            assert rep["j"]["holds"], (na, nb)

    def test_s3_s4(self):
        rep = product_inequality_check(tbl("s3"), tbl("s4"))
        assert rep["order"] == 144
        for key in ("m", "J", "j"):
            assert rep[key] == {"a": 2, "b": 6, "product": 12, "lower": 12,
                                "holds": True}, key

    def test_product_cap(self):
        with pytest.raises(OrderCapExceeded):
            product_inequality_check(tbl("s4"), tbl("s4"), cap=256)


class TestPRank:
    def test_elementary(self):
        assert p_rank(abelian_table([2, 2, 2]), 2) == 3

    def test_quaternion(self):
        # -1 is the only involution
        assert p_rank(tbl("q8"), 2) == 1

    def test_symmetric_three(self):
        assert p_rank(tbl("s3"), 3) == 1
        assert p_rank(tbl("s3"), 2) == 1

    def test_symmetric_four(self):
        assert p_rank(tbl("s4"), 2) == 2
        assert p_rank(tbl("s4"), 3) == 1

    def test_no_p_torsion(self):
        assert p_rank(tbl("s3"), 5) == 0
        assert p_rank(cyclic_table(8), 3) == 0

    def test_cyclic_towers(self):
        assert p_rank(cyclic_table(8), 2) == 1
        assert p_rank(abelian_table([4, 4]), 2) == 2
        assert p_rank(cyclic_table(12), 2) == 1

    def test_not_prime(self):
        for bad in (1, 4, 6, 0, -3):
            with pytest.raises(NotPrime):
                p_rank(cyclic_table(4), bad)

    def test_primality_matches_trial_division(self):
        def trial(p):
            return p >= 2 and all(p % f for f in range(2, isqrt(p) + 1))
        rng = random.Random(0x9d32)
        ps = list(range(-3, 5000)) + [rng.randrange(5000, 10**10) for _ in range(300)]
        # Carmichael numbers, then the least strong pseudoprimes to the
        # first 4, 5 and 6 prime bases
        ps += [561, 1105, 3215031751, 2152302898747, 3474749660383]
        for p in ps:
            assert _is_prime(p) == trial(p), p

    def test_large_p(self):
        assert p_rank(tbl("q8"), 10**18 + 3) == 0
        with pytest.raises(NotPrime):
            p_rank(tbl("q8"), (2**61 - 1) ** 2)
        # a prime past the bound where the bases decide primality exactly
        with pytest.raises(ValueError, match="not decided"):
            p_rank(tbl("q8"), 2**89 - 1)
        with pytest.raises(ValueError, match="not decided"):
            p_rank(tbl("q8"), MR_EXACT_BELOW)

    def test_additive_under_products(self):
        # heuristic at this scale, exact for the sampled pairs
        rng = random.Random(0x9d31)
        small = ["z2", "z4", "s3", "q8", "z3"]
        for _ in range(6):
            na, nb = rng.choice(small), rng.choice(small)
            a, b = tbl(na), tbl(nb)
            prod = direct_product(a, b)
            for p in (2, 3):
                assert p_rank(prod, p) == p_rank(a, p) + p_rank(b, p), (na, nb, p)


class TestThreshold:
    def test_examples(self):
        assert nonembeddability_threshold(288) == 8
        assert nonembeddability_threshold(1) == 0
        assert nonembeddability_threshold(10368) == 13

    def test_powers_of_two(self):
        for k in range(12):
            assert nonembeddability_threshold(2 ** k) == k
            if k:
                assert nonembeddability_threshold(2 ** k - 1) == k - 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nonembeddability_threshold(0)


class TestHomeoBound:
    def test_two_two(self):
        out = homeo_bound(2, 2)
        assert out["d"] == 6
        assert Fraction(560, 100) < out["low"] <= out["high"] < Fraction(561, 100)

    def test_one_one_exact(self):
        out = homeo_bound(1, 1)
        assert out["d"] == 3
        assert out["low"] == out["high"] == 2

    def test_enclosure_width(self):
        rng = random.Random(0x77a2)
        for _ in range(20):
            n, b = rng.randrange(1, 9), rng.randrange(1, 600)
            out = homeo_bound(n, b)
            assert out["high"] - out["low"] < Fraction(1, 100)
            assert out["low"] <= out["high"]
            assert out["d"] > out["high"] - 1
            assert out["d"] - 1 <= out["high"]

    def test_monotone_in_b(self):
        prev = homeo_bound(2, 1)["high"]
        for b in range(2, 12):
            cur = homeo_bound(2, b)["low"]
            assert cur > prev - Fraction(1, 50)
            prev = homeo_bound(2, b)["high"]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            homeo_bound(0, 2)
        with pytest.raises(ValueError):
            homeo_bound(2, 0)
