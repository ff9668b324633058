"""Cyclotomic scalar layer: pinned values, oracles, field axioms."""

import random
from fractions import Fraction

import pytest

from equimap import scalars as S
from equimap.errors import ConductorMismatch, NotADivisor


def brute_cyclotomic(n):
    """Independent oracle: peel Phi_d factors off x^n - 1 by rational division."""
    from fractions import Fraction as F

    def divexact(p, q):
        p = [F(c) for c in p]
        dq = len(q) - 1
        quot = [F(0)] * (len(p) - dq)
        for k in range(len(p) - 1, dq - 1, -1):
            c = p[k] / q[-1]
            quot[k - dq] = c
            for j in range(dq + 1):
                p[k - dq + j] -= c * q[j]
        assert all(c == 0 for c in p)
        return quot

    table = {1: [F(-1), F(1)]}
    for m in range(2, n + 1):
        p = [F(0)] * (m + 1)
        p[0], p[m] = F(-1), F(1)
        for d in range(1, m):
            if m % d == 0:
                p = divexact(p, table[d])
        table[m] = p
    out = table[n]
    assert all(c.denominator == 1 for c in out)
    return tuple(int(c) for c in out)


class TestCyclotomicPoly:
    def test_phi_1(self):
        assert S.cyclotomic_poly(1) == (-1, 1)

    def test_phi_4(self):
        assert S.cyclotomic_poly(4) == (1, 0, 1)

    def test_phi_12_against_oracle(self):
        assert S.cyclotomic_poly(12) == brute_cyclotomic(12)
        assert S.cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 20, 24])
    def test_oracle_agreement(self, n):
        assert S.cyclotomic_poly(n) == brute_cyclotomic(n)

    @pytest.mark.parametrize("n", [4, 5, 8, 12, 20, 24])
    def test_root_annihilates(self, n):
        # Phi_n(zeta_n) = 0 after reduction
        z = S.zeta(n)
        acc = S.zero(n)
        for k, c in enumerate(S.cyclotomic_poly(n)):
            acc = acc + S.CycNum.from_rational(c, n) * z**k
        assert acc.is_zero()


class TestArithmetic:
    def test_mul_inverse_roots(self):
        assert S.zeta(5) * S.zeta(5, 4) == 1

    def test_sum_of_nontrivial_fifth_roots(self):
        total = sum((S.zeta(5, k) for k in range(1, 5)), S.zero(5))
        assert total == -1

    def test_div_by_one_plus_i(self):
        # oracle: (1+i)(1-i) = 2, so 1/(1+i) = (1-i)/2
        i = S.zeta(4)
        lhs = S.one(4) / (1 + i)
        expected = (1 - i) / 2
        assert lhs == expected
        assert (1 + i) * lhs == 1

    def test_field_operations(self):
        a, b = S.zeta(8), S.zeta(8, 3)
        assert a * b == S.zeta(8, 4)
        assert (a * b) / b == a
        assert (a - a).is_zero()
        assert (a + -a).is_zero()

    def test_conductor_mismatch_rejected(self):
        with pytest.raises(ConductorMismatch):
            S.zeta(4) + S.zeta(8)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            S.one(4) / S.zero(4)

    def test_rational_promotion(self):
        a = S.zeta(12)
        assert (a * Fraction(3, 2)) / Fraction(3, 2) == a
        assert a * 0 == S.zero(12)


def random_cyc(rng, n, ctx_phi):
    return S.CycNum(
        n,
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in range(ctx_phi)
        ],
    )


class TestFieldAxioms:
    @pytest.mark.parametrize("n", [4, 5, 12, 20, 24])
    def test_randomized(self, n):
        rng = random.Random(20260817 + n)
        phi = S.get_context(n).phi
        for _ in range(25):
            a = random_cyc(rng, n, phi)
            b = random_cyc(rng, n, phi)
            c = random_cyc(rng, n, phi)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * (1 / a) == 1
                assert (b / a) * a == b


class TestEmbed:
    def test_z2_into_4(self):
        a = S.zeta(2)  # -1 over conductor 2
        e = S.cyc_embed(a, 4)
        assert e.conductor == 4
        assert e == S.CycNum.from_rational(-1, 4)

    def test_rational_identity(self):
        a = S.CycNum.from_rational(Fraction(3, 2), 1)
        e = S.cyc_embed(a, 8)
        assert e.conductor == 8 and e == Fraction(3, 2)

    def test_golden_square_identity(self):
        # (zeta5 + zeta5^-1)^2 = (3 - sqrt5)/2 with sqrt5 = z - z^2 - z^3 + z^4,
        # both sides expanded in the conductor-20 power basis
        z = S.zeta(5)
        a = S.cyc_embed(z + z**4, 20)
        z20_5 = S.cyc_embed(z, 20)
        sqrt5 = z20_5 - z20_5**2 - z20_5**3 + z20_5**4
        assert a * a == (3 - sqrt5) / 2

    def test_rejects_non_divisor(self):
        with pytest.raises(NotADivisor):
            S.cyc_embed(S.zeta(4), 6)

    @pytest.mark.parametrize("n,m", [(4, 12), (5, 20), (8, 24)])
    def test_commutes_with_arithmetic(self, n, m):
        rng = random.Random(77 + n)
        phi = S.get_context(n).phi
        for _ in range(10):
            a = random_cyc(rng, n, phi)
            b = random_cyc(rng, n, phi)
            ea, eb = S.cyc_embed(a, m), S.cyc_embed(b, m)
            assert S.cyc_embed(a + b, m) == ea + eb
            assert S.cyc_embed(a * b, m) == ea * eb
            assert S.cyc_embed(a - b, m) == ea - eb
            if not b.is_zero():
                assert S.cyc_embed(a / b, m) == ea / eb

    def test_injective_on_samples(self):
        rng = random.Random(3)
        phi = S.get_context(5).phi
        seen = {}
        for _ in range(40):
            a = random_cyc(rng, 5, phi)
            e = S.cyc_embed(a, 20)
            if e in seen:
                assert seen[e] == a
            seen[e] = a


def cyc_inv_conj(a):
    """The automorphism zeta_n -> zeta_n^(n-1), by the kernel's basis map."""
    return S.CycNum._wrap(a.n, S._map_basis(a.raw, S.get_context(a.n), a.n - 1))


class TestInvConj:
    def test_fixes_rationals(self):
        a = S.CycNum.from_rational(Fraction(7, 3), 12)
        assert cyc_inv_conj(a) == a

    def test_i_to_minus_i(self):
        assert cyc_inv_conj(S.zeta(4)) == -S.zeta(4)

    def test_real_combination_fixed(self):
        a = S.zeta(5) + S.zeta(5, 4)
        assert cyc_inv_conj(a) == a

    @pytest.mark.parametrize("n", [5, 8, 12, 20])
    def test_ring_automorphism_and_involution(self, n):
        rng = random.Random(99 + n)
        phi = S.get_context(n).phi
        for _ in range(15):
            a = random_cyc(rng, n, phi)
            b = random_cyc(rng, n, phi)
            assert cyc_inv_conj(cyc_inv_conj(a)) == a
            assert cyc_inv_conj(a + b) == cyc_inv_conj(a) + cyc_inv_conj(b)
            assert cyc_inv_conj(a * b) == cyc_inv_conj(a) * cyc_inv_conj(b)


class TestJson:
    def test_rational_strings(self):
        assert S.frac_to_str(Fraction(3, 1)) == "3"
        assert S.frac_to_str(Fraction(-7, 2)) == "-7/2"
        assert S.frac_from_str("-7/2") == Fraction(-7, 2)

    def test_round_trip(self):
        rng = random.Random(11)
        for n in (1, 4, 20, 24):
            phi = S.get_context(n).phi
            for _ in range(5):
                a = random_cyc(rng, n, phi)
                assert S.cyc_from_json(S.cyc_to_json(a)) == a

    def test_shape(self):
        d = S.cyc_to_json(S.zeta(4))
        assert d == {"conductor": 4, "coeffs": ["0", "1"]}

    def test_from_json_matches_fraction_reading(self):
        # unreduced, negative-denominator and mixed entries, against the
        # Fraction-based constructor
        rng = random.Random(20261018)
        for n in (1, 3, 4, 12, 20):
            phi = S.get_context(n).phi
            for _ in range(20):
                coeffs = []
                for _ in range(phi):
                    p, q = rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6, -2, -9])
                    coeffs.append(str(p) if q == 1 and rng.random() < 0.5 else "%d/%d" % (p, q))
                got = S.cyc_from_json({"conductor": n, "coeffs": coeffs})
                want = S.CycNum(n, [S.frac_from_str(c) for c in coeffs])
                assert got.raw == want.raw

    @pytest.mark.parametrize("coeffs", [["1/0", "0"], [1, "0"], ["1", "0", "0"], ["1/2/3", "0"],
                                        ["x", "0"]])
    def test_from_json_rejects(self, coeffs):
        with pytest.raises(ValueError):
            S.cyc_from_json({"conductor": 4, "coeffs": coeffs})


class TestRootsOfUnity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 12, 28])
    def test_table(self, n):
        roots = S.get_context(n).roots_of_unity()
        # Q(zeta_n) holds lcm(2, n) roots of unity
        assert len(roots) == (n if n % 2 == 0 else 2 * n)
        for raw, (s, k) in roots.items():
            assert S.CycNum._wrap(n, raw) == S.zeta(n, k) * s
            if n % 2 == 0:
                assert s == 1
