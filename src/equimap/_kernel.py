"""Arithmetic kernel: flat-tuple cyclotomic scalars and the hot loops.

A scalar over conductor n with phi = deg Phi_n is a tuple of phi integer
numerators followed by one positive integer denominator, normalized so the
gcd of all entries is 1. `red` is a tuple of phi-1 integer rows; red[k] holds
the coefficients of x^(phi+k) reduced mod Phi_n (integral because Phi_n is
monic over Z).

The atoms skip the work their operands show is not needed, and their fast
paths rest on that canonical form: the denominator is positive and never 0,
the gcd of all entries is 1, and zero is (0, ..., 0, 1). So `c_is_zero` counts
zeros; an operand of `c_mul` that is rational (numerators 1..phi-1 zero) only
scales the other, and the canonical one, k = den = 1, returns it unchanged; and
a result over denominator 1 is canonical as it stands, with no gcd to take.
The loops above them do the same: `powers` stops at the first power equal to
the canonical one and repeats the list with that period, and `subst_forms`
scales no zero coefficient, so the zeros of a unit monomial take no product.
At phi = 1 (conductors 1 and 2) a scalar is a fraction (num, den), and
`c_add`, `c_mul` and `c_neg` compute the canonical pair directly, with no list
and no `c_norm`: their docstrings prove the result canonical.

A binary form of degree d is the list of its d+1 coefficients in the dense
basis x^d, x^(d-1)y, ..., y^d, and `subst_forms` is the one routine that
substitutes it by x -> u = m00*x + m01*y, y -> v = m10*x + m11*y. It splits
the matrix into a lower shear, a diagonal and an upper shear, and each shear
is a Taylor shift made of scalings and a shift by 1 in integer additions
alone (`shift_by_one`), so a form costs O(d) scalar products and O(d^2)
integer additions. No substitution matrix is built: the isotypic pieces
need only the images of a few monomials, which are forms like any other.
Field division stays outside the kernel: `rref` and `subst_forms` take the
inverse as `inv`.

`table_close` is the subgroup closure inside an integer multiplication
table, by Dimino's algorithm: the seed is added one generator at a time, and
each extension <H, g> is a union of right cosets of H, so it costs
|<H, g>| lookups where a fixed point of pairwise products costs |<H, g>|^2.
"""

from itertools import accumulate
from math import gcd
from operator import add


def c_norm(nums, den):
    if den == 1:
        return (*nums, 1)
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    elif not any(nums):
        return tuple(nums) + (1,)
    return tuple(nums) + (den,)


def c_is_zero(a):
    # every numerator is 0; the denominator never is
    return a.count(0) == len(a) - 1


def c_neg(a):
    phi = len(a) - 1
    if phi == 1:
        return (-a[0], a[1])
    return tuple(-a[i] for i in range(phi)) + (a[phi],)


def c_add(a, b):
    """a + b. At phi = 1 (conductors 1 and 2) a and b are canonical fractions
    x/dx and y/dy (dx, dy > 0, gcd(x, dx) = gcd(y, dy) = 1), added by
    Knuth's rational addition (TAOCP vol. 2, 4.5.1) into a canonical pair:
    - dx = dy = d: t = x + y over d, and g = gcd(t, d) is all that cancels.
      A zero sum gives g = gcd(0, d) = d, so (0, 1).
    - g = gcd(dx, dy) = 1: x*dy + y*dx over dx*dy is canonical. A prime
      p | dx dividing it divides x*dy, but p divides neither x nor dy;
      likewise for p | dy.
    - g > 1: the sum is t over (dx/g)*dy, t = x*(dy/g) + y*(dx/g). A prime
      of dx/g dividing t divides x*(dy/g), so it divides x, as dx/g and dy/g
      are coprime, against gcd(x, dx) = 1; likewise for dy/g. So t is prime
      to (dx/g)*(dy/g), and g2 = gcd(t, g) is all that cancels.
    Unequal denominators never sum to zero: then x/dx = -y/dy, and the
    canonical denominator of a fraction is unique. Every denominator is a
    quotient or product of positive integers, so it is positive.
    """
    phi = len(a) - 1
    da, db = a[phi], b[phi]
    if phi == 1:
        if da == db:
            if da == 1:
                return (a[0] + b[0], 1)
            t = a[0] + b[0]
            g = gcd(t, da)
            return (t // g, da // g) if g > 1 else (t, da)
        g = gcd(da, db)
        if g == 1:
            return (a[0] * db + b[0] * da, da * db)
        t = a[0] * (db // g) + b[0] * (da // g)
        g2 = gcd(t, g)
        if g2 == 1:
            return (t, da // g * db)
        return (t // g2, da // g * (db // g2))
    if da == db:
        if da == 1:
            out = list(map(add, a, b))
            out[phi] = 1
            return tuple(out)
        return c_norm([a[i] + b[i] for i in range(phi)], da)
    g = gcd(da, db)
    ma, mb = db // g, da // g
    return c_norm([a[i] * ma + b[i] * mb for i in range(phi)], da // g * db)


def c_sub(a, b):
    return c_add(a, c_neg(b))


def _scale(a, q, phi):
    """a times the rational scalar q, skipping the product by 1 and by 0."""
    k, dq = q[0], q[phi]
    if k == dq:
        return a
    if not k:
        return q
    return c_norm([k * v for v in a[:phi]], dq * a[phi])


def c_mul(a, b, red, phi):
    """a * b over the field whose reduction rows are `red`.

    At phi = 1 the pair x*y over dx*dy is made canonical with one gcd, and
    stays so: divided by g = gcd(x*y, dx*dy) it is canonical, over a positive
    denominator, and a zero product gives g = dx*dy, so (0, 1). When one
    denominator is 1, say dx, g = gcd(x, dy) on the smaller numbers, as y is
    prime to dy.
    """
    da, db = a[phi], b[phi]
    if phi == 1:
        x, y = a[0], b[0]
        if da == 1:
            if db == 1:
                return (x * y, 1)
            g = gcd(x, db)
            return (x // g * y, db // g) if g > 1 else (x * y, db)
        if db == 1:
            g = gcd(y, da)
            return (y // g * x, da // g) if g > 1 else (x * y, da)
        n, d = x * y, da * db
        g = gcd(n, d)
        return (n // g, d // g) if g > 1 else (n, d)
    # an operand is rational when numerators 1..phi-1 are 0: all phi of its
    # numerators are 0 (it is zero), or phi-1 are and the first is not
    z = b.count(0)
    if z == phi or (z == phi - 1 and b[0]):
        return _scale(a, b, phi)
    z = a.count(0)
    if z == phi or (z == phi - 1 and a[0]):
        return _scale(b, a, phi)
    conv = [0] * (2 * phi - 1)
    for i in range(phi):
        ai = a[i]
        if ai:
            for j in range(phi):
                bj = b[j]
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:phi]
    for k in range(phi, 2 * phi - 1):
        ck = conv[k]
        if ck:
            row = red[k - phi]
            for j in range(phi):
                rj = row[j]
                if rj:
                    out[j] += ck * rj
    if da == 1 and db == 1:
        return (*out, 1)
    return c_norm(out, da * db)


def vec_axpy(dst, c, src, red, phi):
    """dst[i] += c*src[i] in place; skips zero entries."""
    if c_is_zero(c):
        return
    for i in range(len(src)):
        s = src[i]
        if not c_is_zero(s):
            dst[i] = c_add(dst[i], c_mul(c, s, red, phi))


def row_scale(row, c, red, phi):
    if c_is_zero(c):
        zero = (0,) * phi + (1,)
        return [zero] * len(row)
    return [c_mul(c, x, red, phi) if not c_is_zero(x) else x for x in row]


def rref(rows, red, phi, inv):
    """In-place reduced row echelon form; returns the pivot column list.

    `inv` maps a nonzero scalar to its inverse (field division lives outside
    the kernel). Deterministic: first nonzero row wins each pivot.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    nrows = len(rows)
    pivots = []
    rank = 0
    for col in range(ncols):
        pr = -1
        for r in range(rank, nrows):
            if not c_is_zero(rows[r][col]):
                pr = r
                break
        if pr < 0:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        piv = rows[rank][col]
        if piv[:phi] != (1,) + (0,) * (phi - 1) or piv[phi] != 1:
            rows[rank] = row_scale(rows[rank], inv(piv), red, phi)
        prow = rows[rank]
        for r in range(nrows):
            if r != rank and not c_is_zero(rows[r][col]):
                vec_axpy(rows[r], c_neg(rows[r][col]), prow, red, phi)
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return pivots


def poly_mul(p, q, red, phi):
    zero = (0,) * phi + (1,)
    out = [zero] * (len(p) + len(q) - 1)
    for i in range(len(p)):
        pi = p[i]
        if not c_is_zero(pi):
            for j in range(len(q)):
                qj = q[j]
                if not c_is_zero(qj):
                    out[i + j] = c_add(out[i + j], c_mul(pi, qj, red, phi))
    return out


def poly_divmod_monic(p, q, red, phi):
    """Divide p by monic q (leading coefficient 1); returns (quot, rem)."""
    zero = (0,) * phi + (1,)
    dq = len(q) - 1
    rem = list(p)
    if len(rem) - 1 < dq:
        return [zero], rem
    quot = [zero] * (len(rem) - dq)
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k]
        if c_is_zero(c):
            continue
        quot[k - dq] = c
        rem[k] = zero
        for j in range(dq):
            t = q[j]
            if not c_is_zero(t):
                rem[k - dq + j] = c_sub(rem[k - dq + j], c_mul(c, t, red, phi))
    while len(rem) > 1 and c_is_zero(rem[-1]):
        rem.pop()
    return quot, rem


def powers(x, k, red, phi):
    """[1, x, x^2, ..., x^k]. The products stop at the first p with x^p = 1,
    and the list repeats the first p powers, as x^j = x^(j mod p)."""
    one = (1,) + (0,) * (phi - 1) + (1,)
    out = [one]
    for _ in range(k):
        y = c_mul(out[-1], x, red, phi)
        if y == one:
            return (out * (k // len(out) + 1))[:k + 1]
        out.append(y)
    return out


def _weights(alpha, beta, forms, red, phi):
    """{d: [alpha^k * beta^(d-k) for k = 0..d]} for each degree d in `forms`."""
    top = max(len(coeffs) for coeffs in forms) - 1
    a_pow = powers(alpha, top, red, phi)
    b_pow = powers(beta, top, red, phi)
    return {d: [c_mul(a_pow[k], b_pow[d - k], red, phi) for k in range(d + 1)]
            for d in {len(coeffs) - 1 for coeffs in forms}}


def _inverses(xs, inv, red, phi):
    """The inverses of the nonzero scalars `xs` through one call of `inv`:
    invert the product, then peel the factors off one at a time (Montgomery's
    batch inversion)."""
    pre = [xs[0]]
    for x in xs[1:]:
        pre.append(c_mul(pre[-1], x, red, phi))
    w = inv(pre[-1])
    out = [None] * len(xs)
    for i in range(len(xs) - 1, 0, -1):
        out[i] = c_mul(w, pre[i - 1], red, phi)
        w = c_mul(w, xs[i], red, phi)
    out[0] = w
    return out


def _scale_each(coeffs, factors, red, phi):
    """[c * f for c, f in zip(coeffs, factors)], skipping the product by a
    zero c: the unit monomials of the isotypic pieces are mostly zeros."""
    return [c_mul(c, f, red, phi) if not c_is_zero(c) else c
            for c, f in zip(coeffs, factors)]


def shift_by_one(vals, phi):
    """The coefficients of sum_j vals[j] * (z + 1)^j: the k-th is
    sum_(j >= k) C(j, k) * vals[j].

    Additions only: the numerators are brought over one common denominator,
    one integer column per coordinate, and each pass of the classical
    shift (vals[j] += vals[j+1] for j from the top down to i) is a run of
    prefix sums over the reversed column, whose last entry is then final.
    Zero columns and zero top coefficients are skipped; each result is
    normalized once.
    """
    top = len(vals) - 1
    while top > 0 and c_is_zero(vals[top]):
        top -= 1
    if top == 0:
        return list(vals)
    rev = vals[top::-1]
    den = 1
    for v in rev:
        dv = v[phi]
        if den % dv:
            den = den // gcd(den, dv) * dv
    mult = [den // v[phi] for v in rev]
    cols = []
    for i in range(phi):
        col = [v[i] * m for v, m in zip(rev, mult)]
        if any(col):
            done = []
            for _ in range(top):
                col = list(accumulate(col))
                done.append(col.pop())
            done.append(col[0])
            col = done
        cols.append(col)
    return [c_norm(nums, den) for nums in zip(*cols)] + list(vals[top + 1:])


def subst_forms(forms, m00, m01, m10, m11, red, phi, inv):
    """For each coefficient list `coeffs` in `forms`, of any degrees, the
    coefficients of sum_j coeffs[j] * u^(d-j) * v^j, u = m00*x + m01*y,
    v = m10*x + m11*y, in the dense basis.

    With a = m00 nonzero the matrix factors as
    [[1, 0], [s, 1]] * diag(a, q) * [[1, t], [0, 1]], s = m10/a, t = m01/a,
    q = det/a, and the substitution runs through the three factors in turn:
    - y -> s*x + y shifts the coefficients by s: coefficient j is scaled by
      s^j, the list is shifted by 1 (`shift_by_one`), and coefficient k is
      scaled back by s^-k;
    - diag(a, q) scales coefficient k by a^(d-k) * q^k;
    - x -> x + t*y is the same shift by t on the reversed coefficients:
      coefficient k is scaled by t^(d-k) first and by t^-(d-k) last.
    The scalings between the two shifts combine to alpha^k * beta^(d-k),
    alpha = q/s = det/m10 and beta = a*t = m01, or alpha = q = m11 and
    beta = a where the shift is by 0 and skipped. So a form costs O(d)
    scalar products and O(d^2) integer additions, the powers are shared
    across the forms, and the call takes one inverse through `inv`, none for
    a diagonal or anti-diagonal matrix.

    With m00 = 0 the rows swap and the coefficients reverse, since
    f(u, v) = f'(v, u) for f'(x, y) = f(y, x); with m00 = m10 = 0 as well
    the image is f(m01, m11) * y^d.
    """
    if c_is_zero(m00):
        if c_is_zero(m10):
            zero = (0,) * phi + (1,)
            weights = _weights(m11, m01, forms, red, phi)
            out = []
            for coeffs in forms:
                val = zero
                for c, w in zip(coeffs, weights[len(coeffs) - 1]):
                    if not c_is_zero(c):
                        val = c_add(val, c_mul(c, w, red, phi))
                out.append([zero] * (len(coeffs) - 1) + [val])
            return out
        forms = [coeffs[::-1] for coeffs in forms]
        m00, m01, m10, m11 = m10, m11, m00, m01
    top = max(len(coeffs) for coeffs in forms) - 1
    lower, upper = not c_is_zero(m10), not c_is_zero(m01)
    alpha, beta = m11, m00
    if lower or upper:
        invs = _inverses([m00, m10, m01] if lower and upper
                         else [m00, m10] if lower else [m01], inv, red, phi)
    if lower:
        s_pow = powers(c_mul(m10, invs[0], red, phi), top, red, phi)
        # det/m10 = m11 * (m00/m10) - m01
        alpha = c_sub(c_mul(m11, c_mul(m00, invs[1], red, phi), red, phi), m01)
    if upper:
        t_inv_pow = powers(c_mul(m00, invs[-1], red, phi), top, red, phi)
        beta = m01
    weights = _weights(alpha, beta, forms, red, phi)
    out = []
    for coeffs in forms:
        if lower:
            coeffs = shift_by_one(_scale_each(coeffs, s_pow, red, phi), phi)
        img = _scale_each(coeffs, weights[len(coeffs) - 1], red, phi)
        if upper:
            img = _scale_each(shift_by_one(img[::-1], phi), t_inv_pow, red, phi)[::-1]
        out.append(img)
    return out


def table_close(mul, order, seed, base=((), ())):
    """Subgroup generated by `seed` inside a multiplication table, as a sorted
    tuple, by Dimino's algorithm (Butler, LNCS 559, 1991).

    With `base` = (H, hgens), H a subgroup closed in the table and hgens a
    tuple that generates it, the result is <H, seed>, and the closure starts
    from reached = H with gens = hgens: H is not generated again, and each
    seed element outside it extends by its cosets alone.

    The first seed element g gives its cyclic group: x <- x*g until x = g.
    Each later g not yet reached extends H to <H, g>, the union of the right
    cosets H*r: r = g first, then every unreached r*s for a representative r
    and a generator s so far. An extension costs |<H, g>| lookups plus
    |<H, g> : H| * |gens| membership tests.

    Every element reached is a product of seed elements, which Light's test
    in `GroupTable.validate` relies on. On a Latin square with a left
    identity that is not a group the loop still ends: the identity lies on
    the first cycle, so each new representative lies in its own coset, and
    at most `order` of them are taken.
    """
    reached, gens = set(base[0]), list(base[1])
    for g in seed:
        if g in reached:
            continue
        gens.append(g)
        if len(gens) == 1:
            x = g
            while True:
                reached.add(x)
                x = mul[x][g]
                if x == g:
                    break
            continue
        rows = [mul[h] for h in reached]
        reps = [g]
        reached.update([row[g] for row in rows])
        for r in reps:
            row_r = mul[r]
            for s in gens:
                rs = row_r[s]
                if rs not in reached:
                    reps.append(rs)
                    reached.update([row[rs] for row in rows])
    return tuple(sorted(reached))
