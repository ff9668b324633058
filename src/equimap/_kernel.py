"""Arithmetic kernel: flat-tuple cyclotomic scalars and the hot loops.

A scalar over conductor n with phi = deg Phi_n is a tuple of phi integer
numerators followed by one positive integer denominator, normalized so the
gcd of all entries is 1. `red` is a tuple of phi-1 integer rows; red[k] holds
the coefficients of x^(phi+k) reduced mod Phi_n (integral because Phi_n is
monic over Z).
"""

from math import gcd


def c_norm(nums, den):
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
    phi = len(a) - 1
    for i in range(phi):
        if a[i]:
            return False
    return True


def c_neg(a):
    phi = len(a) - 1
    return tuple(-a[i] for i in range(phi)) + (a[phi],)


def c_add(a, b):
    phi = len(a) - 1
    da, db = a[phi], b[phi]
    if da == db:
        return c_norm([a[i] + b[i] for i in range(phi)], da)
    g = gcd(da, db)
    ma, mb = db // g, da // g
    return c_norm([a[i] * ma + b[i] * mb for i in range(phi)], da // g * db)


def c_sub(a, b):
    return c_add(a, c_neg(b))


def c_mul(a, b, red, phi):
    da, db = a[phi], b[phi]
    if phi == 1:
        return c_norm([a[0] * b[0]], da * db)
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


def subst_cols(m00, m01, m10, m11, d, red, phi):
    """Columns of the degree-d substitution matrix for x -> m00*x + m01*y,
    y -> m10*x + m11*y. Column j lists the coefficients of u^(d-j) * v^j in
    the dense basis x^d, x^(d-1)y, ..., y^d."""
    one = (1,) + (0,) * (phi - 1) + (1,)
    u = [m00, m01]
    v = [m10, m11]
    upow = [[one]]
    for k in range(d):
        upow.append(poly_mul(upow[-1], u, red, phi))
    vpow = [[one]]
    for k in range(d):
        vpow.append(poly_mul(vpow[-1], v, red, phi))
    cols = []
    for j in range(d + 1):
        cols.append(poly_mul(upow[d - j], vpow[j], red, phi))
    return cols


def table_close(mul, order, seed):
    """Subgroup closure inside a multiplication table; returns sorted tuple."""
    elems = set(seed)
    queue = list(elems)
    while queue:
        a = queue.pop()
        row = mul[a]
        for b in tuple(elems):
            for c in (row[b], mul[b][a]):
                if c not in elems:
                    elems.add(c)
                    queue.append(c)
    return tuple(sorted(elems))
