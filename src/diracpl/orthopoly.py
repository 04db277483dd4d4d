"""Orthogonal polynomials and terminating hypergeometric series.

Five families are used by the solver: generalized Laguerre, Meixner-Pollaczek
(trigonometric), hyperbolic Meixner-Pollaczek, continuous dual Hahn, and the
modified continuous dual Hahn obtained by the imaginary-argument substitution
y -> -iy.  Each family is evaluated two independent ways: a three-term
recurrence (the fast path) and the terminating hypergeometric sum (the oracle
path).  The solver uses the Laguerre family as the orthonormal functions of
`laguerre_functions`; `laguerre_all` is the raw reference table.  The other
recurrences share one kernel, `forward_recurrence`; the sums share
`terminating_series`, which gives orders 0..N of a family at once, at one
precision per sequence, in integer arithmetic.  Each family writes its term
ratios as exact integer ratios of its double parameters (`float.as_integer_ratio`)
times at most one constant per list, such as e^{-theta}; those constants are
the only values mpmath rounds, once per precision, and the rest is O(N)
integer products with P-bit mantissas and O(N^2) exact integer additions, whose
rounding bound `terminating_series` states.  Gamma-function ratios are always
computed in log space.  Only the sums and the weights import mpmath.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Working precision for the terminating-series oracle paths.  The sums
# alternate and can cancel severely (the value exponentially smaller than the
# individual terms), so each family n = 0..N is built at a precision of dps digits,
# starting at _ORACLE_DPS digits and raised until _GUARD_DIGITS digits survive
# its worst measured cancellation (for an exact zero: until its rounding bound is
# _UNDERFLOW_DIGITS decades down, below 2^-1075); needing more than _MAX_DPS is refused.
_ORACLE_DPS = 40
_GUARD_DIGITS = 20
_MAX_DPS = 4000
_UNDERFLOW_DIGITS = 325

__all__ = [
    "gamma_ratio",
    "forward_recurrence",
    "terminating_series",
    "laguerre_eval",
    "laguerre_all",
    "laguerre_offdiag",
    "laguerre_functions",
    "sqrt_psi0",
    "laguerre_series",
    "laguerre_deriv",
    "mp_eval",
    "mp_series",
    "mp_weight",
    "hyp_mp_diagonal",
    "hyp_mp_eval",
    "hyp_mp_series",
    "hyp_mp_series_all",
    "cdh_eval",
    "cdh_series",
    "cdh_weight",
    "mod_cdh_eval",
    "mod_cdh_series",
    "mod_cdh_series_all",
]


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for positive a, b, computed as exp(lnG(a) - lnG(b))."""
    if a <= 0 or b <= 0:
        raise ValueError(f"gamma_ratio requires positive arguments, got ({a}, {b})")
    log_value = math.lgamma(a) - math.lgamma(b)
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ValueError(f"Gamma({a})/Gamma({b}) leaves double range "
                         f"(log = {log_value:.4g})") from None


def forward_recurrence(a, b, c) -> np.ndarray:
    """s_0..s_K of a_k s_k + b_k s_{k-1} + c_k s_{k+1} = 0 (k < K) from s_{-1} = 0,
    s_0 = 1, for coefficient arrays a, b, c, stepped in Python floats (a value
    out of double range turns inf or nan); c_k = 0 raises ValueError naming k."""
    prev, cur, out = 0.0, 1.0, [1.0]
    for k, (ak, bk, ck) in enumerate(zip(*(np.asarray(v, float).tolist() for v in (a, b, c)))):
        if ck == 0.0:
            raise ValueError(f"forward recurrence not solvable: c({k}) = 0")
        prev, cur = cur, -(ak * cur + bk * prev) / ck
        out.append(cur)
    return np.array(out)


def _binomial_table(row: list, op) -> list:
    """sum_k C(n, k) (-1)^k row[k] (op = operator.sub) or sum_k C(n, k) row[k]
    (operator.add) for every n < len(row), from one difference (sum) table."""
    out = []
    while row:
        out.append(row[0])
        row = list(map(op, row, row[1:]))
    return out


def _dyadic(*values) -> tuple[list, int]:
    """Integers n_i and one power of two D with float(values[i]) = n_i / D exactly."""
    pairs = [float(v).as_integer_ratio() for v in values]
    den = max(d for _, d in pairs)
    return [n * (den // d) for n, d in pairs], den


def _steps(start: int, step: int, count: int) -> range:
    """The count integers start, start + step, ... (step > 0)."""
    return range(start, start + count * step, step)


def _exact(c) -> tuple:
    """An mpmath constant c, real or complex (None for 1), as ((re, im), e) with
    c = (re + i im) 2^e exactly."""
    if c is None:
        return (1, 0), 0
    (mr, er), (mi, ei) = c.real.man_exp, c.imag.man_exp
    mr, mi = (-mr if c.real < 0 else mr), (-mi if c.imag < 0 else mi)
    er, ei = (er if mr else ei), (ei if mi else er)  # a zero part takes the other's
    e = min(er, ei)
    return (mr << (er - e), mi << (ei - e)), e


def _products(nums, dens, const: tuple, width: int) -> tuple[list, list]:
    """x_0..x_K of x_0 = 1, x_{k+1} = x_k nums[k] c / dens[k], for const = (m, e)
    of c from `_exact`, as ([re m_k, im m_k], [e_k]) with x_k = m_k 2^e_k up
    to rounding, or ([m_k], [e_k]) where every im m_k is 0.  Each step is exact
    up to one division and one rounding to width significant bits, so x_k errs
    by at most k 2^(2-width), relative."""
    (cr, ci), ce = const
    re, im, e = 1 << width, 0, -width
    res, ims, es = [re], [im], [e]
    for num, den in zip(nums, dens):
        nr, ni = (num, 0) if isinstance(num, int) else num
        re, im = re * nr - im * ni, re * ni + im * nr
        shift = den.bit_length()
        re, im = ((re * cr - im * ci) << shift) // den, ((re * ci + im * cr) << shift) // den
        drop = max(re.bit_length(), im.bit_length()) - width
        if drop > 0:
            half = 1 << (drop - 1)
            re, im = (re + half) >> drop, (im + half) >> drop
            e += drop
        e += ce - shift
        res.append(re)
        ims.append(im)
        es.append(e)
    return ([res, ims] if any(ims) else [res]), es


def _magnitudes(parts: list) -> list:
    """|x| rounded down, of each x given as [re] or [re, im] lists."""
    if len(parts) == 1:
        return list(map(abs, parts[0]))
    return [math.isqrt(a * a + b * b) for a, b in zip(*parts)]


def _real_products(a: list, b: list) -> list:
    """Re(a_n b_n), a and b each given as [re] or [re, im] lists."""
    out = [x * y for x, y in zip(a[0], b[0])]
    if len(a) > 1 and len(b) > 1:
        out = [o - x * y for o, x, y in zip(out, a[1], b[1])]
    return out


def _on_grid(m: int, shift: int) -> int:
    """round(m 2^shift)."""
    return m << shift if shift >= 0 else (m + (1 << (-shift - 1))) >> -shift


def _log10(x: int, e: int) -> float:
    """log10(x 2^e) for an integer x >= 0; -inf at x = 0."""
    return math.log10(x) + e * math.log10(2) if x else -math.inf


def _to_double(x: int, e: int) -> float:
    """x 2^e rounded to the nearest double; +-inf past the double range."""
    try:
        return x / (1 << -e) if e < 0 else float(x << e)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def terminating_series(N: int, terms) -> np.ndarray:
    """v_0..v_N of v_n = Re(p_n sum_{k<=n} (-n)_k/k! u_k), summed as one family.

    terms() runs at the current mpmath precision (dps digits) and returns two
    triples (nums, dens, c), of the N ratios u_{k+1}/u_k and p_{n+1}/p_n
    (u_0 = p_0 = 1): the k-th ratio is nums[k] c / dens[k], with nums[k] an
    integer or a Gaussian integer (re, im), dens[k] a positive integer, and c
    one mpmath constant (real or complex) or None for 1.  The constants are
    the only rounded inputs; the rest is integer arithmetic.  The u_k and p_n
    are running products with P = ceil(dps log2 10) + N + 16 bit mantissas
    (`_products`), so with the rounding of c each errs by at most k 10^-dps,
    relative, and the u_k are rounded to integers U_k on the grid 2^-P.  Only
    (-n)_k/k! = (-1)^k C(n, k) depends on n, so the U_k give every S_n =
    sum_k (-1)^k C(n, k) U_k and M_n = sum_k C(n, k) |U_k| exactly; u_0 = 1
    makes M_n >= 2^P, so the grid's rounding (at most 2^(n-1) in S_n) stays
    below that of the u_k, and S_n errs by at most (N+1) M_n 10^-dps.
    Summation loses about log10(M_n/|S_n|) digits, so the precision is raised
    until _GUARD_DIGITS digits remain at the worst n.  A sum S_n that is
    exactly zero may be a rounded argument (1 - e^{2 theta} -> 1), so it is
    accepted only at a precision whose rounding bound (N+1) |p_n| M_n 10^-dps
    is below the smallest double.  Needing more than _MAX_DPS digits raises
    ValueError.  Each v_n = Re(p_n S_n) 2^-P is formed exactly and rounded
    once, to the nearest double.
    """
    import mpmath as mp
    dps = _ORACLE_DPS
    while True:
        bits = math.ceil(dps * math.log2(10)) + N + 16
        with mp.workdps(dps):
            (u_nums, u_dens, u_c), (p_nums, p_dens, p_c) = terms()
            u_c, p_c = _exact(u_c), _exact(p_c)
        parts, es = _products(u_nums, u_dens, u_c, bits)
        grid = [[_on_grid(m, e + bits) for m, e in zip(part, es)] for part in parts]  # U_k
        sums = [_binomial_table(part, operator.sub) for part in grid]  # S_n
        magnitudes = _binomial_table(_magnitudes(grid), operator.add)  # M_n
        scales, es = _products(p_nums, p_dens, p_c, bits)  # p_n = m_n 2^e_n
        need = max(math.log10(m) - math.log10(s) + _GUARD_DIGITS if s
                   else _log10((N + 1) * m * p, e - bits) + _UNDERFLOW_DIGITS
                   for m, s, p, e in zip(magnitudes, _magnitudes(sums), _magnitudes(scales), es))
        if dps >= need:
            return np.array([_to_double(x, e - bits)
                             for x, e in zip(_real_products(scales, sums), es)])
        if dps >= _MAX_DPS:
            raise ValueError(f"oracle series needs {need:.0f} digits; "
                             f"more than {_MAX_DPS} would be needed")
        dps = min(max(2 * dps, int(need) + _GUARD_DIGITS), _MAX_DPS)


def _check_order(n: int) -> None:
    if n < 0 or n != int(n):
        raise ValueError(f"polynomial order must be a non-negative integer, got {n}")


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < math.pi:
        raise ValueError(f"Meixner-Pollaczek requires 0 < theta < pi, got {theta}; see hyp_mp_*")


def _check_laguerre_params(n: int, nu: float, x) -> None:
    _check_order(n)
    if nu <= -1:
        raise ValueError(f"Laguerre parameter must satisfy nu > -1, got nu={nu}")
    if np.any(np.asarray(x) < 0):
        raise ValueError("Laguerre evaluation requires x >= 0")


def laguerre_all(n: int, nu: float, x):
    """All generalized Laguerre values L_0^nu(x) .. L_n^nu(x) by upward recurrence.

    x may be a scalar or ndarray; returns shape (n+1,) + shape(x).
    """
    _check_laguerre_params(n, nu, x)
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if n >= 1:
        out[1] = nu + 1.0 - x
    for k in range(1, n):
        out[k + 1] = ((2 * k + nu + 1.0 - x) * out[k] - (k + nu) * out[k - 1]) / (k + 1.0)
    return out


def laguerre_offdiag(n: int, nu: float) -> list:
    """b_0..b_n, b_k = sqrt(k (k+nu)), as Python floats: the off-diagonal of the
    symmetric Jacobi matrix of L^nu, whose diagonal is 2k+nu+1."""
    return [math.sqrt(k * (k + nu)) for k in range(n + 1)]


# From this nu on, sqrt_psi0 centers its exponent at x = nu.  Truncating the
# Stirling remainder after four terms errs in h by ~1/(4752 nu^9): 2e-13 at
# nu = 10, against ~1e-15 for the exponent as written; 4e-16 at nu = 20.
_CENTERED_NU = 20.0


def sqrt_psi0(nu: float, x):
    """h = sqrt(psi_0^nu(x)) = exp((nu log x - x - lgamma(nu+1))/4).

    From nu = _CENTERED_NU on, those three terms (~nu log nu each) would cancel
    to O(1), so with x = nu (1 + t) the exponent is written
    nu (log1p(t) - t) - log(2 pi nu)/2 - S(nu), S the Stirling remainder of
    lgamma(nu+1) to four terms (DLMF 5.11.1)."""
    with np.errstate(divide="ignore"):
        if nu < _CENTERED_NU:
            return np.exp(0.25 * ((nu * np.log(x) if nu else 0.0) - x - math.lgamma(nu + 1.0)))
        t = (np.asarray(x, dtype=float) - nu) / nu
        w = 1.0 / (nu * nu)
        stirling = (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w / 1680))) / nu
        half_log = 0.5 * math.log(2.0 * math.pi * nu)
        return np.exp(0.25 * (nu * (np.log1p(t) - t) - half_log - stirling))


def laguerre_functions(n: int, nu: float, x):
    """The dx-orthonormal Laguerre functions psi_k^nu(x) = sqrt(k!/Gamma(k+nu+1))
    x^(nu/2) e^(-x/2) L_k^nu(x), k = 0..n, shape (n+1,) + shape(x), from
    b_{k+1} psi_{k+1} = (2k+nu+1-x) psi_k - b_k psi_{k-1} (`laguerre_offdiag`),
    started at h = sqrt(psi_0) and multiplied by h at the end.  Rows 2..n first
    hold their step factors (2k+nu+1-x)/b_{k+1}, filled by two whole-block
    operations, and each step then multiplies in place: dividing by b_{k+1}
    before multiplying keeps every intermediate in double range while h is a
    normal double (Shen, Tang & Wang, Spectral Methods, 2011, ch. 7)."""
    _check_laguerre_params(n, nu, x)
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).reshape(-1)  # rows are then views, also for a scalar x
    h, b = sqrt_psi0(nu, x), laguerre_offdiag(n, nu)
    out = np.empty((n + 1, x.size))
    out[0] = h
    if n >= 1:
        out[1] = (nu + 1.0 - x) / b[1] * h
    np.subtract((2 * np.arange(1, n) + nu + 1.0)[:, None], x, out=out[2:])
    out[2:] /= np.array(b[2:])[:, None]
    for k in range(1, n):  # in place: step factor * psi_k - (b_k/b_{k+1}) psi_{k-1}
        row = out[k + 1]
        row *= out[k]
        row -= b[k] / b[k + 1] * out[k - 1]
    out *= h
    return out.reshape((n + 1,) + shape)


def laguerre_eval(n: int, nu: float, x):
    """Generalized Laguerre polynomial L_n^nu(x) by upward three-term recurrence."""
    vals = laguerre_all(n, nu, x)
    res = vals[n]
    return float(res) if np.ndim(x) == 0 else res


def laguerre_series(n: int, nu: float, x) -> float:
    """L_n^nu(x) as the terminating confluent series, the oracle for laguerre_eval.

    L_n^nu(x) = [Gamma(n+nu+1) / (Gamma(n+1) Gamma(nu+1))] 1F1(-n; nu+1; x),
    an exact sum of n+1 terms.
    """
    _check_laguerre_params(n, nu, x)
    x = float(x)

    def terms():
        (x_, nu_), den = _dyadic(x, nu)
        lower = _steps(nu_ + den, den, n)  # (nu + 1 + k) den
        return ([x_] * n, lower, None), (lower, _steps(den, den, n), None)

    return float(terminating_series(n, terms)[-1])


def laguerre_deriv(n: int, nu: float, x) -> float:
    """d/dx L_n^nu(x).

    For x > 0 uses x L_n' = n L_n - (n+nu) L_{n-1}; at x = 0 returns the
    analytic limit -Gamma(n+nu+1)/(Gamma(n) Gamma(nu+2)) of the series
    derivative (the recurrence form divides by x).
    """
    _check_laguerre_params(n, nu, x)
    x = float(x)
    if n == 0:
        return 0.0
    if x == 0.0:
        return -gamma_ratio(n + nu + 1.0, nu + 2.0) / gamma_ratio(float(n), 1.0)
    vals = laguerre_all(n, nu, x)
    return (n * vals[n] - (n + nu) * vals[n - 1]) / x


def _check_mp_params(n: int, lam: float) -> None:
    _check_order(n)
    if lam <= 0:
        raise ValueError(f"Meixner-Pollaczek parameter must satisfy lam > 0, got {lam}")


def _mp_recurrence(n: int, lam: float, diag) -> float:
    # Both Meixner-Pollaczek families: (k+1) P_{k+1} - d_k P_k + (k+2lam-1) P_{k-1} = 0,
    # with the family's diagonal d_k = diag(k).
    k = np.arange(n)
    return float(forward_recurrence(-diag(k), k + 2.0 * lam - 1.0, k + 1.0)[-1])


def mp_eval(n: int, lam: float, y: float, theta: float) -> float:
    """Meixner-Pollaczek polynomial P_n^lam(y, theta) by recurrence.

    Requires lam > 0 and 0 < theta < pi.  Recurrence from P_{-1} = 0, P_0 = 1:
    (n+1) P_{n+1} = 2[(n+lam) cos(theta) + y sin(theta)] P_n - (n+2lam-1) P_{n-1}.
    """
    _check_mp_params(n, lam)
    _check_theta(theta)
    c, s = math.cos(theta), math.sin(theta)
    return _mp_recurrence(n, lam, lambda k: 2.0 * ((k + lam) * c + y * s))


def mp_series(n: int, lam: float, y: float, theta: float) -> float:
    """P_n^lam(y, theta) via the terminating 2F1 form, the oracle for mp_eval.

    P_n = [Gamma(n+2lam)/(Gamma(n+1)Gamma(2lam))] e^{i n theta}
          2F1(-n, lam+iy; 2lam; 1-e^{-2i theta});
    the sum is complex but the value is real (imaginary part is roundoff).
    """
    _check_mp_params(n, lam)
    _check_theta(theta)
    import mpmath as mp

    def terms():
        (lam_, y_), den = _dyadic(lam, y)
        th = mp.mpf(theta)
        sin = mp.sin(th)
        z = 2 * sin * mp.mpc(sin, mp.cos(th))  # 1 - e^{-2i theta}, with its digits near 0, pi
        lower = _steps(2 * lam_, den, n)  # (2 lam + k) den
        return (([(lam_ + k * den, y_) for k in range(n)], lower, z),
                (lower, _steps(den, den, n), mp.expj(th)))

    return float(terminating_series(n, terms)[-1])


def mp_weight(y: float, lam: float, theta: float) -> float:
    """Orthogonality weight of P_n^lam(., theta) on the real line:

    rho(y) = (1/2pi) (2 sin theta)^{2 lam} e^{(2 theta - pi) y} |Gamma(lam + iy)|^2,
    normalized so that <P_n, P_m> = [Gamma(n+2lam)/Gamma(n+1)] delta_nm.
    """
    _check_theta(theta)
    import mpmath as mp
    log_abs_gamma_sq = 2.0 * mp.fp.loggamma(complex(lam, y)).real
    log_w = (
        2.0 * lam * math.log(2.0 * math.sin(theta))
        + (2.0 * theta - math.pi) * y
        + log_abs_gamma_sq
        - math.log(2.0 * math.pi)
    )
    return math.exp(log_w)


def hyp_mp_diagonal(k, lam: float, y: float, theta: float):
    """Diagonal 2[(k+lam) cosh(theta) + y sinh(theta)] of the hyperbolic
    Meixner-Pollaczek recurrence over an index array k (or one index), written
    as (k+lam+y) e^theta + (k+lam-y) e^{-theta}: cosh and sinh would cancel
    in floats at large |theta|."""
    up, down = math.exp(theta), math.exp(-theta)
    return (k + lam + y) * up + (k + lam - y) * down


def hyp_mp_eval(n: int, lam: float, y: float, theta: float) -> float:
    """Hyperbolic Meixner-Pollaczek polynomial by recurrence.

    The hyperbolic family replaces (cos, sin) with (cosh, sinh) and takes a
    real second argument; theta may be any real number.  Recurrence from
    P_{-1} = 0, P_0 = 1, with the diagonal of `hyp_mp_diagonal`:

    (n+1) P_{n+1} = 2[(n+lam) cosh(theta) + y sinh(theta)] P_n - (n+2lam-1) P_{n-1}.
    """
    _check_mp_params(n, lam)
    return _mp_recurrence(n, lam, lambda k: hyp_mp_diagonal(k, lam, y, theta))


def hyp_mp_series(n: int, lam: float, y: float, theta: float) -> float:
    """Hyperbolic Meixner-Pollaczek via the terminating 2F1 form (oracle path):

    P_n = [Gamma(n+2lam)/(Gamma(n+1)Gamma(2lam))] e^{-n theta}
          2F1(-n, lam+y; 2lam; 1-e^{2 theta}).
    """
    return float(hyp_mp_series_all(n, lam, y, theta)[-1])


def hyp_mp_series_all(N: int, lam: float, y: float, theta: float) -> np.ndarray:
    """hyp_mp_series for n = 0..N, as one `terminating_series` family."""
    _check_mp_params(N, lam)
    import mpmath as mp

    def terms():
        (lam_, y_), den = _dyadic(lam, y)
        th = mp.mpf(theta)
        decay = mp.exp(-th)
        z = -2 * mp.sinh(th) / decay  # 1 - e^{2 theta}, with its digits at small theta
        lower = _steps(2 * lam_, den, N)  # (2 lam + k) den
        return ((_steps(lam_ + y_, den, N), lower, z), (lower, _steps(den, den, N), decay))

    return terminating_series(N, terms)


def _check_cdh_params(n: int, lam: float, ysq: float, a: float, b: float) -> None:
    _check_order(n)
    if lam <= 0 or a <= 0 or b <= 0:
        raise ValueError(
            f"continuous dual Hahn requires lam, a, b > 0, got ({lam}, {a}, {b})"
        )
    if ysq < 0:
        raise ValueError(f"continuous dual Hahn requires y^2 >= 0, got {ysq}; "
                         "use mod_cdh_eval for real-argument continuation")


def _cdh_recurrence(n: int, lam: float, ysq: float, a: float, b: float) -> float:
    # (up + down - lam^2 - y^2) S_k - down S_{k-1} - up S_{k+1} = 0; ysq may be
    # negative (modified family, y^2 -> -y^2).
    k = np.arange(n)
    up, down = (k + lam + a) * (k + lam + b), k * (k + a + b - 1.0)
    return float(forward_recurrence(up + down - lam * lam - ysq, -down, -up)[-1])


def _cdh_3f2(N: int, lam: float, ysq: float, a: float, b: float) -> np.ndarray:
    # 3F2(-n, lam+iy, lam-iy; lam+a, lam+b; 1) for n = 0..N, with (lam+iy)_k (lam-iy)_k
    # accumulated as the real product prod_j ((lam+j)^2 + y^2); ysq may be
    # negative, which realizes the y -> -iy substitution.
    def terms():
        (lam_, a_, b_), den = _dyadic(lam, a, b)
        q, dq = float(ysq).as_integer_ratio()
        up = [(lam_ + k * den) ** 2 * dq + q * den * den for k in range(N)]
        down = [(lam_ + a_ + k * den) * (lam_ + b_ + k * den) * dq for k in range(N)]
        return (up, down, None), ([1] * N, [1] * N, None)

    return terminating_series(N, terms)


def cdh_eval(n: int, lam: float, ysq: float, a: float, b: float) -> float:
    """Continuous dual Hahn polynomial S_n^lam(y; a, b) by recurrence, y^2 >= 0.

    Recurrence from S_0 = 1:
    y^2 S_n = [(n+lam+a)(n+lam+b) + n(n+a+b-1) - lam^2] S_n
              - n(n+a+b-1) S_{n-1} - (n+lam+a)(n+lam+b) S_{n+1}.
    """
    _check_cdh_params(n, lam, ysq, a, b)
    return _cdh_recurrence(n, lam, ysq, a, b)


def cdh_series(n: int, lam: float, ysq: float, a: float, b: float) -> float:
    """S_n^lam(y; a, b) = 3F2(-n, lam+iy, lam-iy; lam+a, lam+b; 1), oracle path."""
    _check_cdh_params(n, lam, ysq, a, b)
    return float(_cdh_3f2(n, lam, ysq, a, b)[-1])


def cdh_weight(y: float, lam: float, a: float, b: float) -> float:
    """Orthogonality weight of S_n^lam(y; a, b) on the half line y > 0:

    rho(y) = (1/2pi) |Gamma(lam+iy) Gamma(a+iy) Gamma(b+iy)
                      / (Gamma(lam+a) Gamma(lam+b) Gamma(2iy))|^2,
    normalized so <S_n, S_m> = [Gamma(n+1)Gamma(n+a+b) /
    (Gamma(n+lam+a)Gamma(n+lam+b))] delta_nm.
    """
    if y <= 0:
        raise ValueError("weight defined for y > 0")
    import mpmath as mp
    log_num = (
        mp.fp.loggamma(complex(lam, y)).real
        + mp.fp.loggamma(complex(a, y)).real
        + mp.fp.loggamma(complex(b, y)).real
    )
    log_den = (
        math.lgamma(lam + a) + math.lgamma(lam + b) + mp.fp.loggamma(complex(0.0, 2.0 * y)).real
    )
    return math.exp(2.0 * (log_num - log_den) - math.log(2.0 * math.pi))


def _check_mod_cdh_params(n: int, lam: float, a: float, b: float) -> None:
    _check_order(n)
    if lam + a <= 0 or lam + b <= 0:
        raise ValueError(
            "modified continuous dual Hahn requires lam+a > 0 and lam+b > 0, "
            f"got lam+a={lam + a}, lam+b={lam + b}"
        )


def mod_cdh_eval(n: int, lam: float, y: float, a: float, b: float) -> float:
    """Modified continuous dual Hahn polynomial by recurrence.

    The modified family is the y -> -iy continuation of S_n^lam, so it obeys
    the same three-term recurrence with y^2 replaced by -y^2 (the substitution
    maps the squared argument y^2 -> (-iy)^2 = -y^2 and nothing else changes).
    """
    _check_mod_cdh_params(n, lam, a, b)
    return _cdh_recurrence(n, lam, -y * y, a, b)


def mod_cdh_series(n: int, lam: float, y: float, a: float, b: float) -> float:
    """Modified continuous dual Hahn as the terminating real series

    3F2(-n, lam+y, lam-y; lam+a, lam+b; 1),

    the oracle for mod_cdh_eval."""
    return float(mod_cdh_series_all(n, lam, y, a, b)[-1])


def mod_cdh_series_all(N: int, lam: float, y: float, a: float, b: float) -> np.ndarray:
    """mod_cdh_series for n = 0..N, as one `terminating_series` family."""
    _check_mod_cdh_params(N, lam, a, b)
    return _cdh_3f2(N, lam, -y * y, a, b)
