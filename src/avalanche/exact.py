"""Exact absorbing-chain analytics, in mpf and in float64.

The transient part of the avalanche kernel is the (n-1)x(n-1)
substochastic matrix Q(i,j), i,j in 1..n-1.  Expected duration solves
(I-Q)x = e, expected total size solves (I-Q)s = (1,...,n-1)', survival
probabilities are iterated products Q^m e, and reach probabilities
restrict the system to the states below the target level.

The mpf tier runs in arbitrary precision (default 400 decimal digits)
on integer kernel rows, each solve with an integer residual gate.
Survival multiplies their fixed-point image floor(Q 2**P) in integers,
each product F v on float64 BLAS over 16-bit limbs (``_limb_products``):
every partial sum is an integer below 2**53 at n <= MAX_EXACT_N,
whatever the summation order, so each value is the integer product's
bit for bit.  The limb copy of F is built per call, not cached.
The expectations refine on F with an exact residual, each correction
one product with a cached float64 inverse of I-Q eliminated without
subtraction from its float image.  Where that does not converge they,
and every reach level, run on one cached LU of I-Q per chain, without
pivoting and without subtraction, in integer (mantissa, exponent) pairs
at the working precision: each entry is one dot product summed exactly
and rounded once.  Every solve hands back such pairs; ``_checked_solve``
holds them to the integer residual gate and converts them to mpf once,
after the gate, from exactly the pairs the gate read.
The float64 twins, for large n where cubic cost at high precision is
prohibitive, share one checked solve and refuse what the mpf twins
refuse; the Q-taking forms let one float Q serve many, each built on
its rows' support only (``kernel_rows``).  That solve flushes I-Q's
entries below _TINY (1.5e-154) to 0, as subnormal fill made LAPACK
2.5-3x slower at n >= 400; its residual gate reads the unflushed Q, as
x - Qx - rhs.  Both float kernels, that solve and the inverse, work on
the states 1..K a transition of the flushed Q can enter (``_reached``)
and finish the later rows from them: I-Q is block lower-triangular
there, its trailing block diagonal, and the solve forms I-Q over those
K columns only.
"""

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, compress, repeat
import math
import operator

import mpmath as mp
from mpmath import libmp
import numpy as np

from .model import ModelParams, kernel_rows

MAX_EXACT_N = 2000
MIN_DIGITS = 50
_GUARD_DIGITS = 10
_TINY = np.sqrt(np.finfo(float).tiny)   # products of kept entries are normal


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision; a solve at d digits is accepted when its
    residual is below 10**(-d/2)."""

    decimal_digits: int = 400

    def __post_init__(self):
        if self.decimal_digits < MIN_DIGITS:
            raise ValueError(f"need at least {MIN_DIGITS} digits, "
                             f"got {self.decimal_digits}")

    def tol(self, digits: int | None = None) -> mp.mpf:
        return _tol(digits or self.decimal_digits, mp.mp.prec)


@cache
def _tol(digits: int, prec: int) -> mp.mpf:
    """10**(-digits/2) rounded to ``prec`` bits, cached as it costs 5-7
    us at 400 digits: keyed on the caller's working precision (a solve's
    inside workdps, a clamp's at 53 bits), each caller reads the value
    it would compute."""
    with mp.workprec(prec):
        return mp.mpf(10) ** (-digits // 2)


class SubstochasticSystem:
    """Transient kernel Q of one parameterized avalanche chain.

    Rows are built lazily (and cached) because some solves, notably
    reach probabilities, touch only the states below a threshold.

    Every row comes from `int_row`, which the residual gate reads.
    Survival multiplies its fixed-point rows (`fixed_rows`); the
    expectations refine on them, each correction from the float64
    inverse of I-Q that `_gth_inverse` eliminates from them
    (`fixed_point_q`); the elimination alone reads `row`, the integer
    rows rounded to the working precision.
    The reach solves, and the expectations where refinement fails, run
    on one cached factorization per digit count: the LU of I-Q over
    states 1..K plus a tail column, minus each row's mass above K.  Row
    i's diagonal exceeds its off-diagonal magnitudes by Q(i,0) plus that
    mass, > 0 for p < 1; this strict row dominance holds in every Schur
    complement, so no pivoting is needed (Higham, Accuracy and Stability
    of Numerical Algorithms, section 9.5), and leading blocks share
    their factors: the K = n-1 factors serve both expectations, and one
    block every reach level up to K+1.
    """

    def __init__(self, params: ModelParams,
                 precision: PrecisionConfig | None = None):
        if params.n > MAX_EXACT_N:
            raise ValueError(
                f"exact solves are capped at n={MAX_EXACT_N}, got {params.n}")
        self.params = params
        self.precision = precision or PrecisionConfig()
        self._int_rows: dict[tuple[int, int], list] = {}
        self._rows: dict[tuple[int, int], list] = {}
        self._factors: dict[int, tuple[list[list], list[list]]] = {}
        self._fixed: dict[int, tuple[int, list[list[int]]]] = {}
        self._inverse: dict[int, np.ndarray | None] = {}

    @property
    def n(self) -> int:
        return self.params.n

    def int_row(self, i: int, digits: int | None = None) -> list:
        """Full kernel pmf row at state i over j = 0..n-i as (mantissa,
        exponent) pairs, within 2**-(P+5) relative, P the working bits
        plus 16: from (q**i)**m, m = n-i, term j is t_{j-1} * R * (m-j+1)
        / j, R = (1 - q**i) / q**i, cut to w = P + bitlen(m) + 8 bits, with
        q = 1 - p exact.  Floating mantissas keep a row's far tail accurate
        where a fixed scale 2**-P would cut it to 0.  The head, R and
        (q**i)**m at w + bitlen(m) + 4 bits, calls mpmath's raw-tuple
        functions, exactly the calls that mpf division and ``**`` make
        under workprec, so it builds no mpf and enters no precision
        context; q**i = fail / 2**k, as p's denominator is a power of 2."""
        digits = digits or self.precision.decimal_digits
        key = (i, digits)
        if key in self._int_rows:
            return self._int_rows[key]
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"transient state i={i} outside [1, {self.n - 1}]")
        m = self.n - i
        w = _scale(digits) + m.bit_length() + 8
        num, den = self.params.p.as_integer_ratio()
        fail, k = (den - num) ** i, (den.bit_length() - 1) * i
        wp, rnd = w + m.bit_length() + 4, libmp.round_nearest
        _, ratio, r_exp, _ = libmp.mpf_div(
            libmp.from_int((1 << k) - fail, wp, rnd), libmp.from_int(fail),
            wp, rnd)
        _, man, exp, _ = libmp.mpf_pow_int(
            libmp.from_man_exp(fail, -k, wp, rnd), m, wp, rnd)
        out = [(man, exp)]
        for j in range(1, m + 1):
            man = man * ratio * (m - j + 1) // j
            exp += r_exp
            s = man.bit_length() - w
            if s > 0:   # cut to w bits
                man >>= s
                exp += s
            out.append((man, exp))
        self._int_rows[key] = out
        return out

    def row(self, i: int, digits: int | None = None) -> list:
        """Full kernel pmf row at state i over j = 0..n-i, for the
        elimination: the integer row's terms, each rounded once to the
        working precision as mpf rounds them (`_round`)."""
        digits = digits or self.precision.decimal_digits
        key = (i, digits)
        if key not in self._rows:
            prec = _prec(digits)
            self._rows[key] = [_round(man, exp, prec)
                               for man, exp in self.int_row(i, digits)]
        return self._rows[key]

    def factors(self, k: int, digits: int | None = None) -> tuple[list, list]:
        """(lu, sums): LU of [I-Q | tail] over states 1..K, some K >= k, row
        r holding the magnitudes of L(r, :r), U(r, r:K) and the reduced
        tail as (man, exp) pairs; sums[r][j] is reach level r+j+2's
        right-hand side at state r+1.  A smaller block cached at these
        digits is refactored at least twice as large, so growing level by
        level stays O(n^3).  No step subtracts (Grassmann, Taksar and
        Heyman): off the diagonal L, U <= 0, so every entry is a sum of
        terms >= 0, and pivot r is e(r) = a(r) + |L(r, :r)| e, a(r) =
        Q(r, 0), plus the magnitudes of U's row r, as U 1 = L^-1 a = e.
        Each entry is one dot product, summed exactly over integer
        products (`_dot`) and rounded once; an L entry is rounded as that
        exact sum divided by its pivot (`_div`)."""
        digits = digits or self.precision.decimal_digits
        cached = self._factors.get(digits, ([], []))
        if len(cached[0]) >= k:
            return cached
        k = max(k, min(2 * len(cached[0]), self.n - 1))
        prec = _prec(digits)
        one = _round(1, 0, prec)
        # columns 0..K of U above the diagonal (K the tail), then e, as
        # mantissa and exponent lists; slot 0 holds row r's own entry,
        # which the 1 leading the row's L picks
        cols = [([0], [0]) for _ in range(k + 2)]
        lu, sums = [], []
        for r in range(k):
            full = self.row(r + 1, digits)
            # row r of [Q | mass above K | Q(:, 0)]
            rest = full[k + 1:]
            entries = full[1:k + 1] + [(0, 0)] * (k + 1 - len(full)) + [
                _round(*_sum([m for m, _ in rest], [e for _, e in rest],
                             prec), prec), full[0]]
            for (cm, ce), (m, e) in zip(cols, entries):
                cm[0], ce[0] = m, e
            lm, le = [one[0]], [one[1]]
            for j in range(r):   # |L(r, j)|
                m, e = _div(_dot(lm, le, *cols[j], prec), lu[j][j], prec)
                lm.append(m)
                le.append(e)
            u = []   # |U(r, j)| for j > r, the tail, then e(r)
            for cm, ce in cols[r + 1:]:
                m, e = _round(*_dot(lm, le, cm, ce, prec), prec)
                cm.append(m)
                ce.append(e)
                u.append((m, e))
            *u, e_r = u
            # U's row summed exactly from each column j > r on, tail
            # included: the reach sums round it once
            tails = [*accumulate(reversed(u), _add)][::-1]
            sums.append([_round(*t, prec) for t in tails])
            lu.append([*zip(lm[1:], le[1:]),
                       _round(*_add(e_r, tails[0]), prec), *u])
        self._factors[digits] = lu, sums
        return self._factors[digits]

    def fixed_rows(self, digits: int | None = None) -> tuple[int, list]:
        """(P, rows): P the working bits plus 16, row i-1 the integers
        F(i, j) = floor(Q(i, j) 2**P) from the integer row, j = 1..n-i;
        cached per digit count."""
        digits = digits or self.precision.decimal_digits
        if digits not in self._fixed:
            scale = _scale(digits)
            self._fixed[digits] = scale, [
                _scaled(self.int_row(i, digits)[1:], scale)
                for i in range(1, self.n)]
        return self._fixed[digits]

    def fixed_point_q(self, digits: int | None = None
                      ) -> tuple[int, list[list[int]], np.ndarray | None]:
        """(P, rows, inverse): ``fixed_rows`` and the float64 (I-Q)^-1 of
        ``_gth_inverse``, or None where it refuses, built on the first
        call.  It eliminates the rows' image F / 2**P, correctly rounded
        as int / int is, flushed below _TINY so that no product is
        subnormal, with exit rates a(i) = Q(i, 0) = q**(i(n-i)) from each
        integer row's j = 0 term, accurate however small, where 1 minus
        the row's mass cancels."""
        digits = digits or self.precision.decimal_digits
        scale, rows = self.fixed_rows(digits)
        if digits not in self._inverse:
            q, unit = np.zeros((self.n - 1, self.n - 1)), 1 << scale
            for i, row in enumerate(rows):
                q[i, :len(row)] = [f / unit for f in row]
            np.copyto(q, 0.0, where=q < _TINY)
            exits = np.array([man / (1 << -exp) for man, exp in (
                self.int_row(i, digits)[0] for i in range(1, self.n))])
            self._inverse[digits] = _gth_inverse(q, exits)
        return scale, rows, self._inverse[digits]


def _gth_inverse(q: np.ndarray, exits: np.ndarray) -> np.ndarray | None:
    """(I-Q)^-1 by Gauss-Jordan elimination in natural order with the
    pivots of Grassmann, Taksar and Heyman (Oper. Res. 33(5), 1985), or
    None where an exit rate underflows, a pivot is not positive or the
    inverse is not finite.  Q's diagonal is not read; ``exits`` holds
    I-Q's row sums a(i).  Pivot k is a(k) plus the off-diagonal mass left
    in row k, and eliminating k adds to the exit rates left what k sends
    them, so no step subtracts and every entry is accurate to a small
    multiple of n ulp, however ill-conditioned I-Q is.  Eliminated
    columns hold the inverse's, the rest minus the reduced off-diagonals.
    It eliminates only the states 1..K that ``_reached`` finds entered;
    each later row r is Q(r, :K) G / D(r), G the block's inverse, with
    1 / D(r) on its diagonal, D(r) = a(r) + sum_{j<K} Q(r, j) = (I-Q)(r,
    r) formed without subtraction too.  The row sums are at most 1 / min
    a(i): with every a(i) normal, neither the inverse nor its product
    with entries up to 1 overflows."""
    if not (exits >= np.finfo(float).tiny).all():
        return None
    reached = _reached(q)
    x, a = q[:reached, :reached].copy(), exits[:reached].copy()
    for k in range(reached):
        pivot = a[k] + x[k, k + 1:].sum()
        if not pivot > 0:
            return None
        col = x[:, k].copy()
        col[k] = 0.0
        x[:, k] = 0.0
        x[k, k] = 1.0
        x[k] /= pivot
        a[k + 1:] += col[k + 1:] * (a[k] / pivot)
        x += np.outer(col, x[k])
    rest = q[reached:, :reached]
    d = exits[reached:] + rest.sum(axis=1)
    inverse = np.zeros_like(q)
    inverse[:reached, :reached] = x
    inverse[reached:, :reached] = rest @ x / d[:, None]
    inverse[reached:].reshape(-1)[reached::len(q) + 1] = 1.0 / d
    return inverse if np.isfinite(inverse).all() else None


def _reached(m: np.ndarray) -> int:
    """K: one past the last column of the square ``m`` holding a nonzero
    (in a mask, True) entry off its diagonal.  The states above K are
    entered by no transition, so I - m is block lower-triangular, its
    trailing block diagonal (Higham, Accuracy and Stability of Numerical
    Algorithms, section 9.5): a solve or inverse over the leading K x K
    block finishes every later row by one product and one division.  Subcritical kernels
    flushed below _TINY reach 354 of 799 states at n=800, c=0.5."""
    off = m.astype(bool)
    off.reshape(-1)[::len(m) + 1] = False   # the diagonal
    cols = off.any(axis=0).nonzero()[0]
    return int(cols[-1]) + 1 if cols.size else 0


def _prec(digits: int) -> int:
    """The working bits at ``digits`` digits."""
    return libmp.dps_to_prec(digits + _GUARD_DIGITS)


def _scale(digits: int) -> int:
    """P: the working bits at ``digits`` digits plus 16."""
    return _prec(digits) + 16


def _scaled(terms: list, s: int) -> list[int]:
    """floor(man * 2**(exp + s)) for each term (man, exp)."""
    return [m << e + s if e + s >= 0 else m >> -e - s for m, e in terms]


def _residual_inf(system: SubstochasticSystem, digits: int, x: list,
                  b: list[int]) -> tuple[int, int]:
    """An upper bound on max_i |x(i) - (Qx)(i) - b(i)| over states
    1..len(x), as a (man, exp) pair, for x given as (man, exp) pairs and
    1 above its last state (a reach level's boundary), exact in integers
    at 2**-g: g sums the bits of the tolerance, 1 + max|x| (rounded to
    the working precision, as mpf adds it) and n, plus 16, up to P;
    (2 + (n+1) max|x|) 2**-g covers truncating x and the integer rows to
    2**-g, and the rows' own error.  The states above the level count as
    each row's mass above it."""
    n, (tm, te) = system.n, system.precision.tol(digits).man_exp
    ones = (_round((abs(m) << max(e, 0)) + (1 << max(-e, 0)), min(e, 0),
                   _prec(digits)) for m, e in x)
    mag = max((m.bit_length() + e for m, e in ones), default=1)
    g = min(mag + n.bit_length() + 16 - tm.bit_length() - te, _scale(digits))
    xs = _scaled(x, g)
    rows = (_scaled(system.int_row(i, digits)[1:], g) for i in range(1, n))
    worst = max((abs((xi - (bi << g) - sum(row[len(xs):]) << g)
                     - sum(map(operator.mul, row, xs)))
                 for xi, bi, row in zip(xs, b, rows)), default=0)
    return worst + ((2 + (n + 1 << mag)) << g), -2 * g


def _checked_solve(system: SubstochasticSystem, solve, b: list) -> list:
    """Accept x = solve(digits), (man, exp) pairs on states 1..len(b),
    when its residual bound against b is below 10**(-d/2), else solve
    once more at twice the digits; the accepted pairs, those the gate
    read, become mpf here and only here.  The refusal names the digits
    of the last try."""
    digits = system.precision.decimal_digits
    for _ in range(2):
        with mp.workdps(digits + _GUARD_DIGITS):
            x = solve(digits)
            if (mp.mpf(_residual_inf(system, digits, x, b))
                    < system.precision.tol(digits)):
                return [mp.mpf(t) for t in x]
        digits *= 2
    raise ArithmeticError(
        f"residual above tolerance even after raising precision to "
        f"{digits // 2} digits (n={system.n}, p={system.params.p})")


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man * 2**exp >= 0 to nearest, ties to even, as mpf rounds: (m, e)
    with m exactly prec bits long, or (0, 0)."""
    s = man.bit_length() - prec
    if s <= 0:
        return (man << -s, exp + s) if man else (0, 0)
    m, half = man >> s, 1 << (s - 1)
    rest = man & (2 * half - 1)
    if rest > half or rest == half and m & 1:
        m += 1
        if m >> prec:   # carried into bit prec
            return m >> 1, exp + s + 1
    return m, exp + s


def _sum(mans: list[int], exps, prec: int) -> tuple[int, int]:
    """The terms man * 2**exp >= 0, their nonzero mantissas of one length,
    summed exactly as (man, exp) over those within 2 prec bits of the
    largest: as in mpmath's mpf_sum, the rest move the sum by under n
    2**(2 - 2 prec) relative, and cannot make a far tail entry build an
    integer much longer than the working precision."""
    exps = list(compress(exps, mans))
    if not exps:
        return 0, 0
    mans, top, low = [*compress(mans, mans)], max(exps), min(exps)
    if low < top - 2 * prec:
        mans, exps = zip(*[t for t in zip(mans, exps)
                           if t[1] >= top - 2 * prec])
        low = min(exps)
    return sum(map(operator.lshift, mans,
                   map(operator.sub, exps, repeat(low)))), low


def _dot(xm, xe, ym, ye, prec: int) -> tuple[int, int]:
    """sum x y over paired entries >= 0 given as mantissa and exponent
    lists, each prec bits long: ``_sum`` of the exact products."""
    return _sum([*map(operator.mul, xm, ym)], map(operator.add, xe, ye),
                prec)


def _div(num: tuple[int, int], den: tuple[int, int],
         prec: int) -> tuple[int, int]:
    """num / den for pairs num >= 0 < den, correctly rounded: the
    quotient has at least prec + 2 bits, and a remainder sets the bit
    below it, which decides only a tie."""
    (nm, ne), (dm, de) = num, den
    s = max(prec + 2 + dm.bit_length() - nm.bit_length(), 0)
    q, r = divmod(nm << s, dm)
    return _round(q << 1 | (r > 0), ne - de - s - 1, prec)


def _add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x + y exactly, for (man, exp) pairs."""
    (xm, xe), (ym, ye) = x, y
    if xe > ye:
        return ym + (xm << xe - ye), ye
    return xm + (ym << ye - xe), xe


def _forward(lu: list[list], b: list[int], prec: int) -> list:
    """L y = b for integers b >= 0 on the leading len(b) states: y(r) =
    b(r) + |L(r, :r)| y, one dot each, b(r) taken by a trailing 1."""
    one, ym, ye = _round(1, 0, prec), [], []
    for r, (row, bi) in enumerate(zip(lu, b)):
        m, e = _round(bi, 0, prec)
        ym.append(m)
        ye.append(e)
        ym[-1], ye[-1] = _round(*_dot(*zip(*row[:r], one), ym, ye, prec),
                                prec)
    return [*zip(ym, ye)]


def _back(lu: list[list], y: list, prec: int) -> list:
    """U x = y >= 0 on the leading len(y) states, from the last: x(i) =
    (y(i) + |U(i, i+1:)| x(i+1:)) / U(i, i), one dot each, y(i) taken by
    a trailing 1, rounded once by the division."""
    one, xm, xe = _round(1, 0, prec), [], []   # x from the last state
    for i in range(len(y) - 1, -1, -1):
        row = lu[i]
        xm.append(y[i][0])
        xe.append(y[i][1])
        xm[-1], xe[-1] = _div(_dot(*zip(*row[len(y) - 1:i:-1], one), xm, xe,
                                   prec), row[i], prec)
    return [*zip(reversed(xm), reversed(xe))]


# a refinement pass must cut the residual by this many bits; two
# passes running that do not hand the solve to the elimination
_SHRINK_BITS = 8


def _refine(system: SubstochasticSystem, b: list[int],
            digits: int) -> list | None:
    """(I-Q)^-1 b over states 1..n-1 by iterative refinement, or None
    where it does not converge: the fixed-point rows have no float
    inverse, or the residual fails twice running to shrink by
    2**_SHRINK_BITS.

    x is kept in integers at scale 2**P and the residual b - (I-Q)x
    exactly at scale 2**2P, on the fixed-point Q (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 12; Carson and Higham, SIAM
    J. Sci. Comput. 40(2), 2018).  Each pass takes the correction as the
    float64 inverse of ``fixed_point_q`` times the residual, rounds it to
    53-bit integers m times one power of two, adds it to x and takes it
    off the residual by P-bit by 53-bit products.  It stops once a
    correction is below 2**-(P-16), the working precision: x >= b >= 1,
    so that is relative too.  x goes back as (man, exp) pairs, rounded
    to the working precision as mpf rounds (``_round``): the pairs the
    residual gate reads, which ``_checked_solve`` converts once it passes.
    """
    scale, fixed, inverse = system.fixed_point_q(digits)
    if inverse is None:
        return None
    x = [0] * len(b)
    r = [v << 2 * scale for v in b]
    size, stalls = max(r), 0
    while True:
        shift = max(size.bit_length() - 53, 0)
        y = inverse @ np.ldexp([float(v >> shift) for v in r], -53)
        # the correction is y * 2**(shift + 53 - P) in units of x's last
        # bit
        t = 53 - math.frexp(float(np.abs(y).max()))[1]
        m = np.rint(np.ldexp(y, t)).astype(np.int64).tolist()
        s = shift + 53 - scale - t
        if s < 0:   # below x's last bit: round to it
            m, s = [(v + (1 << (-s - 1))) >> -s for v in m], 0
        x = [xi + (v << s) for xi, v in zip(x, m)]
        if max(map(abs, m)) << s < 1 << 16:
            break
        r = [ri + ((sum(map(operator.mul, row, m)) - (v << scale)) << s)
             for ri, row, v in zip(r, fixed, m)]
        last, size = size, max(map(abs, r))
        stalls = stalls + 1 if size << _SHRINK_BITS > last else 0
        if stalls == 2:
            return None
    return [*map(_round, x, repeat(-scale), repeat(_prec(digits)))]


def _expectation(system: SubstochasticSystem, b: list[int],
                 what: str) -> list:
    """(I-Q)^-1 b over states 1..n-1, refined or else by forward and back
    substitution; at least b, as the chain starts in i."""
    def solve(digits):
        if (x := _refine(system, b, digits)) is not None:
            return x
        (lu, _), prec = system.factors(system.n - 1, digits), _prec(digits)
        return _back(lu, _forward(lu, b, prec), prec)

    x = _checked_solve(system, solve, b)
    if any(v < bi for v, bi in zip(x, b)):
        raise ArithmeticError(f"{what} below its floor; solve is broken")
    return x


def expected_duration(system: SubstochasticSystem) -> list:
    """E(T | X_0 = i) for i = 1..n-1 as mpf values, from (I-Q)x = e."""
    return _expectation(system, [1] * (system.n - 1), "expected duration")


def expected_size(system: SubstochasticSystem) -> list:
    """E(S | X_0 = i) for i = 1..n-1, from (I-Q)s = (1, ..., n-1)'."""
    return _expectation(system, list(range(1, system.n)), "expected size")


_LIMB_ROWS = 32   # rows of F per GEMM
_LIMB_SHIFTS = 8  # limb shifts of v per Toeplitz copy


def _limb_products(rows: list[list[int]], bits: int):
    """v -> [sum(row * v) for row in rows], exactly, for integers in [0,
    2**bits), each row no longer than v, on float64 BLAS.

    Every integer is split into L 16-bit limbs (L a multiple of K =
    _LIMB_SHIFTS), so a row's sum is sum_s c(s) 2**(16 s) with c(s) the
    limb convolution sum_j sum_{a+b=s} F(j, a) v(j, b).  Blocks of
    _LIMB_ROWS rows, each over its own width W, take their limbs a = K g +
    k as rows (j, k) and columns (g, row) of one (W K) x (L/K R) matrix
    f, R the block's rows, converted to float64 in one C-order pass; each
    product is T @ f, with T the Toeplitz copy T(t, (j, k)) = v(j, t-k),
    t < L+K-1: entry (t, g, row) is the part of c(K g + t) from limbs K
    g..K g+K-1, summed over W K products below 2**32, an integer below
    2**53 for W < 2**18 (n <= MAX_EXACT_N keeps W < 2**11), so exact in
    float64 whatever the summation order (Ozaki, Ogita, Oishi and Rump,
    Numer. Algorithms 59, 2012), and exact again as int64.  OpenBLAS runs
    this orientation faster than f's transpose times T's.  The L/K
    shifted parts add in int64, and each row's integer is read from two
    runs of 32-bit words by ``int.from_bytes``.  The limb copy of the
    rows is built here, once per returned function, and lives as long
    as it."""
    limbs = -(-bits // (16 * _LIMB_SHIFTS)) * _LIMB_SHIFTS
    size, groups = 2 * limbs, limbs // _LIMB_SHIFTS
    span = limbs + _LIMB_SHIFTS - 1   # the columns of T

    def split(values, width):
        """The little-endian limbs of ``values``, padded with zero limbs
        to ``width`` values."""
        return b"".join(map(int.to_bytes, values, repeat(size),
                            repeat("little"))) + bytes(
                                size * (width - len(values)))

    blocks = []
    for start in range(0, len(rows), _LIMB_ROWS):
        block = rows[start:start + _LIMB_ROWS]
        width = max(map(len, block))
        f = np.frombuffer(b"".join(split(row, width) for row in block),
                          "<u2").reshape(len(block), width, groups,
                                         _LIMB_SHIFTS)
        blocks.append((start, width, f.transpose(1, 3, 2, 0).astype(
            float, order="C").reshape(width * _LIMB_SHIFTS,
                                      groups * len(block))))

    def product(v: list[int]) -> list[int]:
        t = np.zeros((span, len(v), _LIMB_SHIFTS))
        limbs_v = np.frombuffer(split(v, len(v)), "<u2").reshape(-1, limbs).T
        for k in range(_LIMB_SHIFTS):
            t[k:k + limbs, :, k] = limbs_v
        t = t.reshape(span, len(v) * _LIMB_SHIFTS)
        parts = np.empty((span, groups, len(rows)), "<i8")
        for start, width, f in blocks:
            part = (t[:, :width * _LIMB_SHIFTS] @ f).reshape(span, groups, -1)
            parts[:, :, start:start + part.shape[2]] = part
        c = np.zeros((size, len(rows)), "<i8")
        for g in range(groups):
            c[g * _LIMB_SHIFTS:g * _LIMB_SHIFTS + span] += parts[:, g]
        # c(s) >= 0 below 2**63 is sum_h c_h(s) 2**(16 h), c_h its 16-bit
        # slices, so a row's sum is sum_u d(u) 2**(16 u) with d(u) =
        # sum_h c_h(u - h) < 2**18: the d(u) at even u, and at odd u, are
        # the 32-bit words of two integers, the odd one 16 bits up
        d = np.zeros((size + 4, len(rows)), "<u4")
        slices = c.view("<u2").reshape(size, -1, 4)
        for h in range(4):
            d[h:h + size] += slices[:, :, h]
        raw = memoryview(d.reshape(limbs + 2, 2, -1).transpose(
            1, 2, 0).tobytes())
        step = 4 * (limbs + 2)   # the bytes of one row's even or odd words
        words = [int.from_bytes(raw[i:i + step], "little")
                 for i in range(0, len(raw), step)]
        return [even + (odd << 16) for even, odd in zip(
            words[:len(rows)], words[len(rows):])]

    return product


def duration_survival(system: SubstochasticSystem, m: int) -> list:
    """P(T > m | X_0 = i) for i = 1..n-1 in integers v at scale 2**P: from
    v = 2**P, m times v = F v >> P on ``fixed_rows``' F = floor(Q 2**P),
    returned exactly as mpf.  Each is within m (n+1) 2**-P of Q^m 1,
    absolute (2**-P per entry of F and per shift, on v <= 1), in [0, 1]
    and nonincreasing in m across calls: F 1 <= 2**P; floors keep order.
    The first product is F's row sums; every later F v runs on float64
    BLAS over 16-bit limbs (``_limb_products``, T @ f per block of 32
    rows), exact as each partial sum is an integer below 2**53 at n <=
    MAX_EXACT_N, whatever the order, so every value is the integer
    product's.  The limb copy of F, about 5 MB at n=100 and 400 digits,
    is built per call and never cached on the system.  At n=100, c=1,
    400 digits, m=6 on a fresh system (one BLAS thread, 2-core x86_64),
    a call took 37-42 ms: the integer rows 18-21 ms, F 1 ms, the limb
    copy 3.6-4.0 ms and the five limb products 13-14 ms."""
    if m < 0:
        raise ValueError(f"horizon must be >= 0, got {m}")
    scale, rows = system.fixed_rows()
    v = [sum(row) for row in rows] if m else [1 << scale] * (system.n - 1)
    if m > 1:
        product = _limb_products(rows, scale + 1)   # v <= 2**P
        for _ in range(m - 1):
            v = [x >> scale for x in product(v)]
    with mp.workprec(scale + 1):
        return [mp.mpf((x, -scale)) for x in v]


def _states_below(n: int, j_level: int) -> int:
    """The count of transient states below a reach level in [1, n]."""
    if not 1 <= j_level <= n:
        raise ValueError(f"level must lie in [1, {n}], got {j_level}")
    return j_level - 1


def reach_probability(system: SubstochasticSystem, j_level: int) -> list:
    """h(i) = P(max_k X_k >= j_level | X_0 = i) for i = 1..j_level-1.

    Restricts the linear system to the transient states below the
    level; for i >= j_level the probability is 1 by definition.  The
    reduced right-hand side is U's row magnitudes summed over columns >=
    j_level and the tail (``factors``' sums), >= 0 as I-Q is an
    M-matrix: no cancellation.
    An entry past 1 by at most the tolerance, a rounding, is clamped to
    1; one past it by more is refused.
    The last bits can depend on which block the system factored before:
    a level solved on the block below it and on a larger cached block
    rounds the tail column of [I-Q | tail] differently, so the two agree
    within the tolerance but not always bit for bit.
    """
    def solve(digits):
        lu, sums = system.factors(m, digits)
        return _back(lu, [s[m - i - 1] for i, s in enumerate(sums[:m])],
                     _prec(digits))

    m = _states_below(system.n, j_level)
    h = _checked_solve(system, solve, [0] * m)
    if not all(0 <= v <= 1 for v in h):
        tol = system.precision.tol()
        # v - 1, not v > 1 + tol: at mpmath's default 53 bits 1 + tol is 1
        if any(v < 0 or v - 1 > tol for v in h):
            raise ArithmeticError("reach probability escaped [0, 1]")
        h = [min(v, mp.mpf(1)) for v in h]
    return h


def max_survival(system: SubstochasticSystem, i0: int,
                 levels) -> list:
    """P(max_k X_k >= J | X_0 = i0) for each J in ``levels``, all from
    one factorization at the highest level solved: that level is solved
    first, retried at twice the digits as every solve is, and the levels
    below read its factors.  A level's last bits can therefore differ
    from a solve of that level alone on a fresh system, which factors
    only the block below it (``reach_probability``), always within the
    tolerance."""
    if not 1 <= i0 <= system.n - 1:
        raise ValueError(f"need 1 <= i0 <= n-1, got {i0}")
    levels = list(levels)
    reached = {j: reach_probability(system, j)[i0 - 1] for j in sorted(
        {j for j in levels if i0 < j <= system.n}, reverse=True)}
    return [reached.get(j, mp.mpf(j <= i0)) for j in levels]


def max_distribution(system: SubstochasticSystem, i0: int,
                     j_max: int | None = None) -> list:
    """pmf of max_k X_k over J = 0..j_max (entries below i0 are zero).
    Adjacent tails near 1 may invert by rounding: a difference below 0
    by at most the tolerance is clamped to 0, one below that refused."""
    j_max = system.n if j_max is None else j_max
    if j_max < 0:
        raise ValueError(f"need j_max >= 0, got j_max={j_max}")
    tail = max_survival(system, i0, range(i0, j_max + 2))
    tol, zero = system.precision.tol(), mp.mpf(0)
    # the tails carry the working precision; so must their differences
    with mp.workdps(system.precision.decimal_digits + _GUARD_DIGITS):
        pmf = [zero] * i0 + [a - b for a, b in zip(tail, tail[1:])]
    if any(v < -tol for v in pmf):
        raise ArithmeticError("max distribution has a negative entry")
    return [max(v, zero) for v in pmf[:j_max + 1]]


def build_q_float(params: ModelParams, rows: int | None = None) -> np.ndarray:
    """Transient kernel Q as a float64 matrix over states 1..n-1, or its
    first ``rows`` rows (states 1..rows): the kernel rows over j =
    1..n-1, written in place, C-contiguous."""
    n = params.n
    return kernel_rows(params, range(1, n if rows is None else rows + 1),
                       n, 1)


def _checked_float_solve(q: np.ndarray, k: int, rhs: np.ndarray,
                         where: str) -> np.ndarray:
    """Solve (I-Q) x = rhs over states 1..k in float64; raise unless x is
    finite and the residual x - Q x - rhs on the unflushed Q is below
    1e-8 * max(1, |rhs|_inf).  LAPACK gets I - Q with its entries below
    _TINY flushed to 0, as their subnormal fill in the LU made it 2.5-3x
    slower at n >= 400; that moves no row of this row-dominant M-matrix
    by a resolvable amount (Higham, section 9.5).  It solves only the
    block over the states 1..K that a transition of the flushed Q can
    enter (``_reached`` on the mask Q >= _TINY), and I - Q is formed
    once over those K columns from it: each later row r is x(r) =
    (rhs(r) + Q(r, :K) x_K) / (I-Q)(r, r), with 1 - Q(r, r) 0 or at
    least 2**-53, never flushed.  Near and above the transition I - Q
    can be too ill-conditioned for float64: the solve then returns
    garbage, negative values included.  Callers check their own
    invariants on top."""
    q = q[:k, :k]   # k = 0 (a reach of level 1) is empty
    reached = _reached(kept := q >= _TINY)
    a = np.negative(q[:, :reached], out=np.zeros((k, reached)),
                    where=kept[:, :reached])
    a[:reached].reshape(-1)[::reached + 1] += 1.0   # the diagonal
    x = np.linalg.solve(a[:reached], rhs[:reached])
    if reached < k:
        x = np.concatenate([x, (rhs[reached:] - a[reached:] @ x)
                            / (1.0 - np.diagonal(q)[reached:])])
    if not np.isfinite(x).all():
        raise ArithmeticError(f"{where} is not finite")
    residual = float(np.abs(x - q @ x - rhs).max(initial=0.0))
    if residual > 1e-8 * max(1.0, float(np.abs(rhs).max(initial=0.0))):
        raise ArithmeticError(f"{where} has residual {residual:.3g}; "
                              "use the mpf solver")
    return x


def float_expectation(params: ModelParams, q: np.ndarray, rhs: np.ndarray,
                      what: str) -> np.ndarray:
    """Checked (I-Q)^-1 rhs from the float Q of ``params``, at least rhs
    as the chain starts in i."""
    where = f"float64 {what} at n={params.n}, p={params.p}"
    x = _checked_float_solve(q, params.n - 1, rhs, where)
    if (x < rhs).any():
        raise ArithmeticError(f"{where} falls below its floor "
                              f"(min {float(np.min(x - rhs)):.3g} off)")
    return x


def expected_duration_float(params: ModelParams) -> np.ndarray:
    """float64 version of expected_duration for large n; raises
    ArithmeticError where float64 cannot be trusted."""
    return float_expectation(params, build_q_float(params),
                             np.ones(params.n - 1), "expected duration")


def expected_size_float(params: ModelParams) -> np.ndarray:
    """float64 version of expected_size for large n; raises
    ArithmeticError where float64 cannot be trusted."""
    return float_expectation(params, build_q_float(params),
                             np.arange(1.0, params.n), "expected size")


def reach_float(params: ModelParams, q: np.ndarray,
                j_level: int) -> np.ndarray:
    """float64 reach_probability from the rows of a float Q of ``params``
    below the level (at least j_level - 1 of them)."""
    lev = _states_below(params.n, j_level)
    where = f"float64 reach of level {j_level} at n={params.n}, p={params.p}"
    h = _checked_float_solve(q, lev, q[:lev, lev:].sum(axis=1), where)
    # rounding may carry a probability a few ulps past [0, 1]; more is a
    # failed solve
    if not ((h >= -1e-8) & (h <= 1 + 1e-8)).all():
        raise ArithmeticError(f"{where} escaped [0, 1]")
    return np.clip(h, 0.0, 1.0)


def reach_probability_float(params: ModelParams, j_level: int) -> np.ndarray:
    """float64 version of reach_probability, from the rows of Q below
    the level."""
    return reach_float(
        params, build_q_float(params, _states_below(params.n, j_level)),
        j_level)


def q_powers(q: np.ndarray, v: np.ndarray, m_max: int) -> np.ndarray:
    """Q^m v for m = 0..m_max in float64: P(T > m | X_0 = i) for v = 1,
    and E(X_m | X_0 = i) for v = (1, ..., n-1), as Q puts no mass on n."""
    if m_max < 0:
        raise ValueError(f"horizon must be >= 0, got {m_max}")
    out = [v]
    for _ in range(m_max):
        out.append(q @ out[-1])
    return np.array(out)


def kernel_power_mean(params: ModelParams, i0: int, k: int) -> float:
    """E(X_k | X_0 = i0) for 0 <= i0 <= n, from k float64 products of Q
    with (1, ..., n-1)."""
    n = params.n
    if not 0 <= i0 <= n or k < 0:
        raise ValueError(f"need 0 <= i0 <= {n} and k >= 0, "
                         f"got i0={i0}, k={k}")
    if i0 in (0, n):
        return float(i0) if k == 0 else 0.0
    means = q_powers(build_q_float(params), np.arange(1.0, n), k)
    return float(means[k][i0 - 1])
