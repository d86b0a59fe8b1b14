"""Upper-tail probabilities and mid-ranks for hdce's two significance tests.

Both tests reduce to a chi-square tail at a ratio of integers. Kendall's W is
tested against a chi-square distribution whose degrees of freedom are an
integer. With x = chi2/2 and m = dof // 2, its lower tail is a series with a
closed-form prefactor: e^-x * sum_{i>=m} x^i / i! for even dof, and
e^-x * 2 sqrt(x/pi) * sum_{i>=m} (2x)^i / (2i+1)!! for odd dof. For dof >= 2 the
tail is 1 minus that series, summed in fixed point with enough bits that the
subtraction cancels none that matter, and rounded once. So it is correctly
rounded, its bits come from integer arithmetic alone (floats only pick the
precision and the underflow cut-off), and it underflows only where the p-value
itself does.

The Wilcoxon signed-rank test ranks its differences by doubled mid-ranks, and its
normal approximation is the 1-dof tail at an exact z^2, since
P(|Z| >= z) = P(chi2_1 >= z^2) = erfc(sqrt(z^2/2)). That tail, which a 2-factor
rankings group also takes, is math.erfc at sqrt(x) rounded once to a double and
corrected to first order by its exact residual, so it is within a few ulp of the
true value; math.erfc and math.exp come from the platform's libm, so its last
bits may differ between platforms.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from operator import eq
from typing import Sequence

_GUARD_BITS = 128  # fixed-point bits beyond those the tail's own smallness cancels
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)  # scales a first-order correction only


def doubled_midranks(values: Sequence[float]) -> list[int]:
    """Twice the mid-rank of each value: a tie over sorted positions i+1..j gets i+1+j."""
    order = sorted(range(len(values)), key=values.__getitem__)
    doubled = [0] * len(values)
    for k, d in zip(order, sorted_doubled_midranks([values[k] for k in order])):
        doubled[k] = d
    return doubled


def sorted_doubled_midranks(ranked: Sequence[float]) -> list[int]:
    """doubled_midranks of values in ascending order, where each run of equal values is adjacent."""
    n = len(ranked)
    doubled = list(range(2, 2 * n + 2, 2))  # untied, sorted position k has rank k+1
    j = 0
    # each position equal to the next starts or continues a run; operator.eq takes no identity
    # shortcut, so NaN equals nothing, itself included, and stays alone
    for i in compress(range(n - 1), map(eq, ranked, ranked[1:])):
        if i >= j:
            j = i + 1
            while j < n and ranked[j] == ranked[i]:
                j += 1
            doubled[i:j] = [i + 1 + j] * (j - i)
    return doubled


def _arctan_fixed(inverse: int, bits: int, *, hyperbolic: bool) -> int:
    """atan(1/inverse), or atanh(1/inverse), times 2**bits, by its Taylor series."""
    power = (1 << bits) // inverse
    total, k, sign = 0, 1, 1
    while power:
        total += sign * (power // k)
        power //= inverse * inverse
        k += 2
        sign = sign if hyperbolic else -sign
    return total


@lru_cache(maxsize=64)
def _constants(bits: int) -> tuple[int, int]:
    """(ln 2, sqrt(pi)), each times 2**bits."""
    ln2 = 2 * _arctan_fixed(3, bits, hyperbolic=True)  # ln 2 = 2 atanh(1/3)
    pi = 16 * _arctan_fixed(5, bits, hyperbolic=False) - 4 * _arctan_fixed(239, bits, hyperbolic=False)  # Machin
    return ln2, math.isqrt(pi << bits)


def _exp_neg(num: int, den: int, bits: int) -> tuple[int, int]:
    """(f, n) with e^-x = f * 2**-(bits + n), for x = num/den >= 0."""
    ln2, _ = _constants(bits)
    n = math.floor(num / den / math.log(2)) + 2
    s = n * ln2 - (num << bits) // den  # (n ln 2 - x) * 2**bits, in about (0.69, 1.39] * 2**bits
    f = term = 1 << bits
    k = 1
    while term:  # e^s by its Taylor series; every term is positive
        term = term * s // (k << bits)
        f += term
        k += 1
    return f, n


def _erfc_sqrt(num: int, den: int) -> float:
    """erfc(sqrt(num/den)), for a num/den whose double is above 0."""
    root = math.sqrt(num / den)
    root_num, root_den = root.as_integer_ratio()
    # sqrt(num/den) - root to first order, exact before its one rounding
    residual = (num * root_den**2 - den * root_num**2) / (2 * den * root_num * root_den)
    return math.erfc(root) - residual * _TWO_OVER_SQRT_PI * math.exp(-root * root)


def chi_square_sf(num: int, den: int, dof: int) -> float:
    """P(X >= num/den) for X chi-square with an integer dof >= 1 degrees of freedom, at a
    ratio of integers num/den >= 0 (a float chi2 passes *chi2.as_integer_ratio()).

    With x = num/den/2 and m = dof // 2, dof 1 is erfc(sqrt(x)), within a few ulp. For
    dof >= 2 the tail is 1 - pre * sum_{i>=m} y^i / D_i, with pre = e^-x, y = x, D_i = i!
    for even dof and pre = e^-x * 2 sqrt(x/pi), y = 2x, D_i = (2i+1)!! for odd dof. pre
    and the terms are fixed-point integers of `bits` fractional bits, each off by at most
    one unit per truncating step that formed it. `bits` adds _GUARD_BITS to the bits the
    subtraction can cancel, which Chernoff's bound e^log_tail caps, and to the bits of m,
    so the difference is within 2**-110 of the tail, relative (measured up to dof 4,095),
    and its one rounding is correct unless the tail lies that close to a rounding boundary.
    """
    if dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    x_num, x_den = num, 2 * den
    if not x_num / x_den > 0.0:
        return 1.0  # x is 0 or below half the smallest subnormal: every term but the first rounds away
    chi_square = num / den
    log_tail = 0.0
    if chi_square > dof:
        log_tail = dof / 2 * math.log(chi_square / dof) + (dof - chi_square) / 2
        if log_tail < -750.0:
            return 0.0  # Chernoff's bound puts the tail below half the smallest subnormal, e^-745.13
    if dof == 1:
        return _erfc_sqrt(x_num, x_den)
    odd = dof % 2 == 1
    m = dof // 2
    bits = _GUARD_BITS + math.ceil(-log_tail / math.log(2)) + m.bit_length()
    y_num, y_den = (num, den) if odd else (x_num, x_den)  # the series' ratio y = 2x or x
    f, n = _exp_neg(x_num, x_den, bits)
    # the series' prefactor, e^-x or e^-x * 2 sqrt(x/pi), as pre / 2**shift
    pre, shift = f, bits + n
    if odd:
        _, sqrt_pi = _constants(bits)
        pre *= (math.isqrt((x_num << 2 * bits) // x_den) << (bits + 1)) // sqrt_pi
        shift += bits
    total, term, i = 0, 1 << bits, 0
    while term:
        if i >= m:
            total += term
        i += 1
        term = term * y_num // (y_den * (2 * i + 1 if odd else i))
    whole = 1 << (shift + bits)
    return (whole - pre * total) / whole  # int / int rounds once, correctly, subnormals too
