"""Upper-tail probabilities for hdce's two significance tests, from the standard library.

Both tests reduce to a chi-square tail at a ratio of integers. Kendall's W is
tested against a chi-square distribution whose degrees of freedom are an
integer, so its tail has a closed form: with x = chi2/2, e^-x times a finite sum
of powers of x for even dof, plus erfc(sqrt(x)) for odd dof. The Wilcoxon
signed-rank test's normal approximation is the 1-dof tail at an exact z^2, since
P(|Z| >= z) = P(chi2_1 >= z^2) = erfc(sqrt(z^2/2)).

The finite sum is formed exactly as a ratio of integers and scaled by e^-x to
_BITS bits, so an even-dof tail is correctly rounded, an odd-dof tail adds only
its erfc term's error, and nothing underflows before the p-value itself does.
The erfc argument sqrt(x) is rounded once to a double and corrected to first
order by its exact residual, so a 1-dof tail is within a few ulp of the true
value. math.erfc and math.exp come from the platform's libm, so the last bits
may differ between platforms.
"""

from __future__ import annotations

import math

_BITS = 128  # fixed-point precision of the integer arithmetic, against a double's 53


def _arctan_fixed(inverse: int, *, hyperbolic: bool) -> int:
    """atan(1/inverse), or atanh(1/inverse), times 2**_BITS, by its Taylor series."""
    power = (1 << _BITS) // inverse
    total, k, sign = 0, 1, 1
    while power:
        total += sign * (power // k)
        power //= inverse * inverse
        k += 2
        sign = sign if hyperbolic else -sign
    return total


_LN2 = 2 * _arctan_fixed(3, hyperbolic=True)  # ln 2 = 2 atanh(1/3), times 2**_BITS
_PI = 16 * _arctan_fixed(5, hyperbolic=False) - 4 * _arctan_fixed(239, hyperbolic=False)  # Machin's formula
_SQRT_PI = math.isqrt(_PI << _BITS)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)  # scales a first-order correction only


def _exp_neg(num: int, den: int) -> tuple[int, int]:
    """(f, n) with e^-x = f * 2**-(_BITS + n), to about 2**-100 relative, for x = num/den >= 0."""
    n = math.floor(num / den / math.log(2)) + 2
    s = n * _LN2 - (num << _BITS) // den  # (n ln 2 - x) * 2**_BITS, in (0.69, 1.39] * 2**_BITS
    f = term = 1 << _BITS
    k = 1
    while term:  # e^s by its Taylor series; every term is positive
        term = term * s // (k << _BITS)
        f += term
        k += 1
    return f, n


def _ratio(num: int, den: int, shift: int) -> float:
    """num / den * 2**-shift correctly rounded, for num, den > 0 and shift >= 0."""
    if num.bit_length() - den.bit_length() - shift < -1076:
        return 0.0  # below half the smallest subnormal
    return num / (den << shift)


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

    With x = num/den/2 and m = dof // 2 terms:
    even dof: e^-x * sum_{i<m} x^i / i!;
    odd dof: erfc(sqrt(x)) + e^-x * 2 sqrt(x/pi) * sum_{i<m} (2x)^i / (2i+1)!!.
    """
    if dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    x_num, x_den = num, 2 * den
    if not x_num / x_den > 0.0:
        return 1.0  # x is 0 or below half the smallest subnormal: every term but the first rounds away
    chi_square = num / den
    if chi_square > dof and dof / 2 * math.log(chi_square / dof) + (dof - chi_square) / 2 < -750.0:
        return 0.0  # Chernoff's bound puts the tail below half the smallest subnormal, e^-745.13
    if dof == 1:
        return _erfc_sqrt(x_num, x_den)
    odd = dof % 2 == 1
    m = dof // 2
    y_num, y_den = (num, den) if odd else (x_num, x_den)  # the sum's ratio y = 2x or x
    f, n = _exp_neg(x_num, x_den)
    # the sum's prefactor, e^-x or e^-x * 2 sqrt(x/pi), as pre / 2**shift
    pre, shift = f, _BITS + n
    if odd:
        pre *= (math.isqrt((x_num << 2 * _BITS) // x_den) << (_BITS + 1)) // _SQRT_PI
        shift += _BITS
    if odd and x_num < m * x_den:
        # here x < m, erfc(sqrt(x)) is near 1, and its error of order ulp(1) would make the tail
        # step up and down by an ulp as chi2 grows: take 1 minus the lower tail,
        # pre * sum_{i>=m} (2x)^i / (2i+1)!!, whose first term is exact and whose ratios
        # 2x/(2i+3) are below 1, and round once
        first_num, first_den = y_num**m, y_den**m * math.prod(range(3, 2 * m + 2, 2))
        series = term = 1 << _BITS
        j = m + 1
        while term:
            term = term * y_num // (y_den * (2 * j + 1))
            series += term
            j += 1
        whole = first_den << (shift + _BITS)
        return _ratio(whole - pre * first_num * series, whole, 0)
    # the finite sum as a / b, by Horner's rule from its last term: a/b <- 1 + y/c_j * a/b
    a = b = 1
    for j in range(m - 1, 0, -1):
        c = y_den * (2 * j + 1 if odd else j) * b
        a, b = c + y_num * a, c
    upper = _ratio(pre * a, b, shift)
    return _erfc_sqrt(x_num, x_den) + upper if odd else upper
