"""Exact integer evaluation of upper and lower bounds on stable-configuration counts.

Everything here is plain arbitrary-precision integer arithmetic: factorials,
binomials, multinomials, and products of powers.  No floating point is used
anywhere.  The exact decimal is produced by splitting the integer on
powers of ten, so that every `str()` call stays under the interpreter's
integer digit cap and the cap itself is never changed; scientific notation
is rounded from those exact decimal digits.

The upper bounds come from decomposing the tree along root-anchored
alternating (zigzag) paths; the binary-tree variants sharpen two factors.
The lower bounds multiply per-level factors counted off an explicit family
of stabilizing strategies.
"""

from __future__ import annotations

from functools import cached_property
from math import comb, factorial, isqrt

from .tree import TreeShape, _Frozen, layer_start


class FormulaError(ArithmeticError):
    """An exactness check failed, signalling a transcription bug."""


def n_chips(k: int, ell: int) -> int:
    """Chips needed to fill layers 1..ell with one chip per vertex: (k^ell-1)/(k-1)."""
    if ell < 0:
        raise ValueError(f"layer count must be >= 0, got {ell}")
    return layer_start(TreeShape(k), ell + 1)


def euler_zigzag(ell: int) -> int:
    """Number of alternating permutations of {1..ell} (boustrophedon recurrence)."""
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    row = [1]
    for n in range(1, ell + 1):
        prev = row
        row = [0]
        for i in range(n):
            row.append(row[-1] + prev[n - 1 - i])
    return row[-1]


def _primes_upto(n: int) -> list[int]:
    """All primes <= n, by a plain byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, flag in enumerate(sieve) if flag]


def _factorial_exponent(n: int, p: int) -> int:
    """Exponent of the prime p in n! (Legendre's formula)."""
    e = 0
    while n:
        n //= p
        e += n
    return e


def multinomial(n: int, parts: list[int]) -> int:
    """n! divided by the factorials of the parts, assembled from prime exponents.

    CPython's big-integer division is quadratic, so the plain factorial
    quotient stalls once n reaches the tens of thousands.  Collecting the
    surviving prime powers and multiplying them in a balanced tree keeps the
    layer factors fast without giving up exact arithmetic.
    """
    if any(p < 0 for p in parts):
        raise ValueError(f"parts must be nonnegative, got {parts}")
    if sum(parts) != n:
        raise ValueError(f"parts {parts} sum to {sum(parts)}, expected {n}")
    powers = []
    for p in _primes_upto(n):
        e = _factorial_exponent(n, p) - sum(_factorial_exponent(q, p) for q in parts)
        if e < 0:
            raise FormulaError(f"negative exponent of {p} in multinomial({n}, {parts})")
        if e:
            powers.append(p**e)
    while len(powers) > 1:
        paired = [powers[i] * powers[i + 1] for i in range(0, len(powers) - 1, 2)]
        if len(powers) % 2:
            paired.append(powers[-1])
        powers = paired
    return powers[0] if powers else 1


# ---------------------------------------------------------------------------
# reports


class BoundReport(_Frozen):
    """An exact bound value tagged with what it bounds.

    The value is converted to decimal once, on first use; `decimal()`,
    `sci()`, `to_json_dict()` and the repr all read those digits.
    """

    kind: str
    k: int
    ell: int
    value: int
    _fields = ("kind", "k", "ell", "value")

    def __init__(self, kind: str, k: int, ell: int, value: int) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "value", value)

    @cached_property
    def _digits(self) -> str:
        return decimal_string(self.value)

    def __repr__(self) -> str:
        # the value goes through decimal_string: its repr could exceed the digit cap
        return (
            f"{type(self).__qualname__}(kind={self.kind!r}, k={self.k!r}, ell={self.ell!r}, "
            f"value={self._digits})"
        )

    def sci(self, digits: int = 4) -> str:
        mantissa, exponent = _round_digits(self._digits, digits)
        return f"{mantissa}e{exponent}"

    def decimal(self) -> str:
        return self._digits

    def to_json_dict(self, digits: int = 4) -> dict:
        mantissa, exponent = _round_digits(self._digits, digits)
        return {
            "kind": self.kind,
            "k": self.k,
            "ell": self.ell,
            "value_decimal": self._digits,
            "mantissa": mantissa,
            "exponent": exponent,
        }


def sci_parts(value: int, digits: int = 4) -> tuple[str, int]:
    """Round a nonnegative integer to `digits` significant digits, half-to-even.

    Returns (mantissa string like "3.168", power-of-ten exponent).
    """
    return _round_digits(decimal_string(value), digits)


def _round_digits(decimal: str, digits: int) -> tuple[str, int]:
    """`sci_parts` of the integer whose exact decimal string is `decimal`."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if decimal.startswith("-"):
        raise ValueError("bound values are nonnegative")
    exponent = len(decimal) - 1
    # Without trailing zeros, a first dropped digit of 5 is a tie exactly when
    # it is the last digit; "0" strips to "" and reads as a mantissa of 0.
    significant = decimal.rstrip("0")
    m = int(significant[:digits].ljust(digits, "0"))
    if len(significant) > digits:
        dropped = significant[digits]
        if dropped > "5" or (dropped == "5" and (len(significant) > digits + 1 or m % 2)):
            m += 1
    if m == 10**digits:
        m //= 10
        exponent += 1
    mantissa = str(m).zfill(digits)
    return (f"{mantissa[0]}.{mantissa[1:]}" if digits > 1 else mantissa, exponent)


# str() of a value of at most this many bits has at most 603 digits, below the
# smallest digit cap the interpreter accepts (640), so it cannot fail.
_STR_BITS = 2000


def decimal_string(value: int) -> str:
    """The digits of str(value), whatever the interpreter's digit cap.

    Splits the value at 10**half, half being about half its digit count,
    converts the two parts apart and zero-pads the low part to half digits;
    only parts of at most `_STR_BITS` bits go to str().  The digit cap is
    left alone.
    """
    if value < 0:
        return "-" + decimal_string(-value)
    if value.bit_length() <= _STR_BITS:
        return str(value)
    half = value.bit_length() * 30103 // 200000
    high, low = divmod(value, 10**half)
    return decimal_string(high) + decimal_string(low).zfill(half)


# ---------------------------------------------------------------------------
# upper bounds


def naive_bound(k: int, ell: int) -> BoundReport:
    """Count every ordering of the non-extreme chips: (N-2)! for N chips."""
    if ell <= 2:
        raise ValueError(f"out of stated range: need ell > 2, got {ell}")
    return BoundReport("naive", k, ell, factorial(n_chips(k, ell) - 2))


def _zigzag_factor(k: int, ell: int, drop: int) -> int:
    """Ways to choose and order the chips of one zigzag path and split the rest.

    The product of a binomial (which chips ride the zigzag), a multinomial
    (how the remaining chips scatter over the subtrees hanging off the path),
    and the alternating-permutation count (how the zigzag chips interleave).
    The two leading subtrees each hold `drop` chips fewer than a full load.
    """
    parts = [n_chips(k, ell - 1) - 1 - drop] + [n_chips(k, ell - 1)] * (k - 2)
    parts += [n_chips(k, ell - 2) - 1 - drop] + [n_chips(k, ell - 2)] * (k - 2)
    for i in range(ell - 3, 0, -1):
        parts += [n_chips(k, i)] * (k - 1)
    n = n_chips(k, ell) - 2 * drop
    assert sum(parts) == n - ell - 2, "subtree sizes must account for all remaining chips"
    return comb(n - 2, ell) * multinomial(n - ell - 2, parts) * euler_zigzag(ell)


def zigzag_layer_factor(k: int, ell: int) -> int:
    """The zigzag factor of one layer: every subtree holds a full load."""
    if ell < 3:
        raise ValueError(f"need ell >= 3, got {ell}")
    return _zigzag_factor(k, ell, 0)


def zigzag_bound(k: int, ell: int) -> BoundReport:
    """Upper bound on orderings (and hence stable configurations) for ell layers."""
    if ell < 3:
        raise ValueError(f"need ell >= 3, got {ell}")
    value = (k - 1) ** ((k - 1) * k ** (ell - 3)) * zigzag_layer_factor(k, ell)
    for i in range(1, ell - 2):
        value *= zigzag_layer_factor(k, ell - i) ** ((k - 1) * k ** (i - 1))
    return BoundReport("zigzag", k, ell, value)


def recursive_orderings_bound(k: int, ell: int, t_values: list[int]) -> int:
    """One level of the recursive ordering bound.

    `t_values[i-1]` bounds the orderings of an i-layer subtree, for
    i = 1..ell-1; each of the k-1 off-path subtrees of a level contributes
    its bound as a factor.
    """
    if ell < 3:
        raise ValueError(f"need ell >= 3, got {ell}")
    if len(t_values) < ell - 1:
        raise ValueError(f"missing T level: need levels 1..{ell - 1}, got {len(t_values)}")
    value = zigzag_layer_factor(k, ell)
    for i in range(1, ell):
        value *= t_values[i - 1] ** (k - 1)
    return value


def binary_layer_factor_orderings(ell: int) -> int:
    """Binary-tree zigzag factor counting subtree orderings: `zigzag_layer_factor(2, ell)`."""
    if ell < 4:
        raise ValueError(f"need ell >= 4, got {ell}")
    return _zigzag_factor(2, ell, 0)


def binary_layer_factor_configs(ell: int) -> int:
    """Binary-tree zigzag factor counting stable configurations: one chip
    fewer in each of the two leading subtrees."""
    if ell < 4:
        raise ValueError(f"need ell >= 4, got {ell}")
    return _zigzag_factor(2, ell, 1)


def binary_zigzag_bound(ell: int, which: str) -> BoundReport:
    """Sharpened binary-tree upper bound; `which` picks orderings (T) or configs (Z)."""
    if ell < 4:
        raise ValueError(f"need ell >= 4, got {ell}")
    if which == "T":
        lead = binary_layer_factor_orderings(ell)
    elif which == "Z":
        lead = binary_layer_factor_configs(ell)
    else:
        raise ValueError(f"which must be 'T' or 'Z', got {which!r}")
    value = 10 ** (2 ** (ell - 4)) * lead
    for i in range(4, ell):
        value *= binary_layer_factor_orderings(i) ** (2 ** (ell - 1 - i))
    return BoundReport(f"binary_{which}", 2, ell, value)


# ---------------------------------------------------------------------------
# lower bounds


def construction_windows(k: int, level: int, i: int) -> tuple[int, range, range]:
    """The stationary chip m of one construction level and the windows of its
    choices when i chip pairs cross the root: c takes i chips of the first
    window (below m), c' takes i chips of the second (above m)."""
    n = n_chips(k, level)
    m = (n - 1) // k * (k // 2) + 1
    return m, range(k // 2 + 2, m), range(m + 1, n - 2 * ((k + 1) // 2) + i)


def construction_layer_factor(k: int, level: int) -> int:
    """Distinct outcomes one level of the explicit construction can produce.

    Sums, over how many chip pairs are steered across the root, the ways to
    pick the crossing chips in each window.
    """
    if level < 2:
        raise ValueError(f"need level >= 2, got {level}")
    total = 0
    for i in range(k // 2 + 1):
        _, c, c_prime = construction_windows(k, level, i)
        total += comb(len(c), i) * comb(len(c_prime), i)
    return total


def lower_bound_general(k: int, ell: int) -> BoundReport:
    """Lower bound on stable configurations: construction factors over all levels."""
    if k < 2:
        raise ValueError(f"arity must be >= 2, got {k}")
    if ell < 3:
        raise ValueError(f"need ell >= 3, got {ell}")
    value = 1
    for j in range(3, ell + 1):
        value *= construction_layer_factor(k, j) ** (k ** (ell - j))
    return BoundReport("lower_general", k, ell, value)


def lower_bound_binary(ell: int) -> BoundReport:
    """Stronger binary-tree lower bound in closed form."""
    if ell < 3:
        raise ValueError(f"need ell >= 3, got {ell}")
    value = 6 ** (2 ** (ell - 3))
    for j in range(4, ell + 1):
        m = 2 ** (j - 1) - 3
        value *= (1 + m * m) ** (2 ** (ell - j))
    return BoundReport("lower_binary", 2, ell, value)


def asymptotic_check(k: int, ell: int) -> bool:
    """True when the zigzag bound beats the naive factorial bound at (k, ell)."""
    if ell < 4:
        raise ValueError(f"need ell >= 4, got {ell}")
    if k < 2:
        raise ValueError(f"arity must be >= 2, got {k}")
    return zigzag_bound(k, ell).value < factorial(n_chips(k, ell) - 3)
