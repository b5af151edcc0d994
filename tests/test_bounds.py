"""Exact-arithmetic bounds: frozen table values, identities, and formatting."""

import itertools
import math
import random
import sys

import pytest

from karyfire import bounds
from karyfire.bounds import (
    BoundReport,
    FormulaError,
    asymptotic_check,
    binary_layer_factor_configs,
    binary_layer_factor_orderings,
    binary_zigzag_bound,
    construction_layer_factor,
    construction_windows,
    decimal_string,
    euler_zigzag,
    lower_bound_binary,
    lower_bound_general,
    multinomial,
    n_chips,
    naive_bound,
    recursive_orderings_bound,
    sci_parts,
    zigzag_bound,
    zigzag_layer_factor,
)


def alternating_count(n):
    """Brute-force count of up-down permutations of 1..n."""
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(1, n + 1)):
        if all((perm[i] < perm[i + 1]) == (i % 2 == 0) for i in range(n - 1)):
            total += 1
    return total


# ---------------------------------------------------------------------------
# building blocks


def test_n_chips():
    assert n_chips(2, 3) == 7
    assert n_chips(2, 4) == 15
    assert n_chips(3, 3) == 13
    assert n_chips(4, 3) == 21
    assert n_chips(10, 2) == 11
    assert n_chips(2, 0) == 0
    with pytest.raises(ValueError):
        n_chips(1, 3)
    with pytest.raises(ValueError):
        n_chips(2, -1)


def test_euler_zigzag_frozen():
    assert [euler_zigzag(n) for n in range(9)] == [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    with pytest.raises(ValueError):
        euler_zigzag(-1)


@pytest.mark.parametrize("n", range(9))
def test_euler_zigzag_counts_alternating_permutations(n):
    assert euler_zigzag(n) == alternating_count(n)


def test_multinomial():
    assert multinomial(7, [5, 1, 1]) == 42
    assert multinomial(0, []) == 1
    assert multinomial(10, [1] * 10) == math.factorial(10)
    for n, a in [(9, 2), (12, 5), (30, 17)]:
        assert multinomial(n, [a, n - a]) == math.comb(n, a)
    with pytest.raises(ValueError):
        multinomial(5, [2, 2])
    with pytest.raises(ValueError):
        multinomial(5, [6, -1])


def checked_factorial_quotient(n, parts):
    """Reference multinomial: n! over the product of the parts' factorials."""
    quotient, remainder = divmod(math.factorial(n), math.prod(math.factorial(p) for p in parts))
    assert remainder == 0
    return quotient


def test_prime_multinomial_matches_checked_quotient():
    """The prime-exponent evaluator must agree with the plain factorial
    quotient everywhere, including degenerate splits."""
    cases = [(0, []), (1, [1]), (5, [5]), (7, [5, 1, 1]), (12, [3, 3, 3, 3]), (9, [0, 9, 0])]
    rng = random.Random(20260814)
    for _ in range(40):
        n = rng.randrange(0, 300)
        parts = []
        left = n
        while left > 0:
            cut = rng.randrange(1, left + 1)
            parts.append(cut)
            left -= cut
        cases.append((n, parts))
    for n, parts in cases:
        assert multinomial(n, parts) == checked_factorial_quotient(n, parts)


# ---------------------------------------------------------------------------
# upper bounds


def test_naive_bound_frozen():
    assert naive_bound(2, 3).value == 120
    assert naive_bound(4, 3).value == 121645100408832000
    assert naive_bound(2, 3).value == math.factorial(n_chips(2, 3) - 2)
    with pytest.raises(ValueError):
        naive_bound(2, 2)


def test_zigzag_layer_factor_frozen():
    assert zigzag_layer_factor(2, 3) == 20
    assert zigzag_layer_factor(2, 4) == 900900
    assert zigzag_layer_factor(4, 3) == 117327450240


def _hanging_subtree_sizes(k, ell):
    """Sizes of the subtrees hanging off a root-to-leaf zigzag path.

    Each of the ell - 1 path vertices above the leaf has k - 1 children off
    the path; a child at depth d below the surface roots a subtree holding
    n_chips(k, d) vertices.  The two pinned extreme chips occupy one known
    slot in a topmost subtree and one in a subtree one layer down, so those
    two are each short a free slot.
    """
    sizes = []
    for depth in range(ell - 1, 0, -1):
        sizes += [n_chips(k, depth)] * (k - 1)
    sizes[0] -= 1
    sizes[k - 1] -= 1
    return sizes


@pytest.mark.parametrize(
    "k,ell",
    [(k, ell) for k in (2, 3, 4, 5, 6) for ell in (3, 4, 5, 6, 7)]
    + [(2, 8), (3, 8), (4, 8), (5, 8)],
)
def test_zigzag_layer_factor_reconstruction(k, ell):
    """Rebuild the per-layer factor from scratch: choose which chips ride the
    zigzag, scatter the rest over the hanging subtrees, and interleave the
    path chips in every alternating order."""
    n = n_chips(k, ell)
    sizes = _hanging_subtree_sizes(k, ell)
    assert sum(sizes) == n - ell - 2
    expected = math.comb(n - 2, ell) * multinomial(n - ell - 2, sizes) * euler_zigzag(ell)
    assert zigzag_layer_factor(k, ell) == expected


@pytest.mark.parametrize("k,ell", [(2, 4), (3, 3), (3, 4), (4, 3), (5, 3)])
def test_zigzag_layer_factor_factorial_quotient(k, ell):
    """On small trees the factor matches a direct factorial quotient, with no
    multinomial helper in the loop."""
    n = n_chips(k, ell)
    sizes = _hanging_subtree_sizes(k, ell)
    quotient = math.factorial(n - ell - 2)
    for s in sizes:
        quotient //= math.factorial(s)
    assert zigzag_layer_factor(k, ell) == math.comb(n - 2, ell) * quotient * euler_zigzag(ell)


def test_zigzag_bound_frozen():
    assert zigzag_bound(2, 3).value == 20
    assert zigzag_bound(2, 4).value == 18018000
    assert zigzag_bound(4, 3).value == 3167841156480
    report = zigzag_bound(4, 3)
    assert (report.kind, report.k, report.ell) == ("zigzag", 4, 3)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_closed_form_unrolls_the_recursion(k, ell):
    """The product closed form equals the one-level recursion fed with the
    already-computed smaller values (levels 1 and 2 count 1 and k-1)."""
    t_values = [1, k - 1] + [zigzag_bound(k, j).value for j in range(3, ell + 1)]
    assert zigzag_bound(k, ell + 1).value == recursive_orderings_bound(k, ell + 1, t_values)


def test_recursive_bound_needs_all_levels():
    with pytest.raises(ValueError, match="missing T level"):
        recursive_orderings_bound(2, 4, [1, 1])


def test_binary_layer_factors_frozen():
    assert binary_layer_factor_orderings(4) == 900900
    assert binary_layer_factor_configs(4) == 69300
    for ell in range(4, 13):
        assert binary_layer_factor_orderings(ell) == zigzag_layer_factor(2, ell)
        # the configs factor spelled out: one chip fewer in each leading subtree
        parts = [2 ** (ell - 1) - 3, 2 ** (ell - 2) - 3] + [2**i - 1 for i in range(ell - 3, 0, -1)]
        expected = euler_zigzag(ell) * math.comb(2**ell - 5, ell) * multinomial(2**ell - ell - 5, parts)
        assert binary_layer_factor_configs(ell) == expected
    with pytest.raises(ValueError):
        binary_layer_factor_configs(3)


def test_binary_zigzag_bound_frozen():
    assert binary_zigzag_bound(4, "T").value == 9009000
    assert binary_zigzag_bound(4, "Z").value == 693000
    with pytest.raises(ValueError):
        binary_zigzag_bound(4, "Q")
    with pytest.raises(ValueError):
        binary_zigzag_bound(3, "Z")


@pytest.mark.parametrize("ell", [4, 5, 6, 7])
def test_binary_refinement_is_tighter(ell):
    assert binary_zigzag_bound(ell, "Z").value < zigzag_bound(2, ell).value


# ---------------------------------------------------------------------------
# lower bounds


def test_construction_layer_factor_frozen():
    assert construction_layer_factor(2, 3) == 2
    assert construction_layer_factor(2, 4) == 26
    assert construction_layer_factor(3, 3) == 9
    assert construction_layer_factor(4, 3) == 484
    assert construction_layer_factor(4, 4) == 550564


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_construction_layer_factor_reconstruction(k, level):
    n = n_chips(k, level)
    base = (n - 1) // k
    lo, hi = k // 2, (k + 1) // 2
    expected = 0
    for i in range(lo + 1):
        left = math.comb(base * lo - 1 - lo, i) if base * lo - 1 - lo >= i else 0
        right = math.comb(base * hi - 1 - 2 * hi + i, i) if base * hi - 1 - 2 * hi + i >= i else 0
        expected += (left if i else 1) * (right if i else 1)
    assert construction_layer_factor(k, level) == expected


def test_construction_windows_frozen():
    assert construction_windows(2, 3, 0) == (4, range(3, 4), range(5, 5))
    assert construction_windows(2, 4, 1) == (8, range(3, 8), range(9, 14))
    assert construction_windows(4, 3, 2) == (11, range(4, 11), range(12, 19))
    assert construction_windows(3, 2, 1) == (2, range(3, 2), range(3, 1))  # both empty


def test_binary_layer_factor_closed_form():
    for ell in range(4, 11):
        assert construction_layer_factor(2, ell) == 1 + (2 ** (ell - 1) - 3) ** 2


def test_lower_bound_binary_frozen():
    assert lower_bound_binary(3).value == 6
    assert lower_bound_binary(4).value == 936
    assert lower_bound_binary(5).value == 148936320
    assert lower_bound_binary(4).value == 6**2 * 26
    assert lower_bound_binary(5).value == 6**4 * 26**2 * 170


def test_lower_bound_general_frozen():
    assert lower_bound_general(2, 3).value == 2
    assert lower_bound_general(2, 4).value == 104
    assert lower_bound_general(4, 3).value == 484


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
def test_lower_bound_general_is_the_layer_product(k, ell):
    expected = 1
    for j in range(3, ell + 1):
        expected *= construction_layer_factor(k, j) ** (k ** (ell - j))
    assert lower_bound_general(k, ell).value == expected


@pytest.mark.parametrize("ell", range(3, 11))
def test_binary_lower_bound_dominates_the_generic_one(ell):
    assert lower_bound_binary(ell).value >= lower_bound_general(2, ell).value


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7, 8])
def test_bounds_sandwich(k, ell):
    assert lower_bound_general(k, ell).value <= zigzag_bound(k, ell).value
    assert zigzag_bound(k, ell).value < naive_bound(k, ell).value


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("ell", [4, 5, 6, 7, 8])
def test_asymptotic_check(k, ell):
    assert asymptotic_check(k, ell)


def test_asymptotic_check_range():
    with pytest.raises(ValueError):
        asymptotic_check(2, 3)


# ---------------------------------------------------------------------------
# published reference values (scientific notation, rounded as printed)


PRINTED_CELLS = [
    (lambda: naive_bound(4, 4), "3.9", 124),
    (lambda: zigzag_bound(4, 4), "3.2", 99),
    (lambda: naive_bound(4, 5), "1.5", 712),
    (lambda: zigzag_bound(4, 5), "2.0", 601),
    (lambda: binary_zigzag_bound(5, "Z"), "2.9", 22),
    (lambda: zigzag_bound(2, 5), "1.1", 24),
    (lambda: binary_zigzag_bound(6, "Z"), "1.8", 65),
    (lambda: zigzag_bound(2, 6), "2.5", 67),
    (lambda: binary_zigzag_bound(7, "Z"), "1.5", 170),
    (lambda: zigzag_bound(2, 7), "3.1", 173),
    (lambda: lower_bound_binary(6), "1.9", 19),
    (lambda: lower_bound_binary(7), "1.3", 42),
    (lambda: lower_bound_general(4, 4), "3.02", 16),
    (lambda: lower_bound_general(4, 5), "1.6", 74),
    (lambda: zigzag_bound(4, 4), "3.2146", 99),
    (lambda: zigzag_bound(4, 5), "1.9761", 601),
]


@pytest.mark.parametrize("make,mantissa,exponent", PRINTED_CELLS)
def test_printed_reference_cells(make, mantissa, exponent):
    digits = len(mantissa.replace(".", ""))
    assert sci_parts(make().value, digits) == (mantissa, exponent)


# ---------------------------------------------------------------------------
# formatting


def test_sci_parts():
    assert sci_parts(3167841156480, 4) == ("3.168", 12)
    assert sci_parts(693000, 4) == ("6.930", 5)
    assert sci_parts(1, 3) == ("1.00", 0)
    assert sci_parts(0, 3) == ("0.00", 0)
    assert sci_parts(0, 1) == ("0", 0)
    assert sci_parts(95, 1) == ("1", 2)  # rounds up across a power of ten
    assert sci_parts(999, 2) == ("1.0", 3)
    with pytest.raises(ValueError):
        sci_parts(100, 0)
    with pytest.raises(ValueError):
        sci_parts(-5, 2)


def test_sci_parts_ties_round_half_even():
    assert sci_parts(25, 1) == ("2", 1)
    assert sci_parts(35, 1) == ("4", 1)
    assert sci_parts(1250, 2) == ("1.2", 3)
    assert sci_parts(1350, 2) == ("1.4", 3)
    assert sci_parts(250, 2) == ("2.5", 2)  # exact, nothing to round


def _floor_log10(value):
    e = max(0, (value.bit_length() - 1) * 30103 // 100000)
    p = 10**e
    while p * 10 <= value:
        p *= 10
        e += 1
    while p > value:
        p //= 10
        e -= 1
    return e


def reference_sci_parts(value, digits):
    """`sci_parts` by big-integer rounding: divide by a power of ten, round the
    remainder half-to-even, never look at the decimal digits."""
    if value == 0:
        return ("0." + "0" * (digits - 1) if digits > 1 else "0", 0)
    e = _floor_log10(value)
    shift = e - digits + 1
    if shift <= 0:
        m = value * 10**-shift
    else:
        unit = 10**shift
        m, r = divmod(value, unit)
        half = unit // 2
        if r > half or (r == half and m % 2 == 1):
            m += 1
    if m == 10**digits:
        m //= 10
        e += 1
    head, tail = divmod(m, 10 ** (digits - 1))
    if digits == 1:
        return (str(head), e)
    return (f"{head}.{tail:0{digits - 1}d}", e)


def _ties_and_carries(max_len=60):
    """Values of up to `max_len` digits whose rounding to 1..8 digits drops a
    5, a 5 then zeros, a 4 then nines, or a 5 just above a tie, after heads of
    all nines (a carry) and heads ending in an odd or an even digit."""
    values = {0}
    for n in range(1, max_len + 1):
        for p in range(1, min(n, 9) + 1):
            rest = n - p
            tails = ["5" + "0" * rest, "4" + "9" * rest]
            if rest:
                tails.append("5" + "0" * (rest - 1) + "1")
            heads = {"9" * (p - 1), "1" * (p - 1), ("1" * (p - 2) + "2") if p > 1 else ""}
            values.update(int(head + tail) for head in heads for tail in tails)
    return sorted(values)


def _random_values(count=2000, seed=2509):
    """Random values below 10^6000, their sizes spread evenly on a log scale."""
    rng = random.Random(seed)
    return [rng.randrange(10 ** int(6000 ** rng.random())) for _ in range(count)]


def _which_all_values(ell=13):
    reports = [naive_bound(2, ell), zigzag_bound(2, ell), lower_bound_general(2, ell), lower_bound_binary(ell)]
    reports += [binary_zigzag_bound(ell, "T"), binary_zigzag_bound(ell, "Z")]
    return [r.value for r in reports]


@pytest.mark.parametrize(
    "values",
    [
        pytest.param(_ties_and_carries, id="ties-and-carries"),
        pytest.param(_random_values, id="random-below-10^6000"),
        pytest.param(_which_all_values, id="which-all-2-13"),
    ],
)
def test_sci_rounds_as_big_integer_rounding_does(values):
    # through a report, which converts each value to decimal once
    for value in values():
        report = BoundReport("reference", 2, 3, value)
        for digits in range(1, 9):
            mantissa, exponent = reference_sci_parts(value, digits)
            assert report.sci(digits) == f"{mantissa}e{exponent}", (value, digits)


def test_bound_report_converts_its_value_once(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return decimal_string(value)

    monkeypatch.setattr(bounds, "decimal_string", counted)
    report = zigzag_bound(2, 8)
    report.decimal()
    report.decimal()
    report.sci()
    report.sci(2)
    report.to_json_dict()
    repr(report)
    assert len(calls) == 1


def test_decimal_string_handles_huge_values():
    assert decimal_string(123456) == "123456"
    assert len(decimal_string(10**5000)) == 5001
    assert sci_parts(10**5000 + 7, 3) == ("1.00", 5000)


def test_decimal_string_leaves_the_digit_cap_as_it_was():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert len(decimal_string(10**5000)) == 5001
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "value",
    # around the default cap of 4,300 digits, then 99,722 digits
    [pytest.param(10**j + d, id=f"10^{j}{d:+d}") for j in (4299, 4300, 4301) for d in (-1, 0, 1)]
    + [pytest.param(7**118_000 + 12345, id="7^118000+12345")],
)
def test_decimal_string_matches_str(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # lift the cap to compute what str gives
    try:
        expected = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert decimal_string(value) == expected
    assert sys.get_int_max_str_digits() == limit


# 640 is the smallest digit cap the interpreter accepts
@pytest.mark.parametrize(
    "value",
    [
        pytest.param(10**5000 + 7, id="10^5000+7"),
        pytest.param(naive_bound(2, 12).value, id="naive(2,12)"),
        pytest.param(0, id="0"),
        pytest.param(-(10**5000 + 7), id="-(10^5000+7)"),
    ],
)
def test_decimal_string_matches_str_under_the_smallest_digit_cap(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(value)
        sys.set_int_max_str_digits(640)
        assert decimal_string(value) == expected
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_bound_report_repr_prints_a_value_over_the_digit_cap():
    report = naive_bound(2, 12)
    assert repr(report) == f"BoundReport(kind='naive', k=2, ell=12, value={decimal_string(report.value)})"


def test_bound_report_formatting():
    report = BoundReport("binary_Z", 2, 4, 693000)
    assert report.sci() == "6.930e5"
    assert report.sci(2) == "6.9e5"
    assert report.decimal() == "693000"
    assert report.to_json_dict() == {
        "kind": "binary_Z",
        "k": 2,
        "ell": 4,
        "value_decimal": "693000",
        "mantissa": "6.930",
        "exponent": 5,
    }


def test_formula_error_is_an_arithmetic_error():
    assert issubclass(FormulaError, ArithmeticError)
