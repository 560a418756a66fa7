"""Numerical Ulrich conditions and the non-existence arguments.

For a rank-r bundle E on a polarized surface (S, H) with canonical class K
and holomorphic Euler characteristic chi, being Ulrich forces two exact
Chern-number equalities:

    (2.1)   c1(E).H = (r/2) (3H + K).H
    (2.2)   c2(E)   = (c1^2 - c1.K)/2 - r (H^2 - chi)

This module evaluates them in integers, both sides doubled, and replays
the case analyses that rule line bundles out on bidouble planes:

* ``odd_rank_obstruction`` -- on an odd cover, 2 c1.K = rank * n * (n-6)
  must be even because c1.K is an integer; odd rank makes it odd.
* ``rank1_rho1_search`` -- on an even cover with Picard number one, writing
  c1 = (a/q)H and running both equalities eliminates every denominator
  q in {1, 2, 4}.
* ``p1xp1_line_search`` -- the quadric route for covers of type (0,2,2n):
  a line bundle O(a,b) pushed through the norm construction must satisfy
  a + b = (n+1)m' and 2ab = nm'^2 for some m' in {1,2}; the discriminant
  of the resulting quadratic is 4m'^2(n^2+1), and n^2+1 is never a
  perfect square for n >= 1.  Bisection for integer roots cross-checks
  it, and ``search p1xp1`` adds an exhaustive search of an explicit box
  by the one lattice enumerator.

Every verdict carries a step-by-step trace with statement citations so the
eliminations can be audited line by line.  No verdict carries candidates:
each argument closes every case it covers (n^2 < n^2 + 1 < (n+1)^2 for the
quadric route), so a surviving candidate could only come from broken
arithmetic, and the second routes raise ``ConsistencyError`` on it instead.

Each argument's numbers, second routes included, are computed once, in
one private check that raises on a failed identity and returns the numbers
it computed.  A trace or report line is a constant template filled from
those numbers: the public functions do no arithmetic of their own, and
``classify_triple`` runs the checks alone and fills no template.  Every
line, of a trace or of a report, is one ``CitedLine``.  A report line is
either recomputed here ("verified") or recorded as a fact established in
the paper ("paper-certified"), and a ``Report`` holds only lines that
passed, since a failed check raises before it is built.
"""

from collections import namedtuple
from math import isqrt
from operator import mul

from .citations import (
    COR_SPECIAL,
    LEM_ODD_RANK,
    LEM_RHO_ONE,
    PROP_LOW_DEGREE,
    PROP_NUMERICAL,
    PROP_QUADRIC,
    REM_NORM,
    THM_RANK_TWO,
)
from .errors import ConsistencyError, DomainError, number_text, tuple_text
from .geometry import BranchTriple, SurfaceInvariants, invariants, validate_triple
from .lattice import (
    _CELL_CAP,
    IntersectionLattice,
    _box_bound,
    _check_bound,
    _genus,
    _search_pruned,
    delpezzo_lattice,
    k3_024_lattice,
    p1xp1_lattice,
    pair,
)

__all__ = [
    "UlrichCandidate",
    "CitedLine",
    "FeasibilityVerdict",
    "Report",
    "check_numerical_ulrich",
    "special_ulrich_targets",
    "odd_rank_obstruction",
    "rank1_rho1_search",
    "p1xp1_line_search",
    "is_perfect_square",
    "verify_024_certificate",
]


class UlrichCandidate(namedtuple("UlrichCandidate", "c1 c2 rank")):
    """Chern data (c1, c2, rank) of a candidate bundle; c1 is a
    ``DivisorClass``."""

    __slots__ = ()

    def __new__(cls, c1, c2, rank):
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise DomainError(f"rank must be a positive integer, got {number_text(rank)}")
        if not isinstance(c2, int) or isinstance(c2, bool):
            raise DomainError(f"c2 must be an integer, got {number_text(c2)}")
        if rank == 1 and c2 != 0:
            raise DomainError(f"a rank-1 candidate has c2 = 0, got {number_text(c2)}")
        return super().__new__(cls, c1, c2, rank)


class CitedLine(namedtuple("CitedLine", "text cite label mode", defaults=(None, None))):
    """One cited line of an argument.  A trace step has ``text`` and
    ``cite``; a report line also names its check's ``label`` and its
    ``mode``, "verified" or "paper-certified"."""

    __slots__ = ()


class FeasibilityVerdict(namedtuple("FeasibilityVerdict", "status trace")):
    """Outcome of one elimination argument: ``status`` is
    "infeasible_parity", "infeasible_search" or "not_applicable", and
    ``trace`` the tuple of ``CitedLine`` that reaches it.

    ``not_applicable`` is the neutral status for obstructions that are
    vacuous on the given input (an even product in the parity argument).
    There is no feasible status: every argument here eliminates all the
    cases it covers, and a failed cross-check raises instead.
    """

    __slots__ = ()

    def render(self) -> str:
        lines = [f"{line.text} [{line.cite}]" for line in self.trace]
        lines.append(f"verdict: {self.status}")
        return "\n".join(lines)


class Report(namedtuple("Report", "title lines", defaults=((),))):
    """A titled tuple of report ``CitedLine``, every one of which passed."""

    __slots__ = ()

    def render(self) -> str:
        body = "\n".join(
            f"  [ok] {line.label}: {line.text} ({line.mode}, {line.cite})" for line in self.lines
        )
        return f"{self.title}\n{body}\n  => all checks passed"


# A check table has one row per verified line of a report:
# (label, cite, holds, template, numbers), the template a constant that
# the row's numbers fill.
def _failed(rows) -> str:
    """The labels of the rows that do not hold, comma-separated, or ""."""
    return ", ".join(label for label, _, holds, _, _ in rows if not holds)


def _report(title: str, rows, certified: CitedLine) -> Report:
    """The report of a passed check table, closed by its paper-certified line."""
    lines = [
        CitedLine(template.format(*numbers), cite, label, "verified")
        for label, cite, _, template, numbers in rows
    ]
    lines.append(certified)
    return Report(title, tuple(lines))


def _ulrich_targets(lat: IntersectionLattice, rank: int) -> tuple[int, int]:
    # The doubled right-hand sides of Equalities (2.1)-(2.2) at this rank:
    # 2 c1.H = r (3 H^2 + K.H) and c1^2 - c1.K - 2 c2 = 2r (H^2 - chi).
    chi = lat.chi
    if chi is None:
        raise DomainError(
            f"chi is required for the second Ulrich equality; {lat.describe()} carries none"
        )
    h_sq = pair(lat, lat.h, lat.h)
    return rank * (3 * h_sq + pair(lat, lat.k, lat.h)), 2 * rank * (h_sq - chi)


def check_numerical_ulrich(lat: IntersectionLattice, cand: UlrichCandidate) -> bool:
    """Exact test of Equalities (2.1) and (2.2) for cand on lat, both sides
    doubled so that they are integer identities:

        2 c1.H = r (3 H^2 + K.H)
        2 c2   = c1^2 - c1.K - 2r (H^2 - chi)

    chi is the lattice's carried value; a lattice without one leaves (2.2)
    undefined and the call is a usage error.
    """
    degree_target, c2_term = _ulrich_targets(lat, cand.rank)
    c1 = cand.c1
    return (
        2 * pair(lat, c1, lat.h) == degree_target
        and pair(lat, c1, c1) - pair(lat, c1, lat.k) - 2 * cand.c2 == c2_term
    )


def _describe_hits(lat: IntersectionLattice, hits, degree: int, selfint: int) -> list[tuple]:
    # (coords, genus, rank1_ulrich) of each hit of a lattice search, the
    # coords a plain tuple.  Every hit D has D.H = degree and D^2 = selfint,
    # so Equality (2.1) holds for all hits or none, and one dot product per
    # hit, D.K, gives the genus and Equality (2.2) at rank 1, c2 = 0.
    degree_target, c2_term = _ulrich_targets(lat, 1)
    holds_21 = 2 * degree == degree_target
    gk = [sum(map(mul, row, lat.k)) for row in lat.gram]  # D.K = D . (G K)
    dks = [sum(map(mul, gk, d)) for d in hits]
    return [
        (tuple(d), _genus(lat, d, selfint, dk), holds_21 and selfint - dk == c2_term)
        for d, dk in zip(hits, dks)
    ]


def _check_special_c2(t: BranchTriple, inv: SurfaceInvariants) -> None:
    # Route 2 of ``special_ulrich_targets``: 2M = 5 H^2 + 3 H.K + 4 chi.
    route2 = 5 * inv.h_squared + 3 * inv.h_dot_k + 4 * inv.chi
    if 2 * inv.big_m != route2:
        raise ConsistencyError(
            f"special c2 mismatch on {tuple_text(t)}: 2M = {2 * inv.big_m} ({THM_RANK_TWO}) "
            f"vs 5 H^2 + 3 H.K + 4 chi = {route2} ({COR_SPECIAL})"
        )


def special_ulrich_targets(t) -> SurfaceInvariants:
    """The invariants of an even triple, carrying the forced Chern numbers
    c1 = mH (numerically) and c2 = M of a rank-2 special Ulrich bundle as
    ``m`` and ``big_m``, with M checked along two independent routes that
    must agree:

        route 1:  M = m^2 + m1^2 + m2^2 + m3^2     (``invariants``)
        route 2:  2M = 5 H^2 + 3 H.K + 4 chi

    Route 2 is the rank-2 specialization of Equality (2.2) at c1 = mH,
    times two; a mismatch would mean the invariant formulas are broken,
    so it raises.
    """
    t = validate_triple(t)
    if not t.is_even:
        raise DomainError(f"special Ulrich targets need an even triple, got {tuple_text(t)}")
    inv = invariants(t)
    _check_special_c2(t, inv)
    return inv


def _parity_product(n: int, rank: int) -> tuple[int, int]:
    # 2 c1.K = rank * n * (n - 6); the obstruction fires when it is odd.
    # Returns n - 6 and the product.
    shift = n - 6
    return shift, rank * n * shift


# Trace templates of ``odd_rank_obstruction``: {0} rank, {1} n, {2} n - 6,
# {3} the product, {4} the parity of the cover.
_PARITY_PRODUCT = (
    "Equality (2.1) pairs with K: 2 c1.K = rank * (3H + K).K = rank * n * (n - 6) "
    "= {0} * {1} * {2} = {3}"
)
_PARITY_ODD = (
    _PARITY_PRODUCT,
    "2 c1.K would equal the odd integer {3}, but c1.K is an integer, "
    "so 2 c1.K is even: contradiction",
)
_PARITY_EVEN = (
    _PARITY_PRODUCT,
    "{3} is even: the parity obstruction does not apply (parity {4}, rank {0})",
)


def odd_rank_obstruction(t, rank: int) -> FeasibilityVerdict:
    """Parity obstruction: 2 c1.K = rank * n * (n-6) must be even.

    Returns infeasible_parity when the product is odd (odd cover, odd
    rank); otherwise the obstruction is vacuous and the verdict says so.
    """
    t = validate_triple(t)
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise DomainError(f"rank must be a positive integer, got {number_text(rank)}")
    numbers = (rank, t.n, *_parity_product(t.n, rank), t.parity)
    if numbers[3] % 2 == 1:
        status, steps = "infeasible_parity", _PARITY_ODD
    else:
        status, steps = "not_applicable", _PARITY_EVEN
    return FeasibilityVerdict(
        status, tuple(CitedLine(step.format(*numbers), LEM_ODD_RANK) for step in steps)
    )


def _check_q1(t: BranchTriple, inv: SurfaceInvariants) -> tuple:
    # q = 1: a = n/4 in Equality (2.2), 2a^2 - a(n - 6) - 4 + chi = 0,
    # times 8 to clear the denominators, must leave n1^2 + n2^2 + n3^2.
    # Returns the numbers of the ``rank1_rho1_search`` trace, in the order
    # its templates name them.
    n1, n2, n3 = t
    n = inv.n
    cleared = n * n - 2 * n * (n - 6) - 32 + 8 * inv.chi
    sum_sq = n1 * n1 + n2 * n2 + n3 * n3
    if cleared != sum_sq:
        raise ConsistencyError(
            f"q = 1 reduction identity failed on {tuple_text(t)}: "
            f"n^2 - 2n(n - 6) - 32 + 8 chi = {cleared} != {sum_sq} ({LEM_RHO_ONE})"
        )
    half = n // 2  # n is even
    if half % 2 == 0:
        return n, half, half // 2, None, None, sum_sq
    return n, half, None, half * half - half * (n - 6), 8 - 2 * inv.chi, sum_sq


# Trace templates of ``rank1_rho1_search``, filled from ``_check_q1``:
# {0} n, {1} n/2, {2} n/4 (None when n/2 is odd), {3} a^2 - a(n - 6) and
# {4} 8 - 2 chi at a = n/2 (None when n/2 is even), {5} n1^2 + n2^2 + n3^2.
_RHO1_CASES = (
    "write c1 = (a/q)H with gcd(a, q) = 1; Equality (2.1): "
    "c1.H = (3H + K).H / 2 = n1 + n2 + n3 = {0}, so 4a/q = {0} and q divides 4",
    "cases q in {{1, 2, 4}}",
    "q = 4: a = n = {0} is even, contradicting gcd(a, 4) = 1",
)
_RHO1_EVEN_HALF = (
    *_RHO1_CASES,
    "q = 2: a = n/2 = {1} is even, contradicting gcd(a, 2) = 1",
    "q = 1: Equality (2.1) gives a = n/4 = {2}; substituting into Equality (2.2) "
    "and clearing denominators leaves n1^2 + n2^2 + n3^2 = 0",
    "n1^2 + n2^2 + n3^2 = {5} != 0",
)
_RHO1_ODD_HALF = (
    *_RHO1_CASES,
    "q = 2: a = n/2 = {1}; Equality (2.2) forces a^2 - a(n - 6) = {3} "
    "to equal 8 - 2 chi = {4}, an even number, but "
    "a^2 - a(n - 6) is congruent to a = {1} mod 2: contradiction",
    "q = 1: Equality (2.1) gives a = n/4 = {1}/2; substituting into Equality (2.2) "
    "and clearing denominators leaves n1^2 + n2^2 + n3^2 = 0",
    "n1^2 + n2^2 + n3^2 = {5} != 0",
)


def rank1_rho1_search(t) -> FeasibilityVerdict:
    """Replay of the rank-1 elimination on an even cover with rho = 1.

    Any line bundle is numerically (a/q)H with gcd(a, q) = 1; Equality
    (2.1) reads 4a/q = n, so q divides 4.  q = 4 and q = 2 die by parity,
    and q = 1 substituted into Equality (2.2) clears denominators to
    n1^2 + n2^2 + n3^2 = 0, impossible for an admissible triple.

    The arithmetic runs on any even triple.  On a cover with rho > 1 the
    verdict excludes only the classes numerically proportional to H, not
    every line bundle; ``search rho1`` refuses such covers.
    """
    t = validate_triple(t)
    if not t.is_even:
        raise DomainError(f"rank-1 elimination applies to even triples, got {tuple_text(t)}")
    numbers = _check_q1(t, invariants(t))
    steps = _RHO1_ODD_HALF if numbers[2] is None else _RHO1_EVEN_HALF
    return FeasibilityVerdict(
        "infeasible_search",
        tuple(CitedLine(step.format(*numbers), LEM_RHO_ONE) for step in steps),
    )


def is_perfect_square(value: int) -> bool:
    """Exact integer square test; negative input is a usage error."""
    if value < 0:
        raise DomainError(
            f"perfect-square test needs a nonnegative integer, got {number_text(value)}"
        )
    r = isqrt(value)
    return r * r == value


def _quadric_roots(s: int, target: int) -> list[int]:
    # The integer roots a of f(a) = 2a(s - a) - target, target > 0, by
    # bisection.  f < 0 outside [0, s], and on the integers f increases on
    # [0, s // 2] and decreases on [s // 2 + 1, s], so each branch holds at
    # most one root: the least a where f, or -f, turns nonnegative.  Only f
    # and its monotonicity are used, no square root.
    roots = []
    for lo, hi, sign in ((0, s // 2, 1), (s // 2 + 1, s, -1)):
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * (2 * mid * (s - mid) - target) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if lo == hi and 2 * lo * (s - lo) == target:
            roots.append(lo)
    return roots


def _check_quadric(n: int) -> list:
    # The routes of the quadric argument: n^2 + 1 is no square, and
    # bisection finds no integer root for m' = 1 or 2.  Returns, per m',
    # the numbers of its trace lines.
    value = n * n + 1
    if is_perfect_square(value):
        raise ConsistencyError(
            f"n^2 + 1 = {number_text(value)} tested as a perfect square, but n^2 < n^2 + 1 "
            f"< (n + 1)^2 for n = {number_text(n)} ({PROP_QUADRIC})"
        )
    root = isqrt(value)
    blocks = []
    for mprime in (1, 2):
        s, target = (n + 1) * mprime, n * mprime * mprime
        blocks.append((mprime, s, target, 2 * s, 4 * mprime * mprime * value, value, root))
        roots = _quadric_roots(s, target)
        if roots:
            raise ConsistencyError(
                f"quadric discriminant route leaves no integer root for n = "
                f"{number_text(n)}, but bisection finds a = {number_text(roots[0])} "
                f"for m' = {mprime} ({PROP_QUADRIC})"
            )
    return blocks


# Trace templates of ``p1xp1_line_search``, each filled from one m' block
# of ``_check_quadric``: {0} m', {1} (n + 1)m', {2} n m'^2, {3} 2m'(n + 1),
# {4} 4m'^2(n^2 + 1), {5} n^2 + 1, {6} isqrt(n^2 + 1).
_QUADRIC_STEPS = (
    (
        "m' = {0} (the norm of the pulled-back bundle has order <= 2): "
        "impose a + b = (n + 1)m' = {1} and 2ab = n m'^2 = {2}",
        REM_NORM,
    ),
    ("eliminate b: 2a^2 - {3}a + {2} = 0, discriminant 4 m'^2 (n^2 + 1) = {4}", PROP_QUADRIC),
    ("n^2 + 1 = {5} is not a perfect square (isqrt = {6}), so no integer root", PROP_QUADRIC),
)
_QUADRIC_BOX = "brute-force cross-check over the box |a|, |b| <= {}: 0 solution(s)"


def p1xp1_line_search(n: int, bound: int | None = None) -> FeasibilityVerdict:
    """Ulrich line bundles O(a,b) on the quadric route for a (0,2,2n) cover.

    For each m' in {1, 2} (the norm construction has order at most two),
    the conditions are a + b = (n+1)m' and 2ab = nm'^2, giving the
    quadratic 2a^2 - 2m'(n+1)a + m'^2 n = 0 with discriminant
    4m'^2 (n^2 + 1).  Integer solutions need n^2 + 1 to be a perfect
    square, which fails for every n >= 1.  Every real root has
    0 <= a, b <= m'(n+1), and bisection on the two monotone branches of
    the quadratic over that range finds no integer root either; this is
    the route ``classify`` runs.  The box |a|, |b| <= bound (default
    10(n+1)) must hold no solution either; any bound >= 2(n+1) covers
    every real root.  The one lattice enumerator searches it exhaustively,
    as the classes of the ``p1xp1`` preset with degree a + b and
    self-intersection 2ab; it shares ``isqrt`` with the discriminant
    route, and bisection stays the square-root-free one.  Boxes of more
    than 10^8 values of a are refused, as lattice boxes are.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"quadric parameter n must be a positive integer, got {number_text(n)}")
    bound = _box_bound(n, bound)
    _check_bound(bound)
    if 2 * bound + 1 > _CELL_CAP:
        raise DomainError(
            f"quadric box scan at bound {number_text(bound)} has "
            f"{number_text(2 * bound + 1)} values of a, "
            f"over the cap of {_CELL_CAP}"
        )
    blocks = _check_quadric(n)
    lat = p1xp1_lattice()
    box_solutions = [
        ab for _, s, target, *_ in blocks for ab in _search_pruned(lat, bound, s, target)
    ]
    if box_solutions:
        raise ConsistencyError(
            f"quadric discriminant route leaves no integer root for n = {n}, but the box "
            f"|a|, |b| <= {bound} holds {len(box_solutions)} solution(s), first "
            f"{tuple_text(box_solutions[0])} ({PROP_QUADRIC})"
        )
    trace = [
        CitedLine(template.format(*numbers), cite)
        for numbers in blocks
        for template, cite in _QUADRIC_STEPS
    ]
    trace.append(CitedLine(_QUADRIC_BOX.format(bound), PROP_QUADRIC))
    return FeasibilityVerdict("infeasible_search", tuple(trace))


def _conic_on_delpezzo4():
    # The (0,2,2) cover is a degree-4 del Pezzo; D = 2L - e1 - e2 is a conic.
    lat = delpezzo_lattice(4)
    d = 2 * lat.basis_class("L") - lat.basis_class("e1") - lat.basis_class("e2")
    return lat, d, (
        ("D.H", pair(lat, d, lat.h), 4),
        ("D.D", pair(lat, d, d), 2),
        ("D.K", pair(lat, d, lat.k), -4),
    )


def _ulrich_class_on_k3_024():
    lat = k3_024_lattice()
    h = lat.h
    gamma1 = lat.basis_class("Gamma1")
    e1 = lat.basis_class("E1'")
    e2 = lat.basis_class("E2'")
    d = h + gamma1 + e1 - e2
    f = d - h
    fprime = gamma1 - e2
    return lat, d, (
        ("D.H", pair(lat, d, h), 6),
        ("D.D", pair(lat, d, d), 4),
        ("F.F", pair(lat, f, f), -4),
        ("H.F", pair(lat, h, f), 2),
        ("F.E1'", pair(lat, f, e1), -1),
        ("F'.F'", pair(lat, fprime, fprime), -4),
        ("H.F'", pair(lat, h, fprime), 0),
        ("H.E1'", pair(lat, h, e1), 2),
        ("H.E2'", pair(lat, h, e2), 2),
    )


# The certified Ulrich line bundles of Prop. 4.6, by sorted branch degrees:
# each entry gives the lattice, the class D and its (label, got, want) numbers.
_CERTIFICATES = {(0, 2, 2): _conic_on_delpezzo4, (0, 2, 4): _ulrich_class_on_k3_024}


def _check_certificate(cover: tuple[int, int, int]) -> list:
    # Every certificate number must come out as stated, and D must satisfy
    # Equalities (2.1)-(2.2) at rank 1; returns the check table.
    lat, d, numbers = _CERTIFICATES[cover]()
    rows = [
        (label, PROP_LOW_DEGREE, got == want, "computed {}, expected {}", (got, want))
        for label, got, want in numbers
    ]
    rows.append(
        (
            "Equalities (2.1)-(2.2)",
            PROP_NUMERICAL,
            check_numerical_ulrich(lat, UlrichCandidate(d, 0, 1)),
            "c1 = D, c2 = 0, rank 1 on {} (chi = {}): satisfied",
            (lat.describe(), lat.chi),
        )
    )
    failed = _failed(rows)
    if failed:
        raise ConsistencyError(
            f"certificate mismatch on {lat.describe()}: {failed} ({PROP_LOW_DEGREE})"
        )
    return rows


_H0_VANISHING = CitedLine(
    "h^0 of -F, F, F' and their twists vanish as the proof requires; recorded, not recomputed",
    PROP_LOW_DEGREE,
    "h^0 vanishing",
    "paper-certified",
)


def verify_024_certificate() -> Report:
    """Recompute the intersection numbers behind the (0,2,4) existence proof.

    On the k3_024 preset, D = H + Gamma1 + E1' - E2' is the certified
    Ulrich class; F = D - H and F' = Gamma1 - E2' are the two classes
    whose non-effectivity the proof needs.  All pairings are recomputed
    exactly; the h^0 vanishing they feed is recorded, not recomputed.
    """
    return _report(
        "Ulrich line bundle certificate for branch degrees (0, 2, 4)",
        _check_certificate((0, 2, 4)),
        _H0_VANISHING,
    )
