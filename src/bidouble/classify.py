"""Top-level verdicts, one pass per triple: ``classify_triple``.

``classify_triple(t)`` fills one ``Classification`` record, computing
each fact once.  After the invariants and the Picard verdict, the line
bundles are decided on the sorted triple:

    odd cover                -> impossible   (odd-rank parity obstruction)
    (0,2,2), (0,2,4)         -> exists       (certified low-degree cases)
    (0,2,2n), n >= 3         -> impossible   (quadric discriminant route)
    other even, rho > 1      -> open         (neither route decides)
    other even, rho = 1      -> impossible   (rank-1 elimination)

One cross-check holds that verdict to the closed forms T2 = {(0,2,2),
(0,2,4)} ("exists") and T1 = {(0,4,2n) n >= 2} u {(2,2,2n) n >= 1}
("open").  Every even cover but (0,2,2) gets a verified rank-two recipe,
and the complexity uc(S, H) follows: uc = 1 where a line bundle exists,
1 <= uc <= 2 where that is open, uc = 2 on the other even covers, and
only uc > 1 on odd covers.

Every "impossible" verdict is re-derived on the spot by the checks of
the matching argument in ``numerics``, and every upper bound uc <= 2 is
witnessed by the recipe and its checks.  They all read the one
``SurfaceInvariants`` record of the row and build no trace or report
text; ``search`` and library callers get that text from the public
functions.  Existence is never concluded from numerics alone: the two
"exists" cases rest on certified classes, stated and checked, never
searched for.  ``line_bundle_status`` and ``ulrich_complexity`` are
views of the record.
"""

from collections import namedtuple

from .citations import (
    COR_NO_LINE,
    LEM_ODD_RANK,
    LEM_RHO_ONE,
    PROP_LOW_DEGREE,
    PROP_QUADRIC,
    REM_OPEN,
    THM_COMPLEXITY,
    THM_LINE_RANGE,
    THM_PICARD,
    THM_RANK_TWO,
)
from .construction import _build_recipe, _check_recipe
from .errors import ConsistencyError, tuple_text
from .geometry import BranchTriple, invariants, picard_classification, validate_triple
from .numerics import (
    _check_certificate,
    _check_q1,
    _check_quadric,
    _check_special_c2,
    _parity_product,
)

__all__ = [
    "Classification",
    "LineBundleStatus",
    "ComplexityVerdict",
    "classify_triple",
    "in_t1",
    "in_t2",
    "line_bundle_status",
    "ulrich_complexity",
]

_T2 = ((0, 2, 2), (0, 2, 4))


def _closed_form(t: BranchTriple) -> str:
    """The line-bundle status the closed forms give a BranchTriple:
    "exists" on T2, "open" on T1, "impossible" elsewhere."""
    if t in _T2:
        return "exists"
    n1, n2, n3 = t
    if (n1 == 0 and n2 == 4 and n3 >= 4) or (n1 == 2 and n2 == 2 and n3 >= 2):
        return "open"
    return "impossible"


def in_t2(t) -> bool:
    """Sorted triple lies in T2 = {(0,2,2), (0,2,4)}: certified uc = 1."""
    return _closed_form(validate_triple(t)) == "exists"


def in_t1(t) -> bool:
    """Sorted triple lies in T1 = {(0,4,2n): n >= 2} u {(2,2,2n): n >= 1}."""
    return _closed_form(validate_triple(t)) == "open"


class LineBundleStatus(namedtuple("LineBundleStatus", "status reason citations")):
    """Existence verdict for Ulrich line bundles, with its justification:
    ``status`` is "exists", "impossible" or "open"."""

    __slots__ = ()


class ComplexityVerdict(namedtuple("ComplexityVerdict", "kind value bounds trail")):
    """Ulrich complexity: ``exact`` (``value`` 1 or 2), ``upper_bound``
    (``bounds`` (1, 2)) or ``lower_bound_only`` (``bounds`` (2, None))."""

    __slots__ = ()


# The verdicts that do not depend on the row, one pair per branch of
# ``classify_triple``.  A complexity trail is Thm. 1.2, then Cor. 4.3 on covers
# with no line bundle, then the line-bundle citations, then Thm. 5.1 where
# a recipe witnesses uc <= 2 (every even cover but (0,2,2)).
_LB_ODD = LineBundleStatus(
    status="impossible",
    reason=f"odd covers admit no odd-rank Ulrich bundles, in particular no "
    f"line bundles: 2 c1.K would be the odd integer n(n-6) ({LEM_ODD_RANK})",
    citations=(LEM_ODD_RANK,),
)
_UC_ODD = ComplexityVerdict("lower_bound_only", None, (2, None), (THM_COMPLEXITY, LEM_ODD_RANK))
_LB_024 = LineBundleStatus(
    status="exists",
    reason=f"certified line bundle on the K3-type cover: D = H + Gamma1 + "
    f"E1' - E2' with D.H = 6, D^2 = 4 ({PROP_LOW_DEGREE})",
    citations=(PROP_LOW_DEGREE,),
)
_UC_024 = ComplexityVerdict("exact", 1, None, (THM_COMPLEXITY, PROP_LOW_DEGREE, THM_RANK_TWO))
_LB_022 = LineBundleStatus(
    status="exists",
    reason=f"the cover is a degree-4 del Pezzo surface and a conic class "
    f"(D.H = 4, D^2 = 2) is an Ulrich line bundle ({PROP_LOW_DEGREE})",
    citations=(PROP_LOW_DEGREE,),
)
_UC_022 = ComplexityVerdict("exact", 1, None, (THM_COMPLEXITY, PROP_LOW_DEGREE))
_UC_QUADRIC = ComplexityVerdict(
    "exact", 2, None, (THM_COMPLEXITY, COR_NO_LINE, PROP_QUADRIC, THM_RANK_TWO)
)
_LB_OPEN = LineBundleStatus(
    status="open",
    reason=f"the cover has Picard number > 1, so the rank-1 elimination does "
    f"not apply, and no construction is certified either way "
    f"({THM_LINE_RANGE}, {REM_OPEN})",
    citations=(THM_LINE_RANGE, REM_OPEN),
)
_UC_OPEN = ComplexityVerdict("upper_bound", None, (1, 2), (THM_COMPLEXITY, THM_RANK_TWO, REM_OPEN))
_LB_RHO_ONE = LineBundleStatus(
    status="impossible",
    reason=f"the cover has Picard number one ({THM_PICARD}) and the rank-1 "
    f"elimination over c1 = (a/q)H closes every case ({LEM_RHO_ONE})",
    citations=(LEM_RHO_ONE, THM_PICARD),
)
_UC_RHO_ONE = ComplexityVerdict(
    "exact", 2, None, (THM_COMPLEXITY, COR_NO_LINE, LEM_RHO_ONE, THM_PICARD, THM_RANK_TWO)
)


class Classification(
    namedtuple("Classification", "triple invariants picard line_bundle complexity recipe")
):
    """Every verdict on one triple; ``recipe`` is the verified rank-two
    recipe, or None on odd covers and on (0,2,2), which it excludes."""

    __slots__ = ()


def classify_triple(t) -> Classification:
    """Classify one triple in a single pass; see the module docstring.
    Each branch of the line-bundle verdict re-runs the checks of the
    argument that decides it."""
    if not isinstance(t, BranchTriple):
        t = validate_triple(t)
    inv = invariants(t)
    pic = picard_classification(t)
    n1, n2, n3 = t
    if n1 % 2:
        if _parity_product(n1 + n2 + n3, 1)[1] % 2 != 1:
            raise ConsistencyError(
                f"parity obstruction failed to fire on odd triple {tuple_text(t)} "
                f"({LEM_ODD_RANK})"
            )
        lb, uc = _LB_ODD, _UC_ODD
    elif n1 == 0 and n2 == 2 and n3 <= 4:
        _check_certificate(t)  # raises ConsistencyError on any failed number
        lb, uc = (_LB_024, _UC_024) if n3 == 4 else (_LB_022, _UC_022)
    elif n1 == 0 and n2 == 2:
        # The discriminant route, and bisection for the integer roots over
        # [0, (n + 1)m'], which holds every real root; raises
        # ConsistencyError if bisection finds what the discriminant excludes.
        blocks = _check_quadric(n3 // 2)
        # The m' = 1 block holds n + 1, n and n^2 + 1.
        _, s, n, _, _, value, _ = blocks[0]
        lb = LineBundleStatus(
            "impossible",
            f"a line bundle would descend to the quadric with a + b = {s}m', "
            f"2ab = {n}m'^2; the discriminant needs {n}^2 + 1 = {value} to be a "
            f"perfect square, and it is not ({PROP_QUADRIC})",
            (PROP_QUADRIC,),
        )
        uc = _UC_QUADRIC
    elif not pic.rho_is_one:
        lb, uc = _LB_OPEN, _UC_OPEN
    else:
        _check_q1(t, inv)  # the rank-1 elimination's second route
        lb, uc = _LB_RHO_ONE, _UC_RHO_ONE
    expected = _closed_form(t)
    if lb.status != expected:
        raise ConsistencyError(
            f"line-bundle verdict {lb.status!r} on {tuple_text(t)} disagrees with the "
            f"closed-form sets T1, T2, which give {expected!r} ({THM_COMPLEXITY})"
        )
    # tuple.__new__ skips the named tuple's Python-level constructor; every
    # field was built above.
    if n1 % 2 or t == (0, 2, 2):  # no recipe: odd, or (0,2,2) with m = 2 < 3
        return tuple.__new__(Classification, (t, inv, pic, lb, uc, None))
    recipe = _build_recipe(t, inv)
    _check_special_c2(t, inv)
    _check_recipe(t, recipe, inv)
    return tuple.__new__(Classification, (t, inv, pic, lb, uc, recipe))


def line_bundle_status(t) -> LineBundleStatus:
    """Does the cover admit an Ulrich line bundle?  See ``classify_triple``."""
    return classify_triple(t).line_bundle


def ulrich_complexity(t) -> ComplexityVerdict:
    """Smallest rank of an Ulrich bundle, as far as it is decided."""
    return classify_triple(t).complexity


