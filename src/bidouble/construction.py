"""Constructive recipe for a rank-two special Ulrich bundle on an even cover.

The construction is purely numerical: three plane curves are specified by
degree alone, and the bundle arises from a length-M point scheme Z cut out
by two of them.  With m = (n1 + n2 + n3)/2 and M = m^2 + sum (n_i/2)^2:

    E1 = a line (degree 1),
    C  = a curve of degree M/4 (M = 0 mod 4) or (M + 2)/4 (M = 2 mod 4),
    C' = a curve of degree deg(C) + 1 - m,
    Z  = M points on E1 union C, arranged 4 per line-plus-conic block,
         with one residual tangent block of length 2 when M = 2 mod 4.

Pulled back to the cover, 1 + deg(C) - deg(C') = m makes c1 = mH and
#Z = M makes c2 = M, matching the special Ulrich targets exactly.  The
triple (0,2,2) has m = 2 and is the one even case the recipe excludes.

``_check_recipe`` tests the recipe's block layout and every numerical
identity the construction rests on, once, as integers and booleans;
``classify_triple`` runs it on every even row.  The labelled check table,
whose rows hold (label, cite, holds, template, numbers), is built from its
results only where it is read: by ``verify_recipe``, which renders it
line by line, and on a failure, to name the failed lines.  The
sheaf-level steps (the extension defining the bundle, existence of the
needed sections) are recorded as paper-certified, never recomputed.
"""

from collections import namedtuple

from .citations import COR_SPECIAL, THM_CB, THM_RANK_TWO
from .errors import ConsistencyError, DomainError, ExcludedCaseError, tuple_text
from .geometry import BranchTriple, SurfaceInvariants, invariants, validate_triple
from .numerics import CitedLine, Report, _failed, _report, special_ulrich_targets

__all__ = ["CBRecipe", "special_rank2_recipe", "verify_recipe"]

TANGENCY_NOTE = (
    "the auxiliary line must meet C at exactly one point, absorbing the "
    "residual length-2 block"
)


class CBRecipe(
    namedtuple("CBRecipe", "m big_m residue deg_e1 deg_c deg_cprime z_count tangency_note")
):
    """Degrees and point count of the rank-two construction.

    ``big_m`` is the target second Chern number M; ``residue`` is M mod 4,
    which selects between the two block layouts of Z.
    """

    __slots__ = ()

    def __new__(cls, m, big_m, residue, deg_e1, deg_c, deg_cprime, z_count, tangency_note):
        fault = _layout_fault(big_m, residue, deg_e1, tangency_note)
        if fault is not None:
            raise DomainError(fault)
        return tuple.__new__(
            cls, (m, big_m, residue, deg_e1, deg_c, deg_cprime, z_count, tangency_note)
        )


def _layout_fault(big_m, residue, deg_e1, tangency_note) -> str | None:
    """What is wrong with a recipe's block layout, or None: the residue is
    M mod 4 and 0 or 2, E1 is a line, and the tangency note is present
    exactly at residue 2."""
    if residue not in (0, 2):
        return f"residue must be 0 or 2, got {residue}"
    if big_m % 4 != residue:
        return f"residue {residue} does not match M = {big_m} mod 4"
    if deg_e1 != 1:
        return f"E1 is a line; its degree is 1, got {deg_e1}"
    if (tangency_note is not None) != (residue == 2):
        return "tangency note is present exactly in the residue-2 case"
    return None


def special_rank2_recipe(t) -> CBRecipe:
    """Curve degrees and point count for the given even branch triple.

    Raises ExcludedCaseError for sorted degrees (0,2,2): that cover has
    m = 2, and the construction needs m >= 3 (every other even triple
    qualifies).
    """
    t = validate_triple(t)
    if not t.is_even:
        raise DomainError(f"the rank-two recipe needs an even triple, got {tuple_text(t)}")
    if t == (0, 2, 2):
        raise ExcludedCaseError(
            f"branch degrees (0,2,2) have m = 2 and are excluded from the rank-two "
            f"recipe; every other even triple has m >= 3 ({THM_RANK_TWO})"
        )
    return _build_recipe(t, invariants(t))


def _build_recipe(t: BranchTriple, inv: SurfaceInvariants) -> CBRecipe:
    # M = m^2 + sum m_i^2; verify_recipe checks it against the second route.
    m, big_m = inv.m, inv.big_m
    if m < 3:
        raise ConsistencyError(
            f"m = {m} < 3 for a triple other than (0,2,2): {tuple_text(t)} ({THM_RANK_TWO})"
        )
    if big_m % 2 != 0:
        raise ConsistencyError(
            f"M = {big_m} is odd for {tuple_text(t)}; M = m^2 + sum m_i^2 is always even "
            f"({THM_RANK_TWO})"
        )
    # tuple.__new__ skips CBRecipe's validating constructor; _check_recipe
    # tests the layout with the other identities.
    if big_m % 4 == 0:
        deg_c = big_m // 4
        return tuple.__new__(CBRecipe, (m, big_m, 0, 1, deg_c, deg_c + 1 - m, 4 * deg_c, None))
    deg_c = (big_m + 2) // 4  # M = 2 mod 4: one residual block of length 2
    return tuple.__new__(
        CBRecipe, (m, big_m, 2, 1, deg_c, deg_c + 1 - m, 4 * (deg_c - 1) + 2, TANGENCY_NOTE)
    )


# The lines of the recipe check table, in report order: (label, cite,
# template).  Each template reads the numbers of ``_check_recipe`` by index:
# {0} recipe m, {1} recipe M, {2} target m, {3} target M, {4} deg E1,
# {5} deg C, {6} deg C', {7} the c1 coefficient, {8} z_count, {9} the
# block count formula and {10} its value, {11} 3M, {12} 4m^2, {13} 4(m - 1).
_RECIPE_LINES = (
    ("recipe matches triple", THM_RANK_TWO,
     "recipe (m = {0}, M = {1}) vs targets (m = {2}, M = {3})"),
    ("c1 coefficient", THM_RANK_TWO,
     "deg E1 + deg C - deg C' = {4} + {5} - {6} = {7}, so c1 = {2}H matches 3H + K numerically"),
    ("c2 count", COR_SPECIAL,
     "z_count = {8} equals the target c2 = {3}, computed independently from the "
     "Chern-number formula"),
    ("block count identity", THM_RANK_TWO, "{9} = {10} = M"),
    ("deg C' positive", THM_RANK_TWO, "deg C' = {6} >= 1"),
    ("deg C >= m", THM_RANK_TWO, "deg C = {5} >= m = {2}"),
    ("vanishing inequalities", THM_RANK_TWO,
     "3M = {11} >= 4m^2 = {12} and M = {1} > 4(m - 1) = {13}"),
)


def _check_recipe(t: BranchTriple, recipe: CBRecipe, inv: SurfaceInvariants) -> tuple:
    # Tests the lines of ``_RECIPE_LINES`` as integers, in order, and
    # returns (holds, numbers), the numbers as the templates index them.
    m, big_m = inv.m, inv.big_m
    r_m, r_big_m, residue, e1, c, cprime, z_count, note = recipe
    fault = _layout_fault(r_big_m, residue, e1, note)
    if fault is not None:
        raise ConsistencyError(
            f"recipe layout failed on {tuple_text(t)}: {fault} ({THM_RANK_TWO})"
        )
    c1 = e1 + c - cprime
    if residue == 0:
        blocks_text, blocks = "4 * deg C", 4 * c
    else:
        blocks_text, blocks = "4 * (deg C - 1) + 2", 4 * (c - 1) + 2
    three_big_m, four_m_sq, four_m_minus_four = 3 * r_big_m, 4 * m * m, 4 * (m - 1)
    holds = (
        r_m == m and r_big_m == big_m,
        c1 == m,
        z_count == big_m,
        blocks == r_big_m,
        cprime >= 1,
        c >= m,
        three_big_m >= four_m_sq and r_big_m > four_m_minus_four,
    )
    numbers = (r_m, r_big_m, m, big_m, e1, c, cprime, c1, z_count, blocks_text, blocks,
               three_big_m, four_m_sq, four_m_minus_four)
    if False in holds:
        failed = _failed(_recipe_table(holds, numbers))
        raise ConsistencyError(
            f"recipe verification failed on {tuple_text(t)}: {failed} ({THM_RANK_TWO})"
        )
    return holds, numbers


def _recipe_table(holds: tuple, numbers: tuple) -> tuple:
    # The check table of ``verify_recipe``: one (label, cite, holds,
    # template, numbers) row per line of ``_RECIPE_LINES``.
    return tuple(
        (label, cite, ok, template, numbers)
        for (label, cite, template), ok in zip(_RECIPE_LINES, holds)
    )


_EXTENSION = CitedLine(
    "the bundle extension over the ideal sheaf of Z and the section existence it needs "
    "are certified, not recomputed",
    THM_CB,
    "rank-two extension",
    "paper-certified",
)


def verify_recipe(t, recipe: CBRecipe) -> Report:
    """Recheck every numerical identity of the recipe against the triple.

    The c2 comparison is independent: z_count comes from the block count,
    the target from the Chern-number formula.  Any failed line raises
    ConsistencyError naming the check, since the identities are theorems,
    so a returned report has passed every line.
    """
    t = validate_triple(t)
    return _report(
        f"rank-two special Ulrich recipe for branch degrees {t.as_tuple()}",
        _recipe_table(*_check_recipe(t, recipe, special_ulrich_targets(t))),
        _EXTENSION,
    )
