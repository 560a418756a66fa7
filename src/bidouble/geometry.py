"""Branch triples, surface invariants, and the Picard-number classification.

A bidouble plane here is the smooth minimal surface obtained from a
(Z/2)^2-cover of the projective plane branched along three general curves
of degrees n1 <= n2 <= n3.  Smoothness of the cover forces all three
degrees to share a parity, and connectedness fails as soon as two of them
vanish, so those inputs are rejected up front rather than producing
invariants of a surface that does not exist.

Invariants of the cover S with n = n1+n2+n3:

    K^2   = (n - 6)^2            H^2 = 4       H.K = 2(n - 6)
    chi   = 4 + (n1^2 + n2^2 + n3^2 + n1*n2 + n1*n3 + n2*n3 - 6n) / 4
    q     = 0

chi is checked against Noether's formula 12 chi = K^2 + e, with the Euler
number e counted stratum by stratum over the plane (``_euler_number``).
In the even case, with m = n/2 and mi = ni/2, the rank-two targets are

    m  (the H-coefficient of c1)      M = m^2 + m1^2 + m2^2 + m3^2.

The Picard number of S is computed through the three intermediate double
covers: S -> Y_i, where Y_i is the double plane branched along the union
of the two curves of degrees (a, b) complementary to n_i.  rho(S) = 1
exactly when all three intermediate covers have rho(Y) = 1, and the pairs
with rho(Y) > 1 are, up to order, (0,2), (0,4), (1,3) and (2,2)
(Thm. 1.1).  That rule is cross-checked against the explicit list of
sorted jump families on every call.
"""

from collections import namedtuple

from .citations import (
    COR_PICARD,
    DEF_BIDOUBLE,
    LEM_INTERMEDIATE,
    LEM_RESOLUTION,
    PROP_INVARIANTS,
    PROP_PAIRS,
    REM_CONNECTED,
    THM_PICARD,
)
from .errors import DisconnectedError, DomainError, ConsistencyError, ParityError
from .errors import number_text, tuple_text

__all__ = [
    "BranchTriple",
    "validate_triple",
    "SurfaceInvariants",
    "invariants",
    "IntermediatePicard",
    "intermediate_picard",
    "picard_jump_family",
    "picard_classification",
    "PicardClassification",
]


class BranchTriple(namedtuple("BranchTriple", "n1 n2 n3")):
    """Sorted, validated branch degrees of a bidouble plane."""

    __slots__ = ()

    def __new__(cls, n1, n2, n3):
        degrees = (n1, n2, n3)
        for d in degrees:
            if not isinstance(d, int) or isinstance(d, bool):
                raise DomainError(f"branch degrees must be integers, got {d!r}")
            if d < 0:
                raise DomainError(f"branch degrees must be nonnegative, got {number_text(d)}")
        if not (n1 <= n2 <= n3):
            raise DomainError(f"branch degrees must be sorted, got {tuple_text(degrees)}")
        if not n1 % 2 == n2 % 2 == n3 % 2:
            raise ParityError(
                f"branch degrees must share a parity for the cover to be smooth, "
                f"got {tuple_text(degrees)} ({DEF_BIDOUBLE})"
            )
        if n2 == 0:  # sorted and nonnegative: two zero degrees
            raise DisconnectedError(
                f"at least two zero branch degrees disconnect the cover, "
                f"got {tuple_text(degrees)} ({REM_CONNECTED})"
            )
        return tuple.__new__(cls, degrees)

    @property
    def parity(self) -> str:
        return "even" if self.n1 % 2 == 0 else "odd"

    @property
    def is_even(self) -> bool:
        return self.n1 % 2 == 0

    @property
    def n(self) -> int:
        return self.n1 + self.n2 + self.n3

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


def validate_triple(triple) -> BranchTriple:
    """Coerce to a BranchTriple, sorting first; raises the specific
    DomainError subclass naming which admissibility condition failed.
    A BranchTriple is valid already: the functions here that take a
    triple call this only on anything else."""
    if isinstance(triple, BranchTriple):
        return triple
    degrees = tuple(triple)
    if len(degrees) != 3:
        raise DomainError(f"expected three branch degrees, got {len(degrees)}")
    _check_integers(degrees)
    return BranchTriple(*sorted(degrees))


def _check_integers(degrees) -> None:
    # Checked before the degrees are sorted or multiplied: a bool or a float
    # would pass for the number it equals.
    for d in degrees:
        if not isinstance(d, int) or isinstance(d, bool):
            raise DomainError(f"branch degrees must be integers, got {d!r}")


class SurfaceInvariants(
    namedtuple("SurfaceInvariants", "k_squared chi h_squared h_dot_k q n m big_m")
):
    """Numerical invariants of the cover, all exact integers.

    ``m`` and ``big_m`` are the special rank-two targets; they are None
    for odd triples, where c1 is not an integer multiple of H.
    """

    __slots__ = ()


def _euler_number(n1: int, n2: int, n3: int) -> int:
    """Topological Euler number of the cover, counted stratum by stratum.

    The cover is 4:1 over the plane minus the branch curve D = D1 + D2 + D3,
    2:1 over the smooth points of D and 1:1 over its sigma2 = sum ni*nj
    nodes.  A smooth plane curve of degree d has e = 3d - d^2, so
    e(D) = sum (3ni - ni^2) - sigma2, and additivity gives
    e(S) = 4 (3 - e(D)) + 2 (e(D) - sigma2) + sigma2 = 12 - 2 e(D) - sigma2.
    """
    sigma2 = n1 * n2 + n1 * n3 + n2 * n3
    e_branch = 3 * (n1 + n2 + n3) - (n1 * n1 + n2 * n2 + n3 * n3) - sigma2
    return 12 - 2 * e_branch - sigma2


def invariants(triple) -> SurfaceInvariants:
    """Invariants of the bidouble plane with the given branch degrees."""
    t = triple if isinstance(triple, BranchTriple) else validate_triple(triple)
    n1, n2, n3 = t
    n = n1 + n2 + n3
    chi_num = 16 + n1 * n1 + n2 * n2 + n3 * n3 + n1 * n2 + n1 * n3 + n2 * n3 - 6 * n
    if chi_num % 4 != 0:
        raise ConsistencyError(
            f"chi formula produced a non-integer for {tuple_text(t)}: {chi_num}/4 "
            f"({PROP_INVARIANTS})"
        )
    chi = chi_num // 4
    shift = n - 6
    k_squared = shift * shift
    euler = _euler_number(n1, n2, n3)
    if 12 * chi != k_squared + euler:
        raise ConsistencyError(
            f"Noether's formula fails on {tuple_text(t)}: 12 chi = {12 * chi}, but "
            f"K^2 + e = {k_squared} + {euler} = {k_squared + euler} ({PROP_INVARIANTS})"
        )
    # tuple.__new__ skips the named tuple's Python-level constructor; every
    # field is computed here.
    if n1 % 2:
        return tuple.__new__(SurfaceInvariants, (k_squared, chi, 4, 2 * shift, 0, n, None, None))
    # Route 1 for M, from the m_i; ``_check_special_c2`` is route 2.
    m, m1, m2, m3 = n // 2, n1 // 2, n2 // 2, n3 // 2
    big_m = m * m + m1 * m1 + m2 * m2 + m3 * m3
    return tuple.__new__(SurfaceInvariants, (k_squared, chi, 4, 2 * shift, 0, n, m, big_m))


class IntermediatePicard(namedtuple("IntermediatePicard", "a b rho cite")):
    """Picard data of one intermediate double plane Y branched in degrees
    (a, b), a <= b, with both parities equal and a + b > 0."""

    __slots__ = ()


def intermediate_picard(a: int, b: int) -> IntermediatePicard:
    """rho of the double plane branched along general curves of degrees a, b.

    For a + b >= 6 the branch curve has degree >= 6, the double plane is of
    general type with rho(Y) = 1 and its resolution picks up one class per
    node: rho = 1 + a*b (Lemma 3.2).  For a + b = 4 the resolution is the
    degree-two del Pezzo with rho = 8, minus the a*b nodes imposed.  For
    a + b = 2 the cover is the plane ((1,1), rho 1) or the quadric ((0,2),
    rho 2) and no separate resolution value applies.
    """
    _check_integers((a, b))
    if a > b:
        a, b = b, a
    if a < 0:
        raise DomainError(f"branch degrees must be nonnegative, got {tuple_text((a, b))}")
    if (a - b) % 2 != 0:
        raise ParityError(
            f"intermediate branch degrees must share a parity, got {tuple_text((a, b))}"
        )
    if a + b == 0:
        raise DomainError("intermediate branch curve cannot be empty")

    return IntermediatePicard(a, b, _rho(a, b), LEM_RESOLUTION if a + b >= 6 else PROP_PAIRS)


def _rho(a: int, b: int) -> int:
    """rho(Y) for an admissible pair a <= b: 1 for a + b >= 6, 8 - ab for
    a + b = 4, and for a + b = 2, 1 on the plane (1,1) and 2 on the
    quadric (0,2)."""
    if a + b >= 6:
        return 1
    if a + b == 4:
        return 8 - a * b
    return 2 if a == 0 else 1


# Sorted-triple membership tests for the four jump families (Thm. 1.1).
def picard_jump_family(triple) -> str | None:
    """Name of the jump family containing the sorted triple, or None.

    The families are (0,2,2n) n>=1, (0,4,2n) n>=2, (1,3,odd) together with
    (1,1,3), and (2,2,2n) n>=1; every other admissible triple has rho = 1.
    """
    n1, n2, n3 = triple if isinstance(triple, BranchTriple) else validate_triple(triple)
    if n1 == 0 and n2 == 2:
        return "(0,2,2n)"
    if n1 == 0 and n2 == 4 and n3 >= 4:
        return "(0,4,2n)"
    if n1 == 1 and ((n2 == 1 and n3 == 3) or (n2 == 3 and n3 >= 3)):
        return "(1,3,odd)"
    if n1 == 2 and n2 == 2:
        return "(2,2,2n)"
    return None


class PicardClassification(
    namedtuple("PicardClassification", "rho_is_one witnesses family")
):
    """rho(S) = 1 verdict with the intermediate covers that break it: the
    ``witnesses`` tuple of ``IntermediatePicard`` and the jump ``family``
    name, or None when rho(S) = 1."""

    __slots__ = ()


# The verdict of every cover with rho(S) = 1: it has no witnesses.
_RHO_ONE = PicardClassification(True, (), None)


def picard_classification(triple) -> PicardClassification:
    """Decide rho(S) = 1 through the three intermediate double planes.

    The witnesses list every intermediate cover with rho(Y) > 1, in the
    fixed order (n2,n3), (n1,n3), (n1,n2); repeated pairs are reported
    once per occurrence.  The pairwise verdict is cross-checked against
    the closed-form family list and a disagreement raises ConsistencyError.
    """
    t = triple if isinstance(triple, BranchTriple) else validate_triple(triple)
    n1, n2, n3 = t
    if n1 + n2 >= 6:  # every pair sums to at least n1 + n2, so none jumps
        witnesses = ()
    else:  # only a pair that jumps gets its record
        witnesses = tuple(
            [intermediate_picard(a, b) for a, b in ((n2, n3), (n1, n3), (n1, n2))
             if _rho(a, b) > 1]
        )
    family = picard_jump_family(t)
    if (not witnesses) != (family is None):
        raise ConsistencyError(
            f"pairwise rho test ({LEM_INTERMEDIATE}, {COR_PICARD}) and family list "
            f"({THM_PICARD}) disagree on {tuple_text(t)}"
        )
    return PicardClassification(False, witnesses, family) if witnesses else _RHO_ONE
