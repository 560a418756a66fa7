"""Exact integer intersection lattices.

A lattice here is a free Z-module of finite rank with a symmetric integer
pairing (the Gram matrix of the chosen basis), a distinguished polarization
class H with H^2 > 0, and a canonical class K.  Divisor classes are integer
coordinate vectors in the basis; all pairings are computed exactly with
Python integers, so results never wrap regardless of magnitude.

Presets encode the lattices the classification arguments run on:

* ``rank1_bidouble(n1,n2,n3)`` -- the rank-one sublattice Z*H of an even
  bidouble plane, with H^2 = 4 and K = (m-3)H for m = (n1+n2+n3)/2.
* ``p1xp1`` -- the two rulings of a smooth quadric, Gram [[0,1],[1,0]].
* ``delpezzo(d)`` -- the blow-up-of-the-plane lattice of a degree-d del
  Pezzo surface, Gram diag(1,-1,...,-1), H = -K = (3,-1,...,-1).
* ``k3_024`` -- the span of the four named classes on the K3 cover with
  branch degrees (0,2,4): two genus-one halves of a pulled-back tangent
  line and two pulled-back exceptional curves.
"""

from collections import namedtuple
from math import isqrt

from .errors import SHOWN_LIMIT, ConsistencyError, DomainError, ShapeError, number_text, tuple_text
from .geometry import invariants, validate_triple

__all__ = [
    "DivisorClass",
    "IntersectionLattice",
    "pair",
    "arithmetic_genus",
    "preset_lattice",
    "rank1_bidouble_lattice",
    "p1xp1_lattice",
    "delpezzo_lattice",
    "k3_024_lattice",
    "brute_force_search",
    "PRESET_NAMES",
]


class DivisorClass(tuple):
    """Integer coordinate vector in the basis of an ambient lattice.

    The class is the tuple of its coordinates, so ``len`` is the rank, but
    ``+``, ``-`` and ``*`` are the vector operations, not concatenation and
    repetition.
    """

    __slots__ = ()

    def __new__(cls, coords):
        self = super().__new__(cls, coords)
        for c in self:
            if not isinstance(c, int) or isinstance(c, bool):
                raise DomainError(f"class coordinates must be integers, got {c!r}")
        return self

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple(self)

    @classmethod
    def zero(cls, rank: int) -> "DivisorClass":
        return cls((0,) * rank)

    @classmethod
    def basis(cls, rank: int, i: int) -> "DivisorClass":
        return cls(tuple(1 if j == i else 0 for j in range(rank)))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self) != len(other):
            raise ShapeError(f"cannot add classes of lengths {len(self)} and {len(other)}")
        return DivisorClass(a + b for a, b in zip(self, other))

    __radd__ = __add__  # a plain tuple on the left adds too, never concatenates

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-a for a in self)

    def __mul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(scalar * a for a in self)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DivisorClass({list(self)})"


class IntersectionLattice(
    namedtuple("IntersectionLattice", "rank basis_labels gram h k chi name", defaults=(None, ""))
):
    """Free integer lattice with pairing, polarization H and canonical K.

    ``chi`` is not lattice data proper; it is the holomorphic Euler
    characteristic context that the Ulrich equalities need, carried by the
    presets so numerical checks can run without re-deriving it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.rank < 1:
            raise DomainError(f"rank must be positive, got {self.rank}")
        if len(self.basis_labels) != self.rank:
            raise ShapeError("basis_labels length must equal rank")
        if len(self.gram) != self.rank or any(len(row) != self.rank for row in self.gram):
            raise ShapeError("gram must be a rank x rank matrix")
        for i in range(self.rank):
            for j in range(i, self.rank):
                if self.gram[i][j] != self.gram[j][i]:
                    raise DomainError(
                        f"gram is not symmetric at ({i},{j}): "
                        f"{self.gram[i][j]} != {self.gram[j][i]}"
                    )
        if len(self.h) != self.rank or len(self.k) != self.rank:
            raise ShapeError("h and k must have coordinate length equal to rank")
        if pair(self, self.h, self.h) <= 0:
            raise DomainError("polarization must satisfy H^2 > 0")
        return self

    def basis_class(self, label: str) -> DivisorClass:
        try:
            i = self.basis_labels.index(label)
        except ValueError:
            raise DomainError(f"no basis class named {label!r} in {self.describe()}") from None
        return DivisorClass.basis(self.rank, i)

    def describe(self) -> str:
        return self.name or f"rank-{self.rank} lattice"


def _check_length(lat: IntersectionLattice, d: DivisorClass) -> None:
    if len(d) != lat.rank:
        raise ShapeError(
            f"class of length {len(d)} paired in rank-{lat.rank} lattice {lat.describe()}"
        )


def pair(lat: IntersectionLattice, d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number d1.d2 = d1^T * gram * d2, exact."""
    _check_length(lat, d1)
    _check_length(lat, d2)
    total = 0
    for i, a in enumerate(d1):
        if a == 0:
            continue
        row = lat.gram[i]
        total += a * sum(g * b for g, b in zip(row, d2) if b)
    return total


def _genus(lat: IntersectionLattice, d: DivisorClass, d_sq: int, d_k: int) -> int:
    # K is characteristic on every preset: an odd sum is a broken lattice.
    twice_genus, odd = divmod(d_sq + d_k, 2)
    if odd:
        raise ConsistencyError(
            f"D^2 + D.K = {number_text(d_sq + d_k)} is odd for D = {tuple_text(d)} "
            f"on {lat.describe()}: K is not characteristic, and adjunction gives "
            f"no integer genus"
        )
    return 1 + twice_genus


def arithmetic_genus(lat: IntersectionLattice, d: DivisorClass) -> int:
    """Adjunction genus 1 + (d.d + d.K)/2; an odd d.d + d.K raises ``ConsistencyError``."""
    return _genus(lat, d, pair(lat, d, d), pair(lat, d, lat.k))


def rank1_bidouble_lattice(triple) -> IntersectionLattice:
    """Z*H for an even bidouble plane: gram [[4]], K = (m-3)H.

    Odd triples are rejected: there 2K = (n-6)H but K itself is not an
    integer multiple of H, so the parity bookkeeping runs symbolically in
    the feasibility searches instead of through a lattice.
    """
    t = validate_triple(triple)
    if not t.is_even:
        raise DomainError(
            f"rank1_bidouble preset needs an even triple; K is not an integer "
            f"multiple of H for {tuple_text(t)}"
        )
    inv = invariants(t)
    return IntersectionLattice(
        rank=1,
        basis_labels=("H",),
        gram=((4,),),
        h=DivisorClass((1,)),
        k=DivisorClass((inv.m - 3,)),
        chi=inv.chi,
        name=f"rank1_bidouble{t.as_tuple()}",
    )


def p1xp1_lattice() -> IntersectionLattice:
    """The two rulings of a smooth quadric: gram [[0,1],[1,0]], H = (1,1)."""
    return IntersectionLattice(
        rank=2,
        basis_labels=("f1", "f2"),
        gram=((0, 1), (1, 0)),
        h=DivisorClass((1, 1)),
        k=DivisorClass((-2, -2)),
        chi=1,
        name="p1xp1",
    )


def delpezzo_lattice(degree: int) -> IntersectionLattice:
    """Blow-up-of-the-plane lattice of a degree-d del Pezzo, 1 <= d <= 9."""
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise DomainError(f"del Pezzo degree must be an integer, got {degree!r}")
    if not 1 <= degree <= 9:
        raise DomainError(f"del Pezzo degree must be in 1..9, got {degree}")
    points = 9 - degree
    rank = points + 1
    labels = ("L",) + tuple(f"e{i}" for i in range(1, points + 1))
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(rank))
        for i in range(rank)
    )
    h = DivisorClass((3,) + (-1,) * points)
    return IntersectionLattice(
        rank=rank,
        basis_labels=labels,
        gram=gram,
        h=h,
        k=-h,
        chi=1,
        name=f"delpezzo{degree}",
    )


def k3_024_lattice() -> IntersectionLattice:
    """Span of Gamma1, Gamma2, E1', E2' on the K3 cover with degrees (0,2,4).

    Gamma1 + Gamma2 is the pullback of a line tangent to the conic branch
    curve, split into two genus-one curves; Ei' are pullbacks of two
    exceptional curves on the intermediate degree-two del Pezzo.  The Gram
    entries are forced: Gamma_i^2 = 0, Gamma1.Gamma2 = 2, Gamma_i.Ej' = 1,
    (Ei')^2 = -2, E1'.E2' = 0.
    """
    return IntersectionLattice(
        rank=4,
        basis_labels=("Gamma1", "Gamma2", "E1'", "E2'"),
        gram=(
            (0, 2, 1, 1),
            (2, 0, 1, 1),
            (1, 1, -2, 0),
            (1, 1, 0, -2),
        ),
        h=DivisorClass((1, 1, 0, 0)),
        k=DivisorClass((0, 0, 0, 0)),
        chi=2,
        name="k3_024",
    )


PRESET_NAMES = ("rank1_bidouble", "p1xp1", "delpezzo", "k3_024")


def preset_lattice(name: str, *params) -> IntersectionLattice:
    """Dispatch on preset id: rank1_bidouble(n1,n2,n3), p1xp1, delpezzo(d), k3_024.

    Also accepts the compact spelling ``delpezzoN`` used by the CLI, N in
    ASCII digits.  The refusal of an unknown name quotes a short name and
    gives only the length of a long one.
    """
    if name == "rank1_bidouble":
        if len(params) == 1:
            try:
                params = tuple(params[0])
            except TypeError:  # one degree, or anything else not a triple
                params = ()
        if len(params) != 3:
            raise DomainError("rank1_bidouble takes three branch degrees")
        return rank1_bidouble_lattice(params)
    if name == "p1xp1":
        if params:
            raise DomainError("p1xp1 takes no parameters")
        return p1xp1_lattice()
    if name == "delpezzo":
        if len(params) != 1:
            raise DomainError("delpezzo takes exactly one parameter, the degree")
        return delpezzo_lattice(params[0])
    if name == "k3_024":
        if params:
            raise DomainError("k3_024 takes no parameters")
        return k3_024_lattice()
    suffix = name[len("delpezzo"):]
    if name.startswith("delpezzo") and suffix.isascii() and suffix.isdigit() and not params:
        digits = suffix.lstrip("0") or "0"
        # A two-digit degree is named in the range message; longer ones are
        # refused unparsed.
        if len(digits) > 2:
            raise DomainError(
                f"del Pezzo degree must be in 1..9, got a number of {len(digits)} digits"
            )
        return delpezzo_lattice(int(digits))
    shown = repr(name)
    if len(shown.encode()) > 48:  # keep the message one short line
        shown = f"of {len(name)} characters"
    raise DomainError(f"unknown lattice preset {shown}; known: {', '.join(PRESET_NAMES)}")


# Boxes beyond this total are refused outright rather than ground through.
_CELL_CAP = 10**8


def _box_bound(degree: int, bound: int | None) -> int:
    """The box bound of a search: ``bound``, or 10(degree + 1) if None."""
    return 10 * (degree + 1) if bound is None else bound


def _check_bound(bound) -> None:
    """Refuse a box bound that is not a nonnegative ``int``; a ``bool`` is
    refused too.  Both box searches, lattice and quadric, call this."""
    if not isinstance(bound, int) or isinstance(bound, bool):
        raise DomainError(f"search bound must be an integer, got {bound!r}")
    if bound < 0:
        raise DomainError(f"search bound must be >= 0, got {number_text(bound)}")


def _swap_runs(gram, gh):
    """The maximal runs [s, e) of two or more adjacent coordinates in which
    each neighbouring pair can be swapped without changing the Gram matrix
    or G.h.  Such swaps generate every permutation of a run, and each keeps
    D.H and D^2, so the hits of a box are closed under them: e1..e_{9-d} on
    ``delpezzo_d``, (Gamma1, Gamma2) and (E1', E2') on ``k3_024``, (f1, f2) on
    ``p1xp1``.  Rows i - 1 and i must agree off their own two columns and
    trade places on them, one O(rank) comparison per pair."""
    rank, runs, start = len(gram), [], 0
    for i in range(1, rank + 1):
        if i < rank:
            a, b = gram[i - 1], gram[i]
            if (gh[i - 1] == gh[i] and a[i - 1] == b[i] and a[:i - 1] == b[:i - 1]
                    and a[i + 1:] == b[i + 1:]):
                continue
        if i - start > 1:
            runs.append((start, i))
        start = i
    return runs


def _orderings(values):
    """Each distinct ordering of ``values`` once, in lexicographic order:
    len(values)! / (m_1! m_2! ...) tuples for value multiplicities m_k."""
    # One level per position: each partial ordering is extended by each
    # distinct value it has left, smallest first, which keeps every level
    # sorted.
    level = [((), tuple(sorted(values)))]
    for _ in range(len(values)):
        level = [(head + (v,), left[:k] + left[k + 1:])
                 for head, left in level
                 for k, v in enumerate(left) if not k or v != left[k - 1]]
    return [head for head, _ in level]


def _search_pruned(lat, bound, degree_target, selfint_target):
    # Depth-first over the coordinates in basis order.  With x_0..x_{i-1}
    # fixed, the suffix x_i..x_{r-1} owes the degree t and the
    # self-intersection q:
    #   sum_{j>=i} gh_j x_j = t,
    #   sum_{j,k>=i} G_jk x_j x_k + 2 sum_{j>=i} c_j x_j = q,
    # where gh = G.h and c_j = sum_{k<i} G_jk x_k pairs the suffix with the
    # prefix.  The state (t, q, c) carries c for j >= i only.
    rank, gram = lat.rank, lat.gram
    gh = [sum(g * h for g, h in zip(row, lat.h)) for row in gram]
    # The hits are closed under permuting each run of swappable coordinates,
    # so the search keeps one representative per orbit, non-increasing along
    # each run: a coordinate tied to the one before it is capped by it.
    runs = _swap_runs(gram, gh)
    tied = [False] * (rank + 1)
    for s, e in runs:
        tied[s + 1:e] = [True] * (e - s - 1)
    # From ``tail`` on, the suffix is one run, so x_i is its largest value and
    # at least its mean, t / (gh_i (rank - i)).
    tail = runs[-1][0] if runs and runs[-1][1] == rank else rank
    # A suffix starting at i reaches degrees of size at most reach[i] and owes
    # a self-intersection within [q_lo[i], q_hi[i]]: with every |x| <= bound,
    # G_jj x_j^2 lies in bound^2 [min(G_jj, 0), max(G_jj, 0)], and the
    # off-diagonal terms of the suffix and the pairing 2 c.x with the prefix
    # together move it by at most 2 bound^2 |G_jk| per entry k < j of a suffix
    # row j.  One backward pass sets all three.  Each x is picked to leave a
    # degree within the next suffix's reach and a self-intersection within
    # its window, so only the root's degree is checked against reach[0], and
    # at i = rank, where all three are 0, a state owes nothing: it is a hit.
    reach, q_lo, q_hi = [0] * (rank + 1), [0] * (rank + 1), [0] * (rank + 1)
    square = bound * bound
    for i in range(rank - 1, -1, -1):
        row = gram[i]
        slack = 2 * square * sum(abs(v) for v in row[:i])
        reach[i] = reach[i + 1] + bound * abs(gh[i])
        q_lo[i] = q_lo[i + 1] + square * min(row[i], 0) - slack
        q_hi[i] = q_hi[i + 1] + square * max(row[i], 0) + slack
    # The entries of column i below the diagonal, which update c once x_i is
    # fixed; None where there are none to add.
    columns = [tuple(row[i] for row in gram[i + 1:]) for i in range(rank)]
    columns = [column if any(column) else None for column in columns]
    # The last two coordinates a, b: the degree gives x_b = (t - ga x_a) / gb;
    # substituted and scaled by gb^2, the self-intersection is
    # A x_a^2 + B x_a + C = 0 over Z.  A = 0 (or gb = 0) leaves them to the
    # descent.
    A = 0
    if rank > 1 and gh[-1]:
        ga, gb = gh[-2:]
        gaa, gab, gbb = gram[-2][-2], gram[-2][-1], gram[-1][-1]
        A = gaa * gb * gb - 2 * gab * ga * gb + gbb * ga * ga
        b_tied = tied[rank - 1]
    reps = []

    def collect(i, t, q, c, prefix):
        # Appends the representatives below this state.
        if i == rank:
            reps.append(prefix)
            return
        cap = prefix[-1] if tied[i] else bound
        if i == rank - 2 and A:
            ca, cb = c
            B = 2 * (gab * gb * t - gbb * ga * t + ca * gb * gb - cb * ga * gb)
            C = gbb * t * t + 2 * cb * gb * t - q * gb * gb
            disc = B * B - 4 * A * C
            root = isqrt(max(disc, 0))
            if root * root == disc:
                for num in {-B - root, -B + root}:
                    xa, rem = divmod(num, 2 * A)
                    if rem or not -bound <= xa <= cap:
                        continue
                    xb, rem = divmod(t - ga * xa, gb)
                    if not rem and -bound <= xb <= (xa if b_tied else bound):
                        reps.append(prefix + (xa, xb))
            return
        # Every x_i up to the cap that leaves a degree the next suffix can
        # reach: |t - g x| <= r, solved for x.
        g, r = gh[i], reach[i + 1]
        lo, hi = -bound, cap
        if g:
            st, ag = (t, g) if g > 0 else (-t, -g)
            lo, hi = max(lo, -((r - st) // ag)), min(hi, (st + r) // ag)
            if i >= tail:
                lo = max(lo, -(-t // (g * (rank - i))))
        gii, ci, rest, column = gram[i][i], c[0], c[1:], columns[i]
        ql, qh = q_lo[i + 1], q_hi[i + 1]
        for x in range(lo, hi + 1):
            q2 = q - (gii * x + 2 * ci) * x
            if ql <= q2 <= qh:
                c2 = tuple(cj + gj * x for cj, gj in zip(rest, column)) if column else rest
                collect(i + 1, t - g * x, q2, c2, prefix + (x,))

    if abs(degree_target) <= reach[0]:
        collect(0, degree_target, selfint_target, (0,) * rank, ())
    # collect reaches itself through its closure; emptying that cell frees
    # the closures without the cycle collector, which the CLI turns off.
    del collect
    # Each representative stands for the distinct orderings of its runs; one
    # sort of them all is the lexicographic order of a scan of every cell.
    hits = []
    for rep in reps:
        expanded = [rep]
        for s, e in runs:
            expanded = [d[:s] + run + d[e:] for run in _orderings(rep[s:e]) for d in expanded]
        hits += expanded
    hits.sort()
    # The coordinates are ints by construction, so the validating
    # constructor is skipped.
    return [tuple.__new__(DivisorClass, d) for d in hits]


def brute_force_search(
    lat: IntersectionLattice,
    bound: int,
    degree_target: int,
    selfint_target: int,
) -> list[DivisorClass]:
    """All classes in the coordinate box [-bound, bound]^rank with the given
    degree d.H and self-intersection d.d, in lexicographic coordinate order.

    The search is exact on Python integers and returns what a scan of every
    cell would, order included, but its work follows the hits rather than
    the box.  Swapping two adjacent coordinates whose rows of the Gram
    matrix and entries of G.h agree maps hits to hits, so within each run of
    such coordinates (the points e_i of a del Pezzo, say) the search keeps
    only the representative whose values do not increase.  It skips values
    that leave a degree or a self-intersection the remaining coordinates
    cannot reach, counting their pairing with the fixed coordinates into
    the self-intersection's window, and solves the last two coordinates
    from the degree equation and an integer quadratic.  Each representative
    is then expanded into every distinct ordering of each run, and one sort
    of them all gives the hits in lexicographic order: the same hits, in
    the same order, as without the symmetry.
    Boxes over 10^8 cells are refused: shrink the bound instead of waiting.
    """
    _check_bound(bound)
    side = 2 * bound + 1
    # The side is compared first, and a side too long to show is never
    # raised to the rank: the message then counts the cells from below.
    if side > _CELL_CAP or side ** lat.rank > _CELL_CAP:
        cells = (
            number_text(side ** lat.rank)
            if side < SHOWN_LIMIT
            else f"at least {number_text(side)}"
        )
        raise DomainError(
            f"search box has {cells} cells at rank {lat.rank}, bound {number_text(bound)}; "
            f"the cap is {_CELL_CAP}, pass a smaller bound"
        )
    return _search_pruned(lat, bound, degree_target, selfint_target)
