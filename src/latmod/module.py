"""Finite modules over multiplicative lattices.

A lattice module is a complete lattice M together with a scalar action of a
multiplicative lattice L satisfying, for all a, b in L and A, B in M and
arbitrary families:

    (1) (join a_i) A  == join (a_i A)
    (2) a (join A_i)  == join (a A_i)
    (3) (a b) A       == a (b A)
    (4) top_L A       == A
    (5) bottom_L A    == bottom_M

On a finite carrier the family forms of (1) and (2) follow from the binary
and empty-join cases, which is what ``validate_module`` checks exhaustively:
by induction on the size of the family, (join_{i<=k} a_i) A ==
(join_{i<k} a_i) A v a_k A, and likewise for (2).  Only when one of those
cases fails does it spot-check the family forms, to name the families the
failure breaks; when all hold, no subset can fail.  The 200 spot-check
subsets come from a fixed seed and all 200 are evaluated in one numpy pass.

This module also provides the structural operators: residuals in both
directions, the prime-radical ``rad``, saturation, varieties, and the
faithful / multiplication-module / principally-generated predicates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .lattice import (
    MultiplicativeLattice,
    ValidationError,
    Violation,
    _FiniteLattice,
    _act_le,
    _coatoms,
    _freeze,
    _join_of_members,
    _join_principal,
    _lattice_order,
    _least_upper_bounds,
    _meet_principal,
    _memo,
    _prime_violations,
    _principal,
    _principally_generated,
    _unmarked,
    lattice_flags,
)

__all__ = [
    "LatticeModule",
    "validate_module",
    "module_violations",
    "residual_ml",
    "residual_mm",
    "residual_ml_table",
    "residual_mm_table",
    "prime_elements",
    "maximal_elements",
    "rad",
    "saturation",
    "variety",
    "variety_l",
    "is_faithful",
    "is_multiplication_module",
    "is_meet_principal_m",
    "is_join_principal_m",
    "is_principal_m",
    "is_pg_module",
]


@dataclass(frozen=True, eq=False)
class LatticeModule(_FiniteLattice):
    """Validated finite module over a validated multiplicative lattice.

    Immutable after validation; all operations are pure functions.  Derived
    tables are memoized on the instance and freed with it; filling a memo is
    idempotent, so a concurrent first read just builds the same table twice.
    """

    lattice: MultiplicativeLattice
    leq: np.ndarray         # bool (m, m)
    join_table: np.ndarray  # int (m, m)
    meet_table: np.ndarray  # int (m, m)
    act_table: np.ndarray   # int (nl, m); act_table[a, A] = a A
    top: int                # I_M
    bottom: int             # O_M
    labels: tuple[str, ...] | None = None

    def act(self, a: int, x: int) -> int:
        return int(self.act_table[a, x])

    def __repr__(self):
        return f"LatticeModule(n={self.element_count} over {self.lattice!r})"


# ---------------------------------------------------------------------------
# validation


def _check_module(L: MultiplicativeLattice, leq, act_table, top, bottom):
    """:func:`module_violations`, plus ``(leq, join, meet, act, top, bottom)`` when valid."""
    leq = np.asarray(leq, dtype=bool)
    if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
        return None, [Violation("order-shape", (), f"module leq must be square, got {leq.shape}")]
    m = leq.shape[0]
    if m == 0:
        return None, [Violation("order-shape", (), "module carrier must be nonempty")]

    order, out = _lattice_order(leq, top, bottom)
    if order is None:
        return None, out
    join, meet, derived_top, derived_bottom = order

    nl = L.element_count
    act = np.asarray(act_table, dtype=np.int64)
    if act.shape != (nl, m):
        return None, out + [Violation("act-shape", (), f"action table must be {nl}x{m}, got {act.shape}")]
    if ((act < 0) | (act >= m)).any():
        a, x = map(int, np.argwhere((act < 0) | (act >= m))[0])
        return None, out + [Violation("act-range", (a, x),
                                      f"act[{a},{x}] = {int(act[a, x])} is not a module carrier id")]

    lids = np.arange(nl)
    mids = np.arange(m)
    joins_checked = len(out)

    # (1) binary: (a v b) A == aA v bA
    lhs = act[L.join_table, :]
    rhs = join[act[:, None, :], act[None, :, :]]
    for a, b, x in np.argwhere(lhs != rhs):
        if a <= b:
            out.append(Violation("axiom-1", (int(a), int(b), int(x)),
                                 f"({a} v {b}){x} = {int(lhs[a, b, x])} but {a}{x} v {b}{x} = {int(rhs[a, b, x])}"))
    # (5) == the empty-join case of (1): bottom_L A == bottom_M
    for (x,) in np.argwhere(act[L.bottom] != derived_bottom):
        out.append(Violation("axiom-5", (int(x),),
                             f"bottom * {x} = {int(act[L.bottom, x])}, expected module bottom {derived_bottom}"))
    # (2) binary: a (A v B) == aA v aB
    lhs = act[:, join]
    rhs = join[act[:, :, None], act[:, None, :]]
    for a, x, y in np.argwhere(lhs != rhs):
        if x <= y:
            out.append(Violation("axiom-2", (int(a), int(x), int(y)),
                                 f"{a}({x} v {y}) = {int(lhs[a, x, y])} but {a}{x} v {a}{y} = {int(rhs[a, x, y])}"))
    # (2) empty-join case: a bottom_M == bottom_M
    for (a,) in np.argwhere(act[:, derived_bottom] != derived_bottom):
        out.append(Violation("axiom-2-empty", (int(a),),
                             f"{a} * module bottom = {int(act[a, derived_bottom])}, expected {derived_bottom}"))
    # (3): (a b) A == a (b A)
    lhs = act[L.mul_table, :]
    rhs = act[lids[:, None, None], act[None, :, :]]
    for a, b, x in np.argwhere(lhs != rhs):
        out.append(Violation("axiom-3", (int(a), int(b), int(x)),
                             f"({a}*{b}){x} = {int(lhs[a, b, x])} but {a}({b}{x}) = {int(rhs[a, b, x])}"))
    # (4): top_L A == A
    for (x,) in np.argwhere(act[L.top] != mids):
        out.append(Violation("axiom-4", (int(x),),
                             f"top * {x} = {int(act[L.top, x])}, expected {x}"))

    # Folding a family from the bottom, one member at a time, applies the
    # empty case once and the binary case at each step, so the family forms
    # of (1) and (2) hold whenever those cases do.  Spot-check them only after
    # one failed, to list the families it breaks.
    if len(out) > joins_checked:
        out += _subset_violations(L, act, leq)
    return (leq, join, meet, act, derived_top, derived_bottom), out


def _subset_draws(nl: int, m: int):
    """The 200 draws of ``random.Random(0)`` for an L of ``nl`` and an M of ``m`` elements.

    Returns ``(lsets, x, a, msets)``.  Row i of the bool masks ``lsets``
    (200 x nl) and ``msets`` (200 x m) is the family a_i of L in (1) and the
    family A_i of M in (2); ``x[i]`` is the A of (1) and ``a[i]`` the a of (2).
    """
    rng = random.Random(0)
    lrows, x, a, mrows = [], [], [], []
    for _ in range(200):
        lrows.append(rng.sample(range(nl), rng.randint(0, nl)))
        x.append(rng.randrange(m))
        a.append(rng.randrange(nl))
        mrows.append(rng.sample(range(m), rng.randint(0, m)))
    return _masks(lrows, nl), np.array(x), np.array(a), _masks(mrows, m)


def _masks(rows, n: int) -> np.ndarray:
    """Bool (len(rows), n): row i marks the members of ``rows[i]``."""
    sizes = [len(row) for row in rows]
    members = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.intp, count=sum(sizes))
    out = np.zeros((len(rows), n), dtype=bool)
    out[np.repeat(np.arange(len(rows)), sizes), members] = True
    return out


def _join_of_images(leq, family, image) -> np.ndarray:
    """Entry [i] is the join in ``leq`` of ``image[i, j]`` over the j in ``family[i]``."""
    draw, j = np.nonzero(family)
    members = np.zeros((family.shape[0], leq.shape[0]), dtype=bool)
    members[draw, image[draw, j]] = True
    return _least_upper_bounds(leq, members)


def _subset_violations(L: MultiplicativeLattice, act, leq) -> list[Violation]:
    """Family forms of (1) and (2) on the 200 draws of :func:`_subset_draws`."""
    lsets, xs, scalars, msets = _subset_draws(*act.shape)
    got1 = act[_least_upper_bounds(L.leq, lsets), xs]
    want1 = _join_of_images(leq, lsets, act[:, xs].T)
    got2 = act[scalars, _least_upper_bounds(leq, msets)]
    want2 = _join_of_images(leq, msets, act[scalars])
    bad1, bad2 = got1 != want1, got2 != want2
    out = []
    for i in np.flatnonzero(bad1 | bad2):
        if bad1[i]:
            subset, x = np.flatnonzero(lsets[i]).tolist(), int(xs[i])
            out.append(Violation("axiom-1-subset", (*subset, x),
                                 f"(join {subset}){x} = {got1[i]}, expected {want1[i]}"))
        if bad2[i]:
            a, msubset = int(scalars[i]), np.flatnonzero(msets[i]).tolist()
            out.append(Violation("axiom-2-subset", (a, *msubset),
                                 f"{a}(join {msubset}) = {got2[i]}, expected {want2[i]}"))
    return out


def module_violations(L: MultiplicativeLattice, leq, act_table,
                      top=None, bottom=None) -> list[Violation]:
    """Check the lattice-module axioms on raw tables and return every violation found."""
    return _check_module(L, leq, act_table, top, bottom)[1]


def validate_module(L: MultiplicativeLattice, leq, act_table,
                    top=None, bottom=None, labels=None) -> LatticeModule:
    """Validate raw module tables over L and return the frozen structure.

    Join and meet are derived from the order.
    """
    fields, violations = _check_module(L, leq, act_table, top, bottom)
    if violations:
        raise ValidationError(violations)
    leq, join, meet, act, top, bottom = fields
    m = leq.shape[0]
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != m:
            raise ValidationError([Violation("labels", (), f"expected {m} labels, got {len(labels)}")])
    return LatticeModule(
        lattice=L,
        leq=_freeze(leq),
        join_table=_freeze(join),
        meet_table=_freeze(meet),
        act_table=_freeze(act),
        top=top,
        bottom=bottom,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# residuals


@_memo
def residual_ml_table(M: LatticeModule) -> np.ndarray:
    """Entry [N, a] is (N:a) in M: the join of all X with a X <= N.

    {X : a X <= N} holds O_M and is join-closed by axiom (2) and its empty case.
    """
    # [N, a, X] = a X <= N
    return _join_of_members(M.leq, lambda xs: M.leq.T[:, M.act_table[:, xs]])


def residual_ml(M: LatticeModule, N: int, a: int) -> int:
    """(N:a) in M, the largest X with a X <= N."""
    _require_in(M, N, "M")
    _require_in(M.lattice, a, "L")
    return int(residual_ml_table(M)[N, a])


@_memo
def residual_mm_table(M: LatticeModule) -> np.ndarray:
    """Entry [A, B] is (A:B) in L: the join of all x with x B <= A.

    {x : x B <= A} holds the bottom of L and is join-closed by axioms (1) and (5).
    """
    # [A, B, x] = x B <= A
    return _join_of_members(M.lattice.leq, lambda xs: M.leq.T[:, M.act_table[xs].T])


def residual_mm(M: LatticeModule, A: int, B: int) -> int:
    """(A:B) in L, the largest x with x B <= A."""
    _require_in(M, A, "M")
    _require_in(M, B, "M")
    return int(residual_mm_table(M)[A, B])


# ---------------------------------------------------------------------------
# primes, radical, saturation, variety


def _require_in(S: _FiniteLattice, x: int, name: str) -> None:
    """Reject an id outside the carrier of ``S``, the structure called ``name``."""
    if not 0 <= x < S.element_count:
        raise ValueError(f"{x} is not an element id of {name} (0..{S.element_count - 1})")


def _require_id(M: LatticeModule, N: int, message: str) -> None:
    """Reject an id outside the carrier, and the top with ``message``."""
    _require_in(M, N, "M")
    if N == M.top:
        raise ValueError(message)


@_memo
def _proper_ids(M: LatticeModule) -> np.ndarray:
    """Ids of the elements strictly below the top, ascending."""
    return _freeze(np.flatnonzero(np.arange(M.element_count) != M.top))


@_memo
def prime_elements(M: LatticeModule) -> tuple[int, ...]:
    """Ids of the prime elements of M, in ascending order; the condition is
    checked for all proper elements at once, in blocks."""
    ids = _proper_ids(M)
    prime = _unmarked(
        lambda ns: _prime_violations(_act_le(M.leq, M.act_table, ns), M.lattice.top, M.top),
        ids, M.lattice.element_count * M.element_count)
    return tuple(ids[prime].tolist())


@_memo
def maximal_elements(M: LatticeModule) -> tuple[int, ...]:
    return tuple(np.flatnonzero(_coatoms(M.leq)).tolist())


def variety(M: LatticeModule, N: int) -> tuple[int, ...]:
    """V(N): the prime elements of M above N."""
    _require_id(M, N, "variety is defined for proper elements only")
    return tuple(p for p in prime_elements(M) if M.le(N, p))


def variety_l(M: LatticeModule, N: int) -> tuple[int, ...]:
    """V((N:I_M)): the prime elements of L above (N:I_M)."""
    _require_id(M, N, "variety is defined for proper elements only")
    L = M.lattice
    r = residual_mm(M, N, M.top)
    flags = lattice_flags(L)
    return tuple(p for p in L.elements() if flags[p].prime and L.le(r, p))


@_memo
def _rad_table(M: LatticeModule) -> np.ndarray:
    """Entry [N] is rad(N), and -1 at the top, where rad is undefined."""
    prime = np.zeros(M.element_count, dtype=bool)
    prime[list(prime_elements(M))] = True
    # a meet in M.leq is a join in the reversed order M.leq.T
    meets = _least_upper_bounds(M.leq.T, M.leq & prime)    # [N, p] = N <= p, p prime
    return _freeze(np.where(np.arange(M.element_count) == M.top, -1, meets))


def rad(M: LatticeModule, N: int) -> int:
    """rad(N): the meet of all prime elements above the proper element N.

    I_M when no prime lies above N (the empty-meet convention); rejects
    N = I_M, for which the radical is undefined.
    """
    _require_id(M, N, "rad is undefined for the top element")
    return int(_rad_table(M)[N])


def _saturations(M: LatticeModule, ns, ps) -> np.ndarray:
    """Entry [i, j] is S_p(N) for N = ``ns[i]`` and the prime p = ``ps[j]`` of L.

    c X <= N for some c not<= p iff (N:X) not<= p, since (N:X) is the
    largest such c, so S_p(N) is the join of the X with (N:X) not<= p.
    """
    keep = ~M.lattice.leq[residual_mm_table(M)[ns]][:, :, ps]    # [N, X, p]
    joins = _least_upper_bounds(M.leq, keep.transpose(0, 2, 1).reshape(-1, M.element_count))
    return joins.reshape(keep.shape[0], keep.shape[2])


def saturation(M: LatticeModule, N: int, p: int) -> int:
    """S_p(N): the join of all X with c X <= N for some c not below the prime p."""
    L = M.lattice
    _require_in(L, p, "L")
    if not lattice_flags(L)[p].prime:
        raise ValueError(f"saturation requires a prime element of L, got {L.label(p)}")
    _require_id(M, N, "saturation is defined for proper elements only")
    return int(_saturations(M, [N], [p])[0, 0])


# ---------------------------------------------------------------------------
# structural predicates


def is_faithful(M: LatticeModule) -> bool:
    """(O_M : I_M) == 0."""
    return residual_mm(M, M.bottom, M.top) == M.lattice.bottom


def is_multiplication_module(M: LatticeModule) -> bool:
    """Every N equals a I_M for some a; a = (N:I_M) is the canonical witness."""
    R = residual_mm_table(M)
    return all(M.act(int(R[n, M.top]), M.top) == n for n in M.elements())


def is_meet_principal_m(M: LatticeModule, N: int) -> bool:
    """(b ^ (B:N)) N == bN ^ B for all b in L, B in M."""
    return bool(_meet_principal(M.lattice.meet_table, M.meet_table, M.act_table,
                                residual_mm_table(M), [N])[0])


def is_join_principal_m(M: LatticeModule, N: int) -> bool:
    """b v (B:N) == ((bN v B) : N) for all b in L, B in M."""
    return bool(_join_principal(M.lattice.join_table, M.join_table, M.act_table,
                                residual_mm_table(M), [N])[0])


def is_principal_m(M: LatticeModule, N: int) -> bool:
    return is_meet_principal_m(M, N) and is_join_principal_m(M, N)


@_memo
def _principal_elements_m(M: LatticeModule) -> tuple[int, ...]:
    principal = _principal(M.lattice, M.meet_table, M.join_table, M.act_table,
                           residual_mm_table(M))
    return tuple(np.flatnonzero(principal).tolist())


def is_pg_module(M: LatticeModule) -> bool:
    """Every element is the join of the principal elements below it."""
    return _principally_generated(M.leq, _principal_elements_m(M))
