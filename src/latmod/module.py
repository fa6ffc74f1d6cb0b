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
and empty-join cases: by induction on the size of the family,
(join_{i<=k} a_i) A == (join_{i<k} a_i) A v a_k A, and likewise for (2).
``validate_module`` checks those cases and (3)-(5) exhaustively, each as one
whole-table comparison, after the raw-table checks it shares with
``validate_lattice``.  Only when a case of (1) or (2) fails, not (3) or (4)
alone, does it spot-check the family forms, to name the families the failure
breaks; when all hold, no subset can fail.  The 200 spot-check subsets come
from a fixed seed and all 200 are evaluated in one numpy pass.  They depend
only on the sizes of L and M, so each (|L|, |M|) shape's 200 families are
drawn once per process and kept, read-only, in a memo bounded to
``_SUBSET_DRAW_SHAPES`` shapes.

This module also provides the structural operators: residuals in both
directions, the prime-radical ``rad``, saturation, varieties, and the
faithful / multiplication-module / principally-generated predicates.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import (
    MultiplicativeLattice,
    Violation,
    _FiniteLattice,
    _act_le,
    _checked_tables,
    _coatoms,
    _first_witnesses,
    _freeze,
    _join_of_members,
    _join_principal,
    _least_upper_bounds,
    _meet_principal,
    _memo,
    _mismatches,
    _prime_violations,
    _principal,
    _principally_generated,
    _require_in,
    _row_blocks,
    _validated,
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
    tables, out = _checked_tables(leq, act_table, L.element_count, top, bottom, name="act",
                                  noun="action table", carrier="module carrier",
                                  square="module leq must be square")
    if tables is None:
        return None, out
    leq, join, _, act, _, bottom = tables
    lids, mids = np.arange(L.element_count), np.arange(len(leq))

    # (1) binary: (a v b) A == aA v bA, for ids a <= b
    joins = _mismatches("axiom-1", act[L.join_table, :], join[act[:, None, :], act[None, :, :]],
                        lambda a, b, x, u, v: f"({a} v {b}){x} = {u} but {a}{x} v {b}{x} = {v}",
                        keep=(lids[:, None] <= lids)[:, :, None])
    # (5) == the empty-join case of (1): bottom_L A == bottom_M
    joins += _mismatches("axiom-5", act[L.bottom], bottom,
                         lambda x, u, v: f"bottom * {x} = {u}, expected module bottom {v}")
    # (2) binary: a (A v B) == aA v aB, for ids A <= B
    joins += _mismatches("axiom-2", act[:, join], join[act[:, :, None], act[:, None, :]],
                         lambda a, x, y, u, v: f"{a}({x} v {y}) = {u} but {a}{x} v {a}{y} = {v}",
                         keep=mids[:, None] <= mids)
    # (2) empty-join case: a bottom_M == bottom_M
    joins += _mismatches("axiom-2-empty", act[:, bottom], bottom,
                         lambda a, u, v: f"{a} * module bottom = {u}, expected {v}")
    out += joins
    # (3): (a b) A == a (b A)
    out += _mismatches("axiom-3", act[L.mul_table, :], act[:, act],
                       lambda a, b, x, u, v: f"({a}*{b}){x} = {u} but {a}({b}{x}) = {v}")
    # (4): top_L A == A
    out += _mismatches("axiom-4", act[L.top], mids,
                       lambda x, u, _: f"top * {x} = {u}, expected {x}")

    # the family forms of (1) and (2) hold whenever their join cases do (see
    # the module docstring): spot-check them only to list what a failure breaks
    if joins:
        out += _subset_violations(L, act, leq)
    return tables, out


# Shapes whose spot-check draws stay memoized; a (4, 40) entry is about 12 KB.
_SUBSET_DRAW_SHAPES = 16


class _Draws(NamedTuple):
    """The spot-check families of one (|L|, |M|) shape, and where their images lie.

    The k-th image a_j x of a family of (1) is ``act.flat[cells1[k]]``, and
    ``rows1[k]`` is i * m for its family i, the offset of row i in a flat
    (200, m) member mask; ``cells2``/``rows2`` do the same for the a A_j of (2).
    """

    lsets: np.ndarray
    x: np.ndarray
    a: np.ndarray
    msets: np.ndarray
    cells1: np.ndarray
    rows1: np.ndarray
    cells2: np.ndarray
    rows2: np.ndarray


@functools.lru_cache(maxsize=_SUBSET_DRAW_SHAPES)
def _subset_draws(nl: int, m: int) -> _Draws:
    """The 200 draws of ``random.Random(0)`` for an L of ``nl`` and an M of ``m`` elements.

    Row i of the bool masks ``lsets`` (200 x nl) and ``msets`` (200 x m) is
    the family a_i of L in (1) and the family A_i of M in (2); ``x[i]`` is
    the A of (1) and ``a[i]`` the a of (2).  The scatter indices of
    :class:`_Draws` depend on the shape only, so they are kept with the draws.
    A shape's draws are made once per process and kept in a memo of the last
    ``_SUBSET_DRAW_SHAPES`` shapes, so only the first rejected module of each
    shape pays for them; the arrays are read-only, since every later reject
    of that shape reads them.
    """
    rng = random.Random(0)
    lrows, x, a, mrows = [], [], [], []
    for _ in range(200):
        lrows.append(rng.sample(range(nl), rng.randint(0, nl)))
        x.append(rng.randrange(m))
        a.append(rng.randrange(nl))
        mrows.append(rng.sample(range(m), rng.randint(0, m)))
    lsets, msets, x, a = _masks(lrows, nl), _masks(mrows, m), np.array(x), np.array(a)
    draw1, j1 = np.nonzero(lsets)       # a_j1 x of (1) is act[j1, x]
    draw2, j2 = np.nonzero(msets)       # a A_j2 of (2) is act[a, j2]
    return _Draws(*map(_freeze, (lsets, x, a, msets, j1 * m + x[draw1], draw1 * m,
                                 a[draw2] * m + j2, draw2 * m)))


def _masks(rows, n: int) -> np.ndarray:
    """Bool (len(rows), n): row i marks the members of ``rows[i]``."""
    sizes = [len(row) for row in rows]
    members = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.intp, count=sum(sizes))
    out = np.zeros((len(rows), n), dtype=bool)
    out[np.repeat(np.arange(len(rows)), sizes), members] = True
    return out


def _subset_violations(L: MultiplicativeLattice, act, leq) -> list[Violation]:
    """Family forms of (1) and (2) on the 200 draws of :func:`_subset_draws`.

    The three joins taken in M (each A_i, and the images of the families of
    (1) and of (2)) are the three blocks of one member mask, joined by one
    :func:`_least_upper_bounds` call."""
    draws = _subset_draws(*act.shape)
    lsets, xs, scalars, msets = draws.lsets, draws.x, draws.a, draws.msets
    count = len(xs)
    members = np.zeros((3, msets.size), dtype=bool)
    members[0] = msets.ravel()
    members[1, draws.rows1 + act.take(draws.cells1)] = True
    members[2, draws.rows2 + act.take(draws.cells2)] = True
    mjoins, want1, want2 = _least_upper_bounds(leq, members.reshape(3 * count, -1)).reshape(3, count)
    got1 = act[_least_upper_bounds(L.leq, lsets), xs]
    got2 = act[scalars, mjoins]
    bad1, bad2 = got1 != want1, got2 != want2
    fail = np.flatnonzero(bad1 | bad2)
    if not fail.size:       # a failing join case that no draw meets
        return []
    family1 = zip(_members(lsets[fail]), xs[fail].tolist(), got1[fail].tolist(), want1[fail].tolist())
    family2 = zip(scalars[fail].tolist(), _members(msets[fail]), got2[fail].tolist(), want2[fail].tolist())
    out = []
    for b1, (subset, x, u1, v1), b2, (a, msubset, u2, v2) in zip(
            bad1[fail].tolist(), family1, bad2[fail].tolist(), family2):
        if b1:
            out.append(Violation("axiom-1-subset", (*subset, x), f"(join {subset}){x} = {u1}, expected {v1}"))
        if b2:
            out.append(Violation("axiom-2-subset", (a, *msubset), f"{a}(join {msubset}) = {u2}, expected {v2}"))
    return out


def _members(sets: np.ndarray) -> list[list[int]]:
    """Per row of the bool mask ``sets``, the ids it marks, ascending, read
    from one ``np.nonzero`` over all rows."""
    rows, ids = np.nonzero(sets)
    ends = np.searchsorted(rows, np.arange(1, len(sets) + 1)).tolist()
    ids = ids.tolist()
    return [ids[start:end] for start, end in zip([0] + ends, ends)]


def module_violations(L: MultiplicativeLattice, leq, act_table,
                      top=None, bottom=None) -> list[Violation]:
    """Check the lattice-module axioms on raw tables and return every violation found."""
    return _check_module(L, leq, act_table, top, bottom)[1]


def validate_module(L: MultiplicativeLattice, leq, act_table,
                    top=None, bottom=None, labels=None) -> LatticeModule:
    """Validate raw module tables over L and return the frozen structure.

    Join and meet are derived from the order.
    """
    return _validated(LatticeModule, _check_module(L, leq, act_table, top, bottom), labels, L)


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
def _prime_witnesses(M: LatticeModule) -> tuple[tuple[int, int] | None, ...]:
    """Per proper element N, ascending: the first (a, X) with aX <= N, X not<= N
    and a I_M not<= N, or None where N is prime.  The one evaluation of the
    prime condition on M, one :func:`lattice._first_witnesses` pass;
    ``prime_elements`` and ``classify_all`` read it."""
    return tuple(_first_witnesses(
        lambda ns: _prime_violations(_act_le(M.leq, M.act_table, ns), M.lattice.top, M.top),
        _proper_ids(M), M.lattice.element_count * M.element_count))


@_memo
def prime_elements(M: LatticeModule) -> tuple[int, ...]:
    """Ids of the prime elements of M, ascending: the proper elements without a prime witness."""
    return tuple(n for n, witness in zip(_proper_ids(M).tolist(), _prime_witnesses(M))
                 if witness is None)


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
    largest such c, so S_p(N) is the join of the X with (N:X) not<= p.  The
    N are taken in :func:`_row_blocks`, bounding the float32 product's cells.
    """
    ns, ps = np.asarray(ns), np.asarray(ps)
    m = M.element_count
    res = residual_mm_table(M)
    not_below = ~M.lattice.leq[:, ps].T                         # [p, c]: c not<= p
    out = np.empty((ns.size, ps.size), dtype=np.int64)
    for rows in _row_blocks(ns.size, 4 * ps.size * m):
        keep = not_below[:, res[ns[rows]]].transpose(1, 0, 2)  # [N, p, X]
        out[rows] = _least_upper_bounds(M.leq, keep.reshape(-1, m)).reshape(-1, ps.size)
    return out


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
    _require_in(M, N, "M")
    return bool(_meet_principal(M.lattice.meet_table, M.meet_table, M.act_table,
                                residual_mm_table(M), [N])[0])


def is_join_principal_m(M: LatticeModule, N: int) -> bool:
    """b v (B:N) == ((bN v B) : N) for all b in L, B in M."""
    _require_in(M, N, "M")
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
