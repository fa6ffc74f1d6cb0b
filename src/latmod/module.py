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
cases fails does it spot-check the family forms on 200 random subsets from
a fixed seed, to name the families the failure breaks; when all hold, no
subset can fail.

This module also provides the structural operators: residuals in both
directions, the prime-radical ``rad``, saturation, varieties, and the
faithful / multiplication-module / principally-generated predicates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .lattice import (
    MultiplicativeLattice,
    ValidationError,
    Violation,
    _FiniteLattice,
    _freeze,
    _join_of_members,
    _lattice_order,
    _memo,
    lattice_flags,
)

__all__ = [
    "LatticeModule",
    "ElementContext",
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
    "element_context",
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


@dataclass(frozen=True)
class ElementContext:
    """The two derived values attached to a proper element N: (N:I_M) and rad(N)."""

    residual_top: int  # lattice id of (N : I_M)
    rad: int           # module id of rad(N)


# ---------------------------------------------------------------------------
# validation


def _check_module(L: MultiplicativeLattice, leq, act_table, join_table, meet_table,
                  top, bottom):
    """:func:`module_violations`, plus ``(leq, join, meet, act, top, bottom)`` when valid."""
    leq = np.asarray(leq, dtype=bool)
    if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
        return None, [Violation("order-shape", (), f"module leq must be square, got {leq.shape}")]
    m = leq.shape[0]
    if m == 0:
        return None, [Violation("order-shape", (), "module carrier must be nonempty")]

    order, out = _lattice_order(leq, join_table, meet_table, top, bottom)
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
        out += _subset_violations(L, act, join, derived_bottom)
    return (leq, join, meet, act, derived_top, derived_bottom), out


def _subset_violations(L: MultiplicativeLattice, act, join, bottom) -> list[Violation]:
    """Family forms of (1) and (2) on 200 subsets drawn from ``random.Random(0)``."""
    nl, m = act.shape
    rng = random.Random(0)
    mod_join_all = lambda xs: _reduce_table(join, bottom, xs)
    out = []
    for _ in range(200):
        subset = rng.sample(range(nl), rng.randint(0, nl))
        x = rng.randrange(m)
        got = int(act[L.join_all(subset), x])
        want = mod_join_all(int(act[a, x]) for a in subset)
        if got != want:
            out.append(Violation("axiom-1-subset", tuple(sorted(subset)) + (x,),
                                 f"(join {sorted(subset)}){x} = {got}, expected {want}"))
        a = rng.randrange(nl)
        msubset = rng.sample(range(m), rng.randint(0, m))
        got = int(act[a, mod_join_all(msubset)])
        want = mod_join_all(int(act[a, x]) for x in msubset)
        if got != want:
            out.append(Violation("axiom-2-subset", (a,) + tuple(sorted(msubset)),
                                 f"{a}(join {sorted(msubset)}) = {got}, expected {want}"))
    return out


def module_violations(L: MultiplicativeLattice, leq, act_table,
                      join_table=None, meet_table=None, top=None, bottom=None) -> list[Violation]:
    """Check the lattice-module axioms on raw tables and return every violation found."""
    return _check_module(L, leq, act_table, join_table, meet_table, top, bottom)[1]


def _reduce_table(table: np.ndarray, unit: int, xs) -> int:
    out = unit
    for x in xs:
        out = int(table[out, x])
    return out


def validate_module(L: MultiplicativeLattice, leq, act_table,
                    join_table=None, meet_table=None, top=None, bottom=None,
                    labels=None) -> LatticeModule:
    """Validate raw module tables over L and return the frozen structure."""
    fields, violations = _check_module(L, leq, act_table, join_table, meet_table, top, bottom)
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
    return int(residual_mm_table(M)[A, B])


@_memo
def stable_act_top_table(M: LatticeModule) -> np.ndarray:
    """Entry [a] is (stable power of a) acting on I_M."""
    from .lattice import _stable_power_table

    return _freeze(M.act_table[_stable_power_table(M.lattice), M.top])


# ---------------------------------------------------------------------------
# primes, radical, saturation, variety
#
# prime_elements below is a deliberately plain double loop; the classifier
# module computes the same predicate by vectorized masks, and the test suite
# checks the two routes agree on every instance.


@_memo
def prime_elements(M: LatticeModule) -> tuple[int, ...]:
    """Ids of the prime elements of M, in ascending order."""
    L = M.lattice
    out = []
    for n in M.proper_elements():
        prime = True
        for a in range(L.element_count):
            if M.le(M.act(a, M.top), n):
                continue
            for x in M.elements():
                if M.le(M.act(a, x), n) and not M.le(x, n):
                    prime = False
                    break
            if not prime:
                break
        if prime:
            out.append(n)
    return tuple(out)


@_memo
def maximal_elements(M: LatticeModule) -> tuple[int, ...]:
    out = []
    for n in M.proper_elements():
        ups = np.flatnonzero(M.leq[n] & (np.arange(M.element_count) != n))
        if ups.size == 1 and int(ups[0]) == M.top:
            out.append(n)
    return tuple(out)


def variety(M: LatticeModule, N: int) -> tuple[int, ...]:
    """V(N): the prime elements of M above N."""
    if N == M.top:
        raise ValueError("variety is defined for proper elements only")
    return tuple(p for p in prime_elements(M) if M.le(N, p))


def variety_l(M: LatticeModule, N: int) -> tuple[int, ...]:
    """V((N:I_M)): the prime elements of L above (N:I_M)."""
    if N == M.top:
        raise ValueError("variety is defined for proper elements only")
    L = M.lattice
    r = residual_mm(M, N, M.top)
    flags = lattice_flags(L)
    return tuple(p for p in L.elements() if flags[p].prime and L.le(r, p))


@_memo
def _rad_table(M: LatticeModule) -> np.ndarray:
    primes = prime_elements(M)
    out = np.full(M.element_count, -1, dtype=np.int64)
    for n in M.proper_elements():
        out[n] = M.meet_all(p for p in primes if M.le(n, p))
    return _freeze(out)


def rad(M: LatticeModule, N: int) -> int:
    """rad(N): the meet of all prime elements above the proper element N.

    I_M when no prime lies above N (the empty-meet convention); rejects
    N = I_M, for which the radical is undefined.
    """
    if N == M.top:
        raise ValueError("rad is undefined for the top element")
    return int(_rad_table(M)[N])


def element_context(M: LatticeModule, N: int) -> ElementContext:
    if N == M.top:
        raise ValueError("element context is defined for proper elements only")
    return ElementContext(residual_top=residual_mm(M, N, M.top), rad=rad(M, N))


def saturation(M: LatticeModule, N: int, p: int) -> int:
    """S_p(N): the join of all X with c X <= N for some c not below the prime p."""
    L = M.lattice
    if not lattice_flags(L)[p].prime:
        raise ValueError(f"saturation requires a prime element of L, got {L.label(p)}")
    if N == M.top:
        raise ValueError("saturation is defined for proper elements only")
    cs = np.flatnonzero(~L.leq[:, p])
    keep = [x for x in M.elements() if bool(M.leq[M.act_table[cs, x], N].any())]
    return M.join_all(keep)


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
    L = M.lattice
    R = residual_mm_table(M)
    nl, m = L.element_count, M.element_count
    inner = L.meet_table[np.arange(nl)[:, None], R[:, N][None, :]]   # [b, B] = b ^ (B:N)
    lhs = M.act_table[inner, N]
    rhs = M.meet_table[M.act_table[:, N][:, None], np.arange(m)[None, :]]
    return bool((lhs == rhs).all())


def is_join_principal_m(M: LatticeModule, N: int) -> bool:
    """b v (B:N) == ((bN v B) : N) for all b in L, B in M."""
    L = M.lattice
    R = residual_mm_table(M)
    nl, m = L.element_count, M.element_count
    lhs = L.join_table[np.arange(nl)[:, None], R[:, N][None, :]]     # [b, B] = b v (B:N)
    bnb = M.join_table[M.act_table[:, N][:, None], np.arange(m)[None, :]]
    rhs = R[bnb, N]
    return bool((lhs == rhs).all())


def is_principal_m(M: LatticeModule, N: int) -> bool:
    return is_meet_principal_m(M, N) and is_join_principal_m(M, N)


@_memo
def _principal_elements_m(M: LatticeModule) -> tuple[int, ...]:
    return tuple(n for n in M.elements() if is_principal_m(M, n))


def is_pg_module(M: LatticeModule) -> bool:
    """Every element is the join of the principal elements below it."""
    principal = _principal_elements_m(M)
    for x in M.elements():
        if M.join_all(e for e in principal if M.le(e, x)) != x:
            return False
    return True
