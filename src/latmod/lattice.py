"""Finite multiplicative lattices.

A multiplicative lattice is a complete lattice carrying a commutative,
associative, join-distributive multiplication whose identity is the top
element.  Carriers here are finite, so completeness is automatic, every
element is compact, and power chains a >= a^2 >= a^3 ... stabilize within
``element_count`` steps.  Elements are integer ids ``0..element_count-1``;
the order and every operation are dense numpy tables.

``validate_lattice`` checks all axioms on raw tables and reports violations
with witnesses; every operation below assumes a validated structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np

__all__ = [
    "MultiplicativeLattice",
    "LElementFlags",
    "Violation",
    "ValidationError",
    "validate_lattice",
    "lattice_violations",
    "residual_ll",
    "residual_table_ll",
    "stable_power",
    "sqrt",
    "sqrt_table",
    "l_element_flags",
    "lattice_flags",
    "is_meet_principal_l",
    "is_join_principal_l",
    "is_principal_l",
    "is_pg_lattice",
    "is_p_primary_l",
]


def _memo(fn):
    """Memoize a table derived from one structure in that structure's ``__dict__``."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def get(obj):
        memo = obj.__dict__
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fn(obj)
            return value

    return get


@dataclass(frozen=True)
class Violation:
    """A single axiom failure: which axiom, on which element tuple."""

    axiom: str
    witness: tuple
    message: str

    def as_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "witness": [int(w) for w in self.witness],
            "message": self.message,
        }


class ValidationError(ValueError):
    """Raised when raw tables fail validation; carries the full report."""

    def __init__(self, violations):
        self.violations = list(violations)
        head = "; ".join(v.message for v in self.violations[:3])
        more = "" if len(self.violations) <= 3 else f" (+{len(self.violations) - 3} more)"
        super().__init__(f"{len(self.violations)} axiom violation(s): {head}{more}")


class _FiniteLattice:
    """Order operations of a finite lattice given by ``leq``, ``join_table``,
    ``meet_table``, ``top``, ``bottom`` and ``labels``; shared by lattices and modules."""

    @property
    def element_count(self) -> int:
        return int(self.leq.shape[0])

    def elements(self) -> range:
        return range(self.element_count)

    def proper_elements(self):
        """Ids of elements strictly below the top."""
        return (a for a in self.elements() if a != self.top)

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])

    def join(self, a: int, b: int) -> int:
        return int(self.join_table[a, b])

    def meet(self, a: int, b: int) -> int:
        return int(self.meet_table[a, b])

    def join_all(self, xs) -> int:
        """Join of any iterable of ids; the empty join is the bottom."""
        out = self.bottom
        for x in xs:
            out = int(self.join_table[out, x])
        return out

    def meet_all(self, xs) -> int:
        """Meet of any iterable of ids; the empty meet is the top."""
        out = self.top
        for x in xs:
            out = int(self.meet_table[out, x])
        return out

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)


@dataclass(frozen=True, eq=False)
class MultiplicativeLattice(_FiniteLattice):
    """Validated finite multiplicative lattice.

    Immutable after validation: the arrays are read-only and all operations
    are pure, so instances are safe to share across threads.  Derived tables
    are memoized on the instance and freed with it; filling a memo is
    idempotent, so a concurrent first read just builds the same table twice.
    """

    leq: np.ndarray         # bool (n, n); leq[a, b] iff a <= b
    join_table: np.ndarray  # int (n, n)
    meet_table: np.ndarray  # int (n, n)
    mul_table: np.ndarray   # int (n, n)
    top: int
    bottom: int
    labels: tuple[str, ...] | None = None

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def __repr__(self):
        return f"MultiplicativeLattice(n={self.element_count})"


@dataclass(frozen=True)
class LElementFlags:
    """Per-element predicates of a lattice element.

    ``compact`` is constantly true: in a finite lattice any cover of an
    element can be thinned to the finitely many members actually used.
    """

    element: int
    proper: bool
    prime: bool
    primary: bool
    maximal: bool
    principal: bool
    compact: bool
    sqrt: int


# ---------------------------------------------------------------------------
# validation


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _order_violations(leq: np.ndarray) -> list[Violation]:
    n = leq.shape[0]
    out = []
    for i in range(n):
        if not leq[i, i]:
            out.append(Violation("order-reflexive", (i,), f"{i} <= {i} fails"))
    anti = leq & leq.T & ~np.eye(n, dtype=bool)
    for i, j in np.argwhere(anti):
        if i < j:
            out.append(Violation("order-antisymmetric", (int(i), int(j)),
                                 f"{i} <= {j} and {j} <= {i} with {i} != {j}"))
    reach = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
    for i, j in np.argwhere(reach & ~leq):
        k = int(np.flatnonzero(leq[i] & leq[:, j])[0])
        out.append(Violation("order-transitive", (int(i), k, int(j)),
                             f"{i} <= {k} <= {j} but not {i} <= {j}"))
    return out


def _least_common_bounds(above: np.ndarray):
    """For each row i, the least member of ``above[i] & above[j]`` for every
    j >= i, or -1 where that set has no least member.

    ``above[x]`` is the set of elements at or above x in a partial order.  A
    least member lies below every other member, so its down-set is strictly
    the smallest in the set: it is the first member met when the carrier is
    scanned by increasing down-set size, and that first member is least iff
    the whole set lies in its own ``above`` row.  Each row is one numpy pass
    with O(n^2) extra memory, never an (n, n, n) tensor.
    """
    n = above.shape[0]
    scan = np.argsort(above.sum(axis=0))
    above = above[:, scan]
    for i in range(n):
        common = above[i] & above[i:]
        first = common.argmax(axis=1)
        least = scan[first]
        found = common.any(axis=1) & ~(common & ~above[least]).any(axis=1)
        yield np.where(found, least, -1)


def _derive_join_meet(leq: np.ndarray):
    """Least upper bounds / greatest lower bounds from the order alone.

    join[i, j] is the least member of up(i) & up(j), and meet[i, j] the
    greatest member of down(i) & down(j), i.e. the least one in the reversed
    order ``leq.T`` (:func:`_least_common_bounds`).  A missing one is reported
    for i ascending, then j, order-lub before order-glb.
    """
    n = leq.shape[0]
    join = np.empty((n, n), dtype=np.int64)
    meet = np.empty((n, n), dtype=np.int64)
    out = []
    rows = zip(_least_common_bounds(leq), _least_common_bounds(leq.T))
    for i, (lubs, glbs) in enumerate(rows):
        join[i, i:] = join[i:, i] = lubs
        meet[i, i:] = meet[i:, i] = glbs
        for j in np.flatnonzero((lubs < 0) | (glbs < 0)) + i:
            if join[i, j] < 0:
                out.append(Violation("order-lub", (i, int(j)), f"elements {i}, {j} have no least upper bound"))
            if meet[i, j] < 0:
                out.append(Violation("order-glb", (i, int(j)), f"elements {i}, {j} have no greatest lower bound"))
    return join, meet, out


def _coerce_square(table, n: int, name: str):
    arr = np.asarray(table, dtype=np.int64)
    if arr.shape != (n, n):
        return None, [Violation(f"{name}-shape", (), f"{name} table must be {n}x{n}, got {arr.shape}")]
    if ((arr < 0) | (arr >= n)).any():
        i, j = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
        return None, [Violation(f"{name}-range", (i, j),
                                f"{name}[{i},{j}] = {int(arr[i, j])} is not a carrier id")]
    return arr, []


def _lattice_order(leq: np.ndarray, join_table, meet_table, top, bottom):
    """Order axioms, derived join/meet cross-checked against supplied tables, top/bottom.

    Returns ``((join, meet, top, bottom), violations)``, or ``(None,
    violations)`` when checking must stop there.
    """
    out = _order_violations(leq)
    if out:
        return None, out
    join, meet, out = _derive_join_meet(leq)
    if out:
        return None, out
    n = leq.shape[0]
    for name, derived, table in (("join", join, join_table), ("meet", meet, meet_table)):
        if table is None:
            continue
        supplied, errs = _coerce_square(table, n, name)
        if errs:
            return None, out + errs
        for i, j in np.argwhere(supplied != derived):
            out.append(Violation(f"{name}-table", (int(i), int(j)),
                                 f"supplied {name}[{i},{j}] = {int(supplied[i, j])}, "
                                 f"order gives {int(derived[i, j])}"))

    derived_top = int(np.flatnonzero(leq.all(axis=0))[0])
    derived_bottom = int(np.flatnonzero(leq.all(axis=1))[0])
    if top is not None and int(top) != derived_top:
        out.append(Violation("top", (int(top),), f"declared top {top}, order gives {derived_top}"))
    if bottom is not None and int(bottom) != derived_bottom:
        out.append(Violation("bottom", (int(bottom),), f"declared bottom {bottom}, order gives {derived_bottom}"))
    return (join, meet, derived_top, derived_bottom), out


def _check_lattice(leq, mul_table, join_table, meet_table, top, bottom):
    """:func:`lattice_violations`, plus ``(leq, join, meet, mul, top, bottom)`` when valid."""
    leq = np.asarray(leq, dtype=bool)
    if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
        return None, [Violation("order-shape", (), f"leq must be a square matrix, got {leq.shape}")]
    n = leq.shape[0]
    if n == 0:
        return None, [Violation("order-shape", (), "carrier must be nonempty")]

    order, out = _lattice_order(leq, join_table, meet_table, top, bottom)
    if order is None:
        return None, out
    join, meet, derived_top, derived_bottom = order

    mul, errs = _coerce_square(mul_table, n, "mul")
    if errs:
        return None, out + errs

    ids = np.arange(n)
    for i, j in np.argwhere(mul != mul.T):
        if i < j:
            out.append(Violation("mul-commutative", (int(i), int(j)),
                                 f"{i}*{j} = {int(mul[i, j])} but {j}*{i} = {int(mul[j, i])}"))
    for (a,) in np.argwhere(mul[derived_top] != ids):
        out.append(Violation("mul-identity", (int(a),),
                             f"top * {a} = {int(mul[derived_top, a])}, expected {a}"))
    for (a,) in np.argwhere(mul[:, derived_top] != ids):
        if mul[derived_top, a] == a:  # avoid duplicating the symmetric report
            out.append(Violation("mul-identity", (int(a),),
                                 f"{a} * top = {int(mul[a, derived_top])}, expected {a}"))
    assoc_lhs = mul[mul, :]
    assoc_rhs = mul[ids[:, None, None], mul[None, :, :]]
    for a, b, c in np.argwhere(assoc_lhs != assoc_rhs):
        out.append(Violation("mul-associative", (int(a), int(b), int(c)),
                             f"({a}*{b})*{c} = {int(assoc_lhs[a, b, c])} but {a}*({b}*{c}) = {int(assoc_rhs[a, b, c])}"))
    dist_lhs = mul[ids[:, None, None], join[None, :, :]]
    dist_rhs = join[mul[:, :, None], mul[:, None, :]]
    for a, b, c in np.argwhere(dist_lhs != dist_rhs):
        out.append(Violation("mul-join-distributive", (int(a), int(b), int(c)),
                             f"{a}*({b} v {c}) = {int(dist_lhs[a, b, c])} but "
                             f"{a}*{b} v {a}*{c} = {int(dist_rhs[a, b, c])}"))
    return (leq, join, meet, mul, derived_top, derived_bottom), out


def lattice_violations(leq, mul_table, join_table=None, meet_table=None,
                       top=None, bottom=None) -> list[Violation]:
    """Check the multiplicative-lattice axioms on raw tables.

    Returns every violation found, each naming the axiom and a witness tuple;
    checking stops only at an invalid order, a missing lub/glb or a malformed table.
    """
    return _check_lattice(leq, mul_table, join_table, meet_table, top, bottom)[1]


def validate_lattice(leq, mul_table, join_table=None, meet_table=None,
                     top=None, bottom=None, labels=None) -> MultiplicativeLattice:
    """Validate raw tables and return the frozen structure.

    Join/meet tables may be supplied (they are cross-checked against the
    order) or omitted (they are derived).  Raises :class:`ValidationError`
    carrying the violation report otherwise.
    """
    fields, violations = _check_lattice(leq, mul_table, join_table, meet_table, top, bottom)
    if violations:
        raise ValidationError(violations)
    leq, join, meet, mul, top, bottom = fields
    n = leq.shape[0]
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValidationError([Violation("labels", (), f"expected {n} labels, got {len(labels)}")])
    return MultiplicativeLattice(
        leq=_freeze(leq),
        join_table=_freeze(join),
        meet_table=_freeze(meet),
        mul_table=_freeze(mul),
        top=top,
        bottom=bottom,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# residuation, powers, radicals


def _join_of_members(leq: np.ndarray, is_member) -> np.ndarray:
    """Joins of a stack of join-closed sets that contain the bottom.

    ``is_member(xs)`` maps an ordering ``xs`` of the carrier of ``leq`` to a
    boolean array whose last axis runs over ``xs``.  A set closed under
    binary joins and holding the bottom contains its own join, so its join is
    its greatest member, whose down-set is strictly the largest in the set.
    Offering the carrier by decreasing down-set size, ``argmax`` picks that
    member: one boolean gather and no per-cell join loop.
    """
    xs = np.argsort(-leq.sum(axis=0))
    return _freeze(xs[is_member(xs).argmax(axis=-1)])


@_memo
def residual_table_ll(L: MultiplicativeLattice) -> np.ndarray:
    """Full residual table: entry [a, b] is (a:b) = join of x with x*b <= a.

    {x : x*b <= a} holds the bottom and is join-closed by join-distributivity.
    """
    # [a, b, x] = b*x <= a
    return _join_of_members(L.leq, lambda xs: L.leq.T[:, L.mul_table[:, xs]])


def residual_ll(L: MultiplicativeLattice, a: int, b: int) -> int:
    """(a:b), the largest x with x*b <= a."""
    return int(residual_table_ll(L)[a, b])


@_memo
def _stable_power_table(L: MultiplicativeLattice) -> np.ndarray:
    n = L.element_count
    out = np.empty(n, dtype=np.int64)
    for a in range(n):
        p = a
        while True:
            q = L.mul(p, a)
            if q == p:
                break
            p = q
        out[a] = p
    return _freeze(out)


def stable_power(L: MultiplicativeLattice, a: int) -> int:
    """The limit of the descending chain a >= a^2 >= a^3 >= ..."""
    return int(_stable_power_table(L)[a])


@_memo
def sqrt_table(L: MultiplicativeLattice) -> np.ndarray:
    """Entry [a] is sqrt(a), the join of x with stable_power(x) <= a.

    That set holds the bottom and is join-closed: (x v y)^2k <= x^k v y^k.
    """
    stable = _stable_power_table(L)
    # [a, x] = stable_power(x) <= a
    return _join_of_members(L.leq, lambda xs: L.leq.T[:, stable[xs]])


def sqrt(L: MultiplicativeLattice, a: int) -> int:
    """Radical of a: the join of all x with x^k <= a for some k >= 1."""
    return int(sqrt_table(L)[a])


# ---------------------------------------------------------------------------
# element predicates


def is_meet_principal_l(L: MultiplicativeLattice, e: int) -> bool:
    """a ^ (b*e) == ((a:e) ^ b) * e for all a, b."""
    n = L.element_count
    R = residual_table_ll(L)
    ids = np.arange(n)
    be = L.mul_table[:, e]
    lhs = L.meet_table[:, be]                                   # [a, b] = a ^ (b*e)
    inner = L.meet_table[R[:, e][:, None], ids[None, :]]        # [a, b] = (a:e) ^ b
    rhs = L.mul_table[inner, e]
    return bool((lhs == rhs).all())


def is_join_principal_l(L: MultiplicativeLattice, e: int) -> bool:
    """((a*e) v b) : e == (b:e) v a for all a, b."""
    n = L.element_count
    R = residual_table_ll(L)
    ids = np.arange(n)
    ae = L.mul_table[:, e]
    lhs = R[L.join_table[ae[:, None], ids[None, :]], e]         # [a, b] = ((a*e) v b):e
    rhs = L.join_table[ids[:, None], R[:, e][None, :]]          # [a, b] = a v (b:e)
    return bool((lhs == rhs).all())


def is_principal_l(L: MultiplicativeLattice, e: int) -> bool:
    return is_meet_principal_l(L, e) and is_join_principal_l(L, e)


@_memo
def lattice_flags(L: MultiplicativeLattice) -> tuple[LElementFlags, ...]:
    """Flags for every element, computed by exhaustive quantification."""
    n = L.element_count
    stable = _stable_power_table(L)
    sqrts = sqrt_table(L)
    principal = [is_principal_l(L, e) for e in range(n)]
    flags = []
    for a in range(n):
        proper = a != L.top
        below = L.leq[:, a]
        prod_below = L.leq[L.mul_table, a]
        prime = proper and not (prod_below & ~below[:, None] & ~below[None, :]).any()
        stab_below = L.leq[stable, a]
        primary = proper and not (prod_below & ~below[:, None] & ~stab_below[None, :]).any()
        ups = np.flatnonzero(L.leq[a] & (np.arange(n) != a))
        maximal = proper and ups.size == 1 and int(ups[0]) == L.top
        flags.append(LElementFlags(
            element=a, proper=proper, prime=bool(prime), primary=bool(primary),
            maximal=maximal, principal=principal[a], compact=True, sqrt=int(sqrts[a]),
        ))
    return tuple(flags)


def l_element_flags(L: MultiplicativeLattice, a: int) -> LElementFlags:
    return lattice_flags(L)[a]


def is_p_primary_l(L: MultiplicativeLattice, q: int, p: int) -> bool:
    """q primary with prime radical p."""
    f = lattice_flags(L)[q]
    return f.primary and f.sqrt == p and lattice_flags(L)[p].prime


def is_pg_lattice(L: MultiplicativeLattice) -> bool:
    """Every element is the join of the principal elements below it."""
    flags = lattice_flags(L)
    principal = [f.element for f in flags if f.principal]
    for x in L.elements():
        if L.join_all(e for e in principal if L.le(e, x)) != x:
            return False
    return True
