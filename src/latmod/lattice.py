"""Finite multiplicative lattices.

A multiplicative lattice is a complete lattice carrying a commutative,
associative, join-distributive multiplication whose identity is the top
element.  Carriers here are finite, so completeness is automatic, every
element is compact, and power chains a >= a^2 >= a^3 ... stabilize within
``element_count`` steps.  Elements are integer ids ``0..element_count-1``;
the order and every operation are dense numpy tables.

``validate_lattice`` checks all axioms on raw tables (the order and the
multiplication) and reports violations with witnesses; join and meet are
always derived from the order, which determines them.  Every operation below
assumes a validated structure.
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


def _require_in(S: _FiniteLattice, x: int, name: str) -> None:
    """Reject an id outside the carrier of ``S``, the structure called ``name``."""
    if not 0 <= x < S.element_count:
        raise ValueError(f"{x} is not an element id of {name} (0..{S.element_count - 1})")


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


def _mismatches(axiom: str, lhs, rhs, message, keep=None) -> list[Violation]:
    """One ``axiom`` violation at each index where ``lhs != rhs``, broadcast
    together, and ``keep`` holds, in ascending index order; its text is
    ``message(*index, lhs value, rhs value)``."""
    bad = np.not_equal(lhs, rhs)
    if keep is not None:
        bad = bad & keep
    if not bad.any():       # the common, valid case: no index to read
        return []
    index = np.nonzero(bad)
    got = np.broadcast_to(lhs, bad.shape)[index].tolist()
    want = np.broadcast_to(rhs, bad.shape)[index].tolist()
    return [Violation(axiom, at, message(*at, x, y))
            for at, x, y in zip(zip(*(i.tolist() for i in index)), got, want)]


def _order_violations(leq: np.ndarray) -> list[Violation]:
    ids = np.arange(leq.shape[0])
    out = _mismatches("order-reflexive", leq.diagonal(), True, lambda i, *_: f"{i} <= {i} fails")
    out += _mismatches("order-antisymmetric", leq & leq.T, False,
                       lambda i, j, *_: f"{i} <= {j} and {j} <= {i} with {i} != {j}",
                       keep=ids[:, None] < ids)
    reach = _bool_matmul(leq, leq)
    for i, j in np.argwhere(reach & ~leq):
        k = int(np.flatnonzero(leq[i] & leq[:, j])[0])
        out.append(Violation("order-transitive", (int(i), k, int(j)),
                             f"{i} <= {k} <= {j} but not {i} <= {j}"))
    return out


# Bytes of the [i, j, word] block of up-set words in :func:`_least_common_bounds`,
# and cells of the masks one block of a whole-table pass (:func:`_row_blocks`)
# holds.  Those blocks are the only arrays of more than two carrier
# dimensions, so this caps their extra memory at a few MB, whatever the
# carrier size.
_BLOCK_CELLS = 1 << 20

# Boolean products of at least this many multiply-adds run as float32 BLAS
# matmuls (:func:`_bool_matmul`); numpy's boolean matmul has no BLAS path.
# Measured with one BLAS thread and a non-contiguous left operand, bool
# against float32: 8^3 1.9 against 4.6 us, 16^3 4.4 against 5.2, 20^3 5.9
# against 5.8, 40^3 48 against 9.5.  The float32 result is exact at every
# size: each term is 0 or 1, so the sum is > 0 iff some term is 1, and
# rounding never turns a positive sum of nonnegative terms into 0.
_BLAS_MIN_PRODUCTS = 1 << 13


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean product of 2-D boolean arrays: [i, j] = some k has a[i, k] & b[k, j]."""
    if a.shape[0] * a.shape[1] * b.shape[1] < _BLAS_MIN_PRODUCTS:
        return a @ b
    return np.matmul(a, b, dtype=np.float32) > 0


def _least_common_bounds(above: np.ndarray) -> np.ndarray:
    """Entry [i, j] is the least member of ``above[i] & above[j]``, or -1
    where that set has no least member.

    ``above[x]`` is the up-set of x in a partial order: the elements at or
    above x.  The common set S of i and j is up-closed, so each member c has
    ``above[c]`` inside S, and c is least iff ``above[c]`` is S; an
    antisymmetric order gives each element its own up-set, so S names at
    most one c, and an empty S none.  Each up-set is packed into uint64
    words, and S is the AND of two rows of words, looked up among the
    elements' rows by one sorted search.  A row's key is one uint64 up to 64
    elements, else one void key of all its words, which searches about three
    times slower at 40 elements.  Rows i0..i1 are
    taken together against every row j >= i0 as one [i, j, word] block of at
    most ``_BLOCK_CELLS`` bytes (or one row, if a row alone is larger), and
    fill both triangles: memory is bounded by the block, and the work is
    O(n^2 ceil(n / 64)) word operations.
    """
    n = above.shape[0]
    words = -(-n // 64)
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(above, axis=1, bitorder="little")
    rows = packed.view(np.uint64)                # [x, w]: word w of above[x]
    key = np.dtype(np.uint64) if words == 1 else np.dtype((np.void, 8 * words))
    keys = rows.view(key)[:, 0]
    order = np.argsort(keys)
    sorted_keys = keys[order]
    out = np.empty((n, n), dtype=np.int64)
    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + max(1, _BLOCK_CELLS // (8 * words * (n - i0))))
        common = (rows[i0:i1, None] & rows[None, i0:]).view(key)[..., 0]
        at = np.searchsorted(sorted_keys, common)
        found = sorted_keys.take(at, mode="clip") == common
        out[i0:i1, i0:] = bounds = np.where(found, order.take(at, mode="clip"), -1)
        out[i0:, i0:i1] = bounds.T
        i0 = i1
    return out


def _derive_join_meet(leq: np.ndarray):
    """Least upper bounds / greatest lower bounds from the order alone.

    join[i, j] is the least member of up(i) & up(j): the element whose
    up-set is that set.  meet[i, j] is the greatest member of down(i) &
    down(j), the least one in the reversed order ``leq.T``.  Both are looked
    up among packed up-set words (:func:`_least_common_bounds`) and are -1
    where missing.  A missing one is reported for i ascending, then j,
    order-lub before order-glb.
    """
    join = _least_common_bounds(leq)
    meet = _least_common_bounds(leq.T)
    out = []
    for i, j in np.argwhere(np.triu((join < 0) | (meet < 0))).tolist():
        if join[i, j] < 0:
            out.append(Violation("order-lub", (i, j), f"elements {i}, {j} have no least upper bound"))
        if meet[i, j] < 0:
            out.append(Violation("order-glb", (i, j), f"elements {i}, {j} have no greatest lower bound"))
    return join, meet, out


def _lattice_order(leq: np.ndarray, top, bottom):
    """Order axioms, join/meet derived from the order, declared top/bottom.

    Returns ``((join, meet, top, bottom), violations)``, or ``(None,
    violations)`` when checking must stop there.
    """
    out = _order_violations(leq)
    if out:
        return None, out
    join, meet, out = _derive_join_meet(leq)
    if out:
        return None, out
    derived_top = int(np.flatnonzero(leq.all(axis=0))[0])
    derived_bottom = int(np.flatnonzero(leq.all(axis=1))[0])
    if top is not None and int(top) != derived_top:
        out.append(Violation("top", (int(top),), f"declared top {top}, order gives {derived_top}"))
    if bottom is not None and int(bottom) != derived_bottom:
        out.append(Violation("bottom", (int(bottom),), f"declared bottom {bottom}, order gives {derived_bottom}"))
    return (join, meet, derived_top, derived_bottom), out


def _checked_tables(leq, table, rows, top, bottom, *, name, noun, carrier, square):
    """The start of both validators: a square, nonempty order (:func:`_lattice_order`),
    then ``table`` as int64, of ``rows`` rows (None: one per element) and
    element ids.  Returns ``((leq, join, meet, table, top, bottom), violations)``,
    or ``(None, violations)`` when checking must stop there; ``name``, ``noun``,
    ``carrier`` and ``square`` are the texts in which the two differ.
    """
    leq = np.asarray(leq, dtype=bool)
    if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
        return None, [Violation("order-shape", (), f"{square}, got {leq.shape}")]
    n = leq.shape[0]
    if n == 0:
        return None, [Violation("order-shape", (), f"{carrier} must be nonempty")]

    order, out = _lattice_order(leq, top, bottom)
    if order is None:
        return None, out

    table = np.asarray(table, dtype=np.int64)
    shape = (n if rows is None else rows, n)
    if table.shape != shape:
        return None, out + [Violation(f"{name}-shape", (),
                                      f"{noun} must be {shape[0]}x{n}, got {table.shape}")]
    if ((table < 0) | (table >= n)).any():
        i, j = np.argwhere((table < 0) | (table >= n))[0].tolist()
        return None, out + [Violation(f"{name}-range", (i, j),
                                      f"{name}[{i},{j}] = {table[i, j]} is not a {carrier} id")]
    join, meet, top, bottom = order
    return (leq, join, meet, table, top, bottom), out


def _check_lattice(leq, mul_table, top, bottom):
    """:func:`lattice_violations`, plus ``(leq, join, meet, mul, top, bottom)`` when valid."""
    tables, out = _checked_tables(leq, mul_table, None, top, bottom, name="mul", noun="mul table",
                                  carrier="carrier", square="leq must be a square matrix")
    if tables is None:
        return None, out
    _, join, _, mul, top, _ = tables
    ids = np.arange(len(mul))
    out += _mismatches("mul-commutative", mul, mul.T,
                       lambda i, j, u, v: f"{i}*{j} = {u} but {j}*{i} = {v}",
                       keep=ids[:, None] < ids)
    out += _mismatches("mul-identity", mul[top], ids, lambda a, u, _: f"top * {a} = {u}, expected {a}")
    out += _mismatches("mul-identity", mul[:, top], ids,
                       lambda a, u, _: f"{a} * top = {u}, expected {a}",
                       keep=mul[top] == ids)    # avoid duplicating the symmetric report
    out += _mismatches("mul-associative", mul[mul, :], mul[:, mul],
                       lambda a, b, c, u, v: f"({a}*{b})*{c} = {u} but {a}*({b}*{c}) = {v}")
    out += _mismatches("mul-join-distributive", mul[:, join], join[mul[:, :, None], mul[:, None, :]],
                       lambda a, b, c, u, v: f"{a}*({b} v {c}) = {u} but {a}*{b} v {a}*{c} = {v}")
    return tables, out


def lattice_violations(leq, mul_table, top=None, bottom=None) -> list[Violation]:
    """Check the multiplicative-lattice axioms on raw tables.

    Returns every violation found, each naming the axiom and a witness tuple;
    checking stops only at an invalid order, a missing lub/glb or a malformed table.
    """
    return _check_lattice(leq, mul_table, top, bottom)[1]


def _checked_labels(labels, count: int) -> tuple[str, ...] | None:
    """``labels`` as a tuple of ``count`` strings, each one that MLAT carries.

    A label is written as the rest of its ``label`` line, so one that is
    empty, has leading or trailing whitespace, or holds ``#``, ``\\n`` or
    ``\\r`` would not read back as itself; each such label is a ``labels``
    violation naming its id.
    """
    if labels is None:
        return None
    labels = tuple(str(x) for x in labels)
    if len(labels) != count:
        raise ValidationError([Violation("labels", (), f"expected {count} labels, got {len(labels)}")])
    bad = [Violation("labels", (i,), f"label {i} {text!r} cannot be written to MLAT: "
                                     "it is empty, padded, or holds '#', '\\n' or '\\r'")
           for i, text in enumerate(labels)
           if not text or text != text.strip() or "#" in text or "\n" in text or "\r" in text]
    if bad:
        raise ValidationError(bad)
    return labels


def _validated(cls, checked, labels, *head):
    """``cls(*head, leq, join, meet, table, top, bottom, labels)``, tables frozen,
    from the ``(tables, violations)`` of a table check: the end of both
    validators.  Raises :class:`ValidationError` for any violation or label
    that MLAT cannot carry (:func:`_checked_labels`)."""
    tables, violations = checked
    if violations:
        raise ValidationError(violations)
    labels = _checked_labels(labels, len(tables[0]))
    return cls(*head, *map(_freeze, tables[:4]), *tables[4:], labels)


def validate_lattice(leq, mul_table, top=None, bottom=None, labels=None) -> MultiplicativeLattice:
    """Validate raw tables and return the frozen structure.

    Join and meet are derived from the order.  Raises :class:`ValidationError`
    carrying the violation report when an axiom fails or a label is one
    that MLAT cannot carry (:func:`_checked_labels`).
    """
    return _validated(MultiplicativeLattice, _check_lattice(leq, mul_table, top, bottom), labels)


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


def _least_upper_bounds(leq: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Entry [i] is the join of the family ``members[i]``, a boolean row over
    the carrier of the lattice order ``leq``; the empty family joins to the bottom.

    The upper bounds of a family hold the top and are meet-closed, so in the
    reversed order ``leq.T`` they are a join-closed set holding its bottom,
    whose greatest member there is the least upper bound (:func:`_join_of_members`).
    One :func:`_bool_matmul` finds them: y is an upper bound iff no member is
    not below y.
    """
    return _join_of_members(leq.T, lambda xs: ~_bool_matmul(members, ~leq[:, xs]))


@_memo
def residual_table_ll(L: MultiplicativeLattice) -> np.ndarray:
    """Full residual table: entry [a, b] is (a:b) = join of x with x*b <= a.

    {x : x*b <= a} holds the bottom and is join-closed by join-distributivity.
    """
    # [a, b, x] = b*x <= a
    return _join_of_members(L.leq, lambda xs: L.leq.T[:, L.mul_table[:, xs]])


def residual_ll(L: MultiplicativeLattice, a: int, b: int) -> int:
    """(a:b), the largest x with x*b <= a."""
    _require_in(L, a, "L")
    _require_in(L, b, "L")
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
    _require_in(L, a, "L")
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
    _require_in(L, a, "L")
    return int(sqrt_table(L)[a])


# ---------------------------------------------------------------------------
# element predicates


# Each notion below is written once over raw tables, for a module X over L
# with action ``act`` (nl, m) and residuals (A:B) = ``res[A, B]`` in L; L is
# such a module over itself, acting by ``mul_table`` with ``residual_table_ll``.


def _meet_principal(l_meet, meet, act, res, es) -> np.ndarray:
    """Bool [i]: (b ^ (B:e)) e == be ^ B for all b in L, B in X, where e is
    ``es[i]``; ``l_meet``/``meet`` are the meet tables of L and X."""
    lhs = act[l_meet[:, res[:, es]], es]                                # [b, B, i]
    return (lhs == meet[act[:, None, es], np.arange(len(meet))[:, None]]).all(axis=(0, 1))


def _join_principal(l_join, join, act, res, es) -> np.ndarray:
    """Bool [i]: b v (B:e) == ((be v B) : e) for all b in L, B in X, where e
    is ``es[i]``; ``l_join``/``join`` are the join tables of L and X."""
    rhs = res[join[act[:, None, es], np.arange(len(join))[:, None]], es]   # [b, B, i]
    return (l_join[:, res[:, es]] == rhs).all(axis=(0, 1))


def _principal(L, meet, join, act, res) -> np.ndarray:
    """Bool [e]: e is meet and join principal in the module X over L with
    meet/join tables ``meet``/``join``, action ``act`` and residuals ``res``;
    all elements are checked at once, in blocks.  Each e gathers ``act.size``
    ids of 8 bytes, so a block of them takes as many bytes as a boolean
    block of ``_BLOCK_CELLS`` cells."""
    ids = np.arange(len(meet))
    out = np.empty(len(ids), dtype=bool)
    for rows in _row_blocks(len(ids), 8 * act.size):
        out[rows] = (_meet_principal(L.meet_table, meet, act, res, ids[rows])
                     & _join_principal(L.join_table, join, act, res, ids[rows]))
    return out


def _act_le(leq: np.ndarray, act: np.ndarray, ns) -> np.ndarray:
    """Bool [N, a, X]: aX <= N, for the ids N in ``ns`` of the order ``leq``
    and the action table ``act`` [a, X]."""
    return leq.T[ns].take(act, axis=1)


def _pair_violations(act_le, bound_le, power_le) -> np.ndarray:
    """Bool [N, a, X]: aX <= N, X not<= the bound of N and a^k top not<= N,
    read from ``act_le`` [N, a, X] (:func:`_act_le`), ``bound_le`` [N, X]
    (X <= the bound) and ``power_le`` [N, a] (a^k top <= N).

    N is prime when its row marks no pair with bound N and a^k = a, primary
    with bound N and a^k the stable power of a (:func:`_prime_violations`),
    and pseudo-primary with bound rad(N) and a^k = a, since a <= (N:top) iff
    a top <= N.
    """
    return act_le & ~bound_le[:, None, :] & ~power_le[:, :, None]


def _prime_violations(act_le, unit: int, top: int, powers=slice(None)) -> np.ndarray:
    """:func:`_pair_violations` with bound N: the prime condition, or with
    ``powers`` the stable powers the primary one.  ``unit`` is the top of the
    acting lattice, so ``act_le[:, unit]`` is [N, X]: X <= N."""
    return _pair_violations(act_le, act_le[:, unit], act_le[:, powers, top])


def _row_blocks(count: int, row_cells: int) -> list[slice]:
    """Slices of ``range(count)`` whose masks of ``row_cells`` cells per row
    hold at most ``_BLOCK_CELLS`` cells together (or one row, if a row alone
    is larger): a whole-table pass over them keeps its memory bounded."""
    step = max(1, _BLOCK_CELLS // max(1, row_cells))
    return [slice(i, i + step) for i in range(0, count, step)]


def _first_witnesses(violations, ids: np.ndarray, row_cells: int) -> list[tuple[int, ...] | None]:
    """Per id of ``ids``, in order: the first index marked in its row of
    ``violations(block)``, a mask with one row per id of the block
    (:func:`_first_marked`), or None where the row marks nothing; ids are
    taken in :func:`_row_blocks` of ``row_cells`` cells per row."""
    out = []
    for rows in _row_blocks(len(ids), row_cells):
        out += _first_marked(violations(ids[rows]))
    return out


def _first_marked(marks: np.ndarray) -> list[tuple[int, ...] | None]:
    """Per row of ``marks`` (axis 0): the lexicographically first marked index
    into the remaining axes, or None where the row marks nothing."""
    flat = marks.reshape(marks.shape[0], -1)
    first = flat.argmax(axis=1)
    hit = flat[np.arange(first.size), first].tolist()
    at = zip(*(axis.tolist() for axis in np.unravel_index(first, marks.shape[1:])))
    return [index if found else None for found, index in zip(hit, at)]


def _principally_generated(leq: np.ndarray, principal) -> bool:
    """Every element of the order ``leq`` is the join of the ``principal`` ids below it."""
    gens = np.zeros(leq.shape[0], dtype=bool)
    gens[list(principal)] = True
    joins = _least_upper_bounds(leq, leq.T & gens)    # [x, e] = e <= x, e principal
    return bool((joins == np.arange(leq.shape[0])).all())


def _coatoms(leq: np.ndarray) -> np.ndarray:
    """Bool mask of the maximal elements: those with exactly one element, the
    top, strictly above them."""
    return leq.sum(axis=1) == 2


def is_meet_principal_l(L: MultiplicativeLattice, e: int) -> bool:
    """a ^ (b*e) == ((a:e) ^ b) * e for all a, b."""
    _require_in(L, e, "L")
    return bool(_meet_principal(L.meet_table, L.meet_table, L.mul_table,
                                residual_table_ll(L), [e])[0])


def is_join_principal_l(L: MultiplicativeLattice, e: int) -> bool:
    """((a*e) v b) : e == (b:e) v a for all a, b."""
    _require_in(L, e, "L")
    return bool(_join_principal(L.join_table, L.join_table, L.mul_table,
                                residual_table_ll(L), [e])[0])


def is_principal_l(L: MultiplicativeLattice, e: int) -> bool:
    return is_meet_principal_l(L, e) and is_join_principal_l(L, e)


@_memo
def lattice_flags(L: MultiplicativeLattice) -> tuple[LElementFlags, ...]:
    """Flags for every element, computed by exhaustive quantification: each
    condition for all elements at once, in blocks."""
    n = L.element_count
    stable = _stable_power_table(L)
    prime, primary = (
        [a != L.top and witness is None for a, witness in enumerate(_first_witnesses(
            lambda ids: _prime_violations(_act_le(L.leq, L.mul_table, ids), L.top, L.top, powers),
            np.arange(n), n * n))]
        for powers in (slice(None), stable))
    principal = _principal(L, L.meet_table, L.join_table, L.mul_table, residual_table_ll(L))
    return tuple(
        LElementFlags(element=a, proper=a != L.top, prime=pr, primary=pm, maximal=mx,
                      principal=pc, compact=True, sqrt=s)
        for a, pr, pm, mx, pc, s in zip(range(n), prime, primary, _coatoms(L.leq).tolist(),
                                        principal.tolist(), sqrt_table(L).tolist()))


def l_element_flags(L: MultiplicativeLattice, a: int) -> LElementFlags:
    _require_in(L, a, "L")
    return lattice_flags(L)[a]


def is_p_primary_l(L: MultiplicativeLattice, q: int, p: int) -> bool:
    """q primary with prime radical p."""
    _require_in(L, q, "L")
    _require_in(L, p, "L")
    f = lattice_flags(L)[q]
    return f.primary and f.sqrt == p and lattice_flags(L)[p].prime


def is_pg_lattice(L: MultiplicativeLattice) -> bool:
    """Every element is the join of the principal elements below it."""
    return _principally_generated(L.leq, [f.element for f in lattice_flags(L) if f.principal])
