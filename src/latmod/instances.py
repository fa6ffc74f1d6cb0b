"""Canonical finite instances and the MLAT text format.

Generator families (:data:`FAMILIES`, the one place to add a family):

* ``zn-ideals`` -- the ideal lattice of Z_n (one element per divisor of n,
  multiplication = ideal product).
* ``zn-self``   -- that lattice acting on itself by the ideal product; a
  faithful multiplication module, principally generated.
* ``zn-square`` -- the subgroup lattice of Z_n x Z_n as a module over the
  ideal lattice of Z_n.  Subgroups are enumerated once each through their
  lower-triangular generator bases [[a,0],[s,b]] (a, b divisors of n).

MLAT files are line oriented, UTF-8, ``#`` starts a comment.  Lines end at
``\\n``, ``\\r\\n`` or ``\\r``; any other whitespace separates tokens.  Version
header ``mlat 1``, then a ``lattice`` block and optionally a ``module`` block
with statements::

    elements <k>        carrier size (ids 0..k-1); must come first in a block
    leq <i> <j>         i <= j; the reflexive-transitive closure is applied
    top <i> / bot <i>   optional; cross-checked against the order
    mul <i> <j> <k>     lattice block: i*j = k, required for every pair
    act <a> <A> <B>     module block: a A = B, required for every pair
    label <i> <text>    optional display label

Join and meet are always derived from the closed order, never supplied, in
files and generators alike; a file is rejected if some pair has no least
upper or greatest lower bound.  Serialization is canonical: structurally
identical instances produce identical bytes.

:func:`make_instance` names a module as an :class:`Instance`, whose
fingerprint is a sha256 of that canonical text.  ``cli classify`` and the
theorem harness share it; it lives here, not in ``harness``, so that loading
an instance does not import the theorem registry.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .lattice import MultiplicativeLattice, _bool_matmul, validate_lattice
from .module import LatticeModule, validate_module

__all__ = [
    "DEFAULT_FAMILY",
    "DEFAULT_SQUARE_CAP",
    "FAMILIES",
    "Instance",
    "InstanceSpec",
    "ParseError",
    "divisors",
    "gen_zn_ideal_lattice",
    "gen_zn_self_module",
    "gen_zn_square_module",
    "make_instance",
    "parse_instance",
    "serialize_instance",
]

DEFAULT_SQUARE_CAP = 16


def divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending: each k <= sqrt(n) with n // k."""
    return sorted({d for k in range(1, isqrt(max(n, 0)) + 1) if n % k == 0 for d in (k, n // k)})


# ---------------------------------------------------------------------------
# generators


def _ideal_label(d: int, n: int) -> str:
    return "(0)" if d == n else f"({d})"


def gen_zn_ideal_lattice(n: int) -> MultiplicativeLattice:
    """Ideal lattice of Z_n; element i is the ideal generated by the i-th divisor."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    divs = divisors(n)
    index = {d: i for i, d in enumerate(divs)}
    k = len(divs)
    leq = np.zeros((k, k), dtype=bool)
    mul = np.zeros((k, k), dtype=np.int64)
    for i, d in enumerate(divs):
        for j, e in enumerate(divs):
            leq[i, j] = d % e == 0          # dZ_n is contained in eZ_n iff e | d
            mul[i, j] = index[gcd(d * e, n)]
    return validate_lattice(
        leq, mul, top=index[1], bottom=index[n],
        labels=[_ideal_label(d, n) for d in divs],
    )


def gen_zn_self_module(n: int) -> LatticeModule:
    """The ideal lattice of Z_n acting on itself by the ideal product."""
    L = gen_zn_ideal_lattice(n)
    return validate_module(L, L.leq, L.mul_table, top=L.top, bottom=L.bottom, labels=L.labels)


def _span(gens, n: int) -> frozenset:
    out = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for gx, gy in gens:
            nxt = ((x + gx) % n, (y + gy) % n)
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return frozenset(out)


def _subgroup_label(a: int, s: int, b: int, n: int) -> str:
    if s == 0:
        return f"{a}Zx{b}Z"
    if a == n:
        return f"<({s},{b})>"
    return f"<({a},0),({s},{b})>"


def gen_zn_square_module(n: int, cap: int = DEFAULT_SQUARE_CAP) -> LatticeModule:
    """Subgroup lattice of Z_n x Z_n over the ideal lattice of Z_n.

    Elements are ordered by (size, sorted member list), so the zero subgroup
    is id 0 and the full group is the last id.  Rectangular subgroups
    aZ x bZ are labelled ``aZxbZ`` (a = n denotes the zero factor); the rest
    are labelled by their generator basis.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > cap:
        raise ValueError(f"zn-square modulus {n} exceeds the cap {cap}")
    L = gen_zn_ideal_lattice(n)
    divs = divisors(n)

    groups = {}
    for a in divs:
        for b in divs:
            step = gcd(a, n // b)
            for t in range(step):
                s = t * a // step
                sub = _span([(a % n, 0), (s % n, b % n)], n)
                groups.setdefault(sub, (a, s, b))
    order = sorted(groups, key=lambda sub: (len(sub), sorted(sub)))
    index = {sub: i for i, sub in enumerate(order)}

    m = len(order)
    leq = np.zeros((m, m), dtype=bool)
    for i, s in enumerate(order):
        for j, t in enumerate(order):
            leq[i, j] = s <= t
    act = np.zeros((len(divs), m), dtype=np.int64)
    for ai, d in enumerate(divs):
        for i, s in enumerate(order):
            act[ai, i] = index[frozenset(((d * x) % n, (d * y) % n) for x, y in s)]
    labels = [_subgroup_label(*groups[sub], n) for sub in order]
    return validate_module(L, leq, act, top=m - 1, bottom=0, labels=labels)


# name -> (generator of (n, cap) returning (lattice, module or None), largest n
# that ``verify --family`` runs by default, or None: no module).  ``cap`` is a
# function returning the bound on the modulus; only a family that takes the
# bound calls it.
FAMILIES = {
    "zn-ideals": (lambda n, cap: (gen_zn_ideal_lattice(n), None), None),
    "zn-self": (lambda n, cap: ((M := gen_zn_self_module(n)).lattice, M), 30),
    "zn-square": (lambda n, cap: ((M := gen_zn_square_module(n, cap=cap())).lattice, M), 8),
}
DEFAULT_FAMILY = tuple([("zn-self", n) for n in range(2, 31)]
                       + [("zn-square", n) for n in (2, 3, 4, 8)])


@dataclass(frozen=True)
class InstanceSpec:
    """One generated (lattice, module) instance: a FAMILIES entry and its n."""

    family: str
    n: int

    def build(self, cap=DEFAULT_SQUARE_CAP):
        """Returns (name, lattice, module-or-None).

        ``cap`` bounds the zn-square modulus: an int, or a function returning
        one, called only when the family takes the bound, so that a caller
        reads it only then.
        """
        if self.family in FAMILIES:
            bound = cap if callable(cap) else lambda: cap
            return (f"{self.family}-{self.n}", *FAMILIES[self.family][0](self.n, bound))
        raise ValueError(f"unknown instance family {self.family!r}")


# ---------------------------------------------------------------------------
# MLAT serialization


def _covers(leq: np.ndarray) -> list[tuple[int, int]]:
    n = leq.shape[0]
    lt = leq & ~np.eye(n, dtype=bool)
    between = _bool_matmul(lt, lt)
    return [(int(i), int(j)) for i, j in np.argwhere(lt & ~between)]


def _emit_block(lines: list[str], kind: str, leq, top, bottom, labels,
                table_stmt: str, table: np.ndarray) -> None:
    lines.append(kind)
    lines.append(f"elements {leq.shape[0]}")
    lines.append(f"top {top}")
    lines.append(f"bot {bottom}")
    for i, j in sorted(_covers(np.asarray(leq, dtype=bool))):
        lines.append(f"leq {i} {j}")
    rows, cols = table.shape
    for i in range(rows):
        for j in range(cols):
            lines.append(f"{table_stmt} {i} {j} {int(table[i, j])}")
    if labels is not None:
        for i, text in enumerate(labels):
            lines.append(f"label {i} {text}")


def serialize_instance(L: MultiplicativeLattice, M: LatticeModule | None = None) -> str:
    """Canonical MLAT text for a lattice and optional module."""
    lines = ["mlat 1"]
    _emit_block(lines, "lattice", L.leq, L.top, L.bottom, L.labels, "mul", L.mul_table)
    if M is not None:
        if M.lattice is not L and not (
            M.lattice.element_count == L.element_count
            and (M.lattice.leq == L.leq).all()
            and (M.lattice.mul_table == L.mul_table).all()
        ):
            raise ValueError("module is not over the given lattice")
        _emit_block(lines, "module", M.leq, M.top, M.bottom, M.labels, "act", M.act_table)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class Instance:
    """A named, validated module instance plus its content fingerprint."""

    name: str
    module: LatticeModule
    fingerprint: str

    @property
    def lattice(self):
        return self.module.lattice


def make_instance(name: str, module: LatticeModule) -> Instance:
    """``module`` named ``name``; the fingerprint is the first 16 hex digits
    of the sha256 of its canonical MLAT text."""
    digest = hashlib.sha256(serialize_instance(module.lattice, module).encode()).hexdigest()
    return Instance(name=name, module=module, fingerprint=digest[:16])


# ---------------------------------------------------------------------------
# MLAT parsing


class ParseError(ValueError):
    """Syntax or structural error in an MLAT file, with a source location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class _Block:
    def __init__(self, kind: str, lineno: int):
        self.kind = kind
        self.lineno = lineno
        self.count: int | None = None
        self.leq_cells: list[int] = []          # i * count + j for each "leq i j"
        self.top: int | None = None
        self.bottom: int | None = None
        self.cells: dict[int, int] = {}         # i * count + j -> table entry
        self.labels: dict[int, str] = {}


def _lines(text: str) -> list[str]:
    """Lines split at "\\n", "\\r\\n" and "\\r" only, the line ends that universal
    newlines translate; other whitespace separates tokens within a line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _column(content: str, k: int) -> int:
    """1-based column of token ``k`` (from 0) of a line's ``content``."""
    return [m.start() + 1 for m in re.finditer(r"\S+", content)][k]


def parse_instance(text: str) -> tuple[MultiplicativeLattice, LatticeModule | None]:
    """Parse MLAT text; axiom violations are raised by the validators."""
    header_seen = False
    blocks: list[_Block] = []
    # The current block's count and the lattice's, None until declared, and
    # the block's table statement.
    n = lattice_count = None
    table_word = None

    # Tokens are whitespace-split; a column is found only for an error.
    def fail(message: str, k: int = 0) -> ParseError:
        return ParseError(message, lineno, _column(content, k))

    def arity(k: int) -> None:
        if len(toks) != k + 1:
            raise fail(f"{word!r} takes {k} argument(s), got {len(toks) - 1}") from None

    def read(k: int) -> int:
        try:
            return int(toks[k])
        except ValueError:
            raise fail(f"expected an integer, got {toks[k]!r}", k) from None

    def ids(bounds, ints_first: bool = False) -> list[int]:
        """The ids after the directive, ``toks[k]`` below ``bounds[k - 1]``
        (``None`` before the block's elements declaration), or the error for
        the first bad one.  top and bot read their id here; mul/act, leq and
        label call it only after their inline read fails, to raise its error.
        mul/act (``ints_first``) read every id as an integer before checking
        any bound; the other statements read and check each in turn."""
        ks = range(1, len(bounds) + 1)
        read_first = [read(k) for k in ks] if ints_first else None
        values = []
        for k, bound in zip(ks, bounds):
            value = read_first[k - 1] if ints_first else read(k)
            if bound is None:
                # an act statement's first id is bounded by the lattice block
                owner = "the lattice block's" if word == "act" and k == 1 else "the block's"
                raise fail(f"{word!r} statement before {owner} elements declaration", k) from None
            if not 0 <= value < bound:
                raise fail(f"dangling element id {value} ({word})", k) from None
            values.append(value)
        return values

    # mul/act, leq and label lines, which a block repeats, are read inline:
    # unpack, int() each id, check each bound (TypeError while a count is
    # undeclared).  Only a failed read calls arity/ids, to raise its error.
    for lineno, raw in enumerate(_lines(text), 1):
        hash_pos = raw.find("#")
        content = raw if hash_pos < 0 else raw[:hash_pos]
        toks = content.split()
        if not toks:
            continue
        if not header_seen:
            if toks != ["mlat", "1"]:
                raise fail("expected version header 'mlat 1'")
            header_seen = True
            continue
        word = toks[0]
        if word in ("lattice", "module"):
            if len(toks) != 1:
                raise fail(f"unexpected text after {word!r}", 1)
            if word == "lattice" and blocks:
                raise fail("duplicate lattice block")
            if word == "module" and not blocks:
                raise fail("module block requires a preceding lattice block")
            if word == "module" and len(blocks) > 1:
                raise fail("duplicate module block")
            block = _Block(word, lineno)
            blocks.append(block)
            cells, leq_cells, labels = block.cells, block.leq_cells, block.labels
            n = None
            table_word = "mul" if word == "lattice" else "act"
            continue
        if not blocks:
            raise fail(f"statement {word!r} outside any block")

        if word == table_word:
            try:
                _, i, j, v = toks
                i, j, v = int(i), int(j), int(v)
                if not (0 <= i < lattice_count and 0 <= j < n and 0 <= v < n):
                    raise ValueError
            except (ValueError, TypeError):
                arity(3)
                i, j, v = ids((lattice_count, n, n), ints_first=True)
            seen = cells.setdefault(i * n + j, v)
            if seen != v:
                raise fail(f"conflicting {word} entry for ({i}, {j}): {seen} vs {v}")
        elif word == "leq":
            try:
                _, i, j = toks
                i, j = int(i), int(j)
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError
            except (ValueError, TypeError):
                arity(2)
                i, j = ids((n, n))
            leq_cells.append(i * n + j)
        elif word == "label":
            try:
                _, i, label = content.split(None, 2)
                i = int(i)
                if not 0 <= i < n:
                    raise ValueError
            except (ValueError, TypeError):
                if len(toks) < 3:
                    raise fail("'label' takes an id and a label text") from None
                (i,) = ids((n,))
            labels[i] = label.rstrip()
        elif word == "elements":
            arity(1)
            if n is not None:
                raise fail("duplicate elements declaration")
            value = read(1)
            if value < 1:
                raise fail("element count must be positive", 1)
            block.count = n = value
            if block.kind == "lattice":
                lattice_count = value
        elif word in ("top", "bot"):
            arity(1)
            (value,) = ids((n,))
            if word == "top":
                if block.top is not None:
                    raise fail("duplicate top declaration")
                block.top = value
            else:
                if block.bottom is not None:
                    raise fail("duplicate bot declaration")
                block.bottom = value
        elif word == "mul" or word == "act":
            raise fail(f"{word!r} statement is not allowed in a {block.kind} block")
        else:
            raise fail(f"unknown directive {word!r}")

    if not header_seen:
        raise ParseError("empty file: expected version header 'mlat 1'", 1)
    if not blocks:
        raise ParseError("missing lattice block", 1)

    L = validate_lattice(*_build_block(blocks[0], rows=None))
    if len(blocks) == 1:
        return L, None
    return L, validate_module(L, *_build_block(blocks[1], rows=blocks[0].count))


def _build_block(block: _Block, rows: int | None) -> tuple:
    """``block``'s (leq, table, top, bottom, labels): the validator's arguments."""
    if block.count is None:
        raise ParseError(f"{block.kind} block has no elements declaration", block.lineno)
    n = block.count
    height = n if rows is None else rows
    # Every cell id is already bounds-checked, so the table is total exactly
    # when it has height * n cells.  Checking that before allocating anything
    # rejects an "elements 1000000000" line with a few cells here instead of
    # allocating n x n arrays.  A total table still leaves the n x n order:
    # memory is quadratic in a module's element count, which its rows * n
    # act lines bound only linearly.
    if len(block.cells) != height * n:
        i, j = divmod(next(k for k in range(height * n) if k not in block.cells), n)
        stmt = "mul" if block.kind == "lattice" else "act"
        raise ParseError(
            f"non-total {stmt} table: missing entry for ({i}, {j})", block.lineno)
    leq = np.eye(n, dtype=bool)
    leq.flat[block.leq_cells] = True
    # reflexive-transitive closure
    while True:
        closed = leq | _bool_matmul(leq, leq)
        if (closed == leq).all():
            break
        leq = closed
    table = np.empty((height, n), dtype=np.int64)
    cells = len(block.cells)
    table.flat[np.fromiter(block.cells, np.int64, cells)] = np.fromiter(
        block.cells.values(), np.int64, cells)
    labels = None
    if block.labels:
        labels = tuple(block.labels.get(i, str(i)) for i in range(n))
    return leq, table, block.top, block.bottom, labels
