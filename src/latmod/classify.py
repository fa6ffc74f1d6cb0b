"""Classification predicates for module elements, with counterexample witnesses.

Every predicate evaluates its defining condition by exhaustive quantification
over the carrier and returns ``(flag, witness)``, where the witness is the
lexicographically first violating tuple (quantifiers scanned in ascending id
order) or ``None`` when the flag holds.  Each condition is written once, for a
vector of elements: ``classify_all`` classifies a module in one blocked
whole-table pass, every condition evaluated for all proper elements at once
in blocks of elements whose masks stay within ``lattice._BLOCK_CELLS`` cells,
and the predicates are its one-element case.  ``classify`` reads one element
of it.  ``classify_all`` is memoized on the module and always reports the
truth; a fault injected to test the theorem harness is a ``harness.Fault``,
seen only by the check contexts built with it.

All predicates require a proper element; properness is a precondition, not a
flag failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    _act_le,
    _first_marked,
    _memo,
    _pair_violations,
    _prime_violations,
    _row_blocks,
    _stable_power_table,
    lattice_flags,
    sqrt_table,
)
from .module import (
    LatticeModule,
    _proper_ids,
    _rad_table,
    _require_id,
    _require_in,
    maximal_elements,
    prime_elements,
    residual_mm_table,
)

__all__ = [
    "Classification",
    "PAttachments",
    "FLAG_NAMES",
    "is_prime_m",
    "is_primary_m",
    "is_semiprime",
    "is_radical_element",
    "is_classical_prime",
    "is_two_absorbing",
    "is_pseudo_primary",
    "is_pseudo_classical_primary",
    "p_attachments",
    "is_minimal_prime_over",
    "classify",
    "classify_all",
]

FLAG_NAMES = (
    "prime",
    "primary",
    "maximal",
    "semiprime",
    "radical_element",
    "classical_prime",
    "two_absorbing",
    "pseudo_primary",
    "pseudo_classical_primary",
)

def _require_proper(M: LatticeModule, N: int) -> None:
    _require_id(M, N, f"{M.label(M.top)} is not a proper element")


def _triple_violations(act_le, mul, bound_le) -> np.ndarray:
    """Bool [N, a, b, K]: (ab)K <= N with aK not<= N and bK not<= the bound
    of N, read from ``act_le`` [N, a, K] (aK <= N), ``mul`` the product of L
    and ``bound_le`` [N, b, K] (bK <= the bound).

    N is classical prime when its row marks no triple with bound N, and
    pseudo-classical primary with bound rad(N).
    """
    return act_le[:, mul] & ~act_le[:, :, None, :] & ~bound_le[:, None, :, :]


class _Rows:
    """The class conditions of the proper elements ``ns``, each written once.

    A condition is a bool mask, N along axis 0, marking the tuples that
    violate it (quantifiers in ascending id order); the arrays several
    conditions read are built once.  The ``is_*`` predicates read the
    one-element case, ``classify_all`` blocks of every proper element.
    """

    def __init__(self, M: LatticeModule, ns):
        self.M, self.L, self.ns = M, M.lattice, ns
        self.act_le = _act_le(M.leq, M.act_table, ns)            # [N, a, X]: aX <= N
        self.top_le = self.act_le[:, :, M.top]                   # [N, a]: a I_M <= N
        self.ab_top_le = self.act_le[:, self.L.mul_table, M.top]  # [N, a, b]: ab I_M <= N
        self._rad_act_le = self._classical_prime = None

    def rad_act_le(self):       # [N, b, K]: bK <= rad(N)
        if self._rad_act_le is None:
            self._rad_act_le = _act_le(self.M.leq, self.M.act_table, _rad_table(self.M)[self.ns])
        return self._rad_act_le

    def prime(self):
        return _prime_violations(self.act_le, self.L.top, self.M.top)

    def primary(self):
        return _prime_violations(self.act_le, self.L.top, self.M.top,
                                 _stable_power_table(self.L))

    def semiprime(self):
        return self.ab_top_le & ~(self.top_le[:, :, None] | self.top_le[:, None, :])

    def radical_element(self):
        """Not a mask: per N, ((N:I_M), sqrt(N:I_M)) where they differ, else None."""
        r = residual_mm_table(self.M)[self.ns, self.M.top]
        s = sqrt_table(self.L)[r]
        return [None if a == b else (a, b) for a, b in zip(r.tolist(), s.tolist())]

    def classical_prime(self):
        if self._classical_prime is None:
            self._classical_prime = _triple_violations(self.act_le, self.L.mul_table,
                                                       self.act_le)
        return self._classical_prime

    def two_absorbing(self):
        return self.classical_prime() & ~self.ab_top_le[..., None]

    def pseudo_primary(self):
        return _pair_violations(self.act_le, self.rad_act_le()[:, self.L.top], self.top_le)

    def pseudo_classical_primary(self):
        return _triple_violations(self.act_le, self.L.mul_table, self.rad_act_le())

    def witnesses(self, flag: str) -> list:
        """Per N: the first tuple violating ``flag``'s condition, or None."""
        marks = getattr(self, flag)()
        return marks if flag == "radical_element" else _first_marked(marks)


def _one(M: LatticeModule, N: int, flag: str):
    """``(flag, witness)`` of the proper element N."""
    _require_proper(M, N)
    witness = _Rows(M, [N]).witnesses(flag)[0]
    return witness is None, witness


def is_prime_m(M: LatticeModule, N: int):
    """aX <= N implies X <= N or a I_M <= N; witness is a violating (a, X)."""
    return _one(M, N, "prime")


def is_primary_m(M: LatticeModule, N: int):
    """aX <= N implies X <= N or a^k I_M <= N for some k; witness (a, X)."""
    return _one(M, N, "primary")


def is_semiprime(M: LatticeModule, N: int):
    """ab I_M <= N implies a I_M <= N or b I_M <= N; witness (a, b)."""
    return _one(M, N, "semiprime")


def is_radical_element(M: LatticeModule, N: int):
    """(N:I_M) equals its own radical; witness is ((N:I_M), sqrt(N:I_M))."""
    return _one(M, N, "radical_element")


def is_classical_prime(M: LatticeModule, N: int):
    """abK <= N implies aK <= N or bK <= N; witness (a, b, K)."""
    return _one(M, N, "classical_prime")


def is_two_absorbing(M: LatticeModule, N: int):
    """abK <= N implies ab I_M <= N or aK <= N or bK <= N; witness (a, b, K)."""
    return _one(M, N, "two_absorbing")


def is_pseudo_primary(M: LatticeModule, N: int):
    """aX <= N implies a <= (N:I_M) or X <= rad(N); witness (a, X)."""
    return _one(M, N, "pseudo_primary")


def is_pseudo_classical_primary(M: LatticeModule, N: int):
    """abK <= N implies aK <= N or bK <= rad(N); witness (a, b, K)."""
    return _one(M, N, "pseudo_classical_primary")


# the flags with a defining condition, and so a witness, in FLAG_NAMES order
_WITNESSED = tuple(flag for flag in FLAG_NAMES if flag != "maximal")


@dataclass(frozen=True)
class PAttachments:
    """Attached primes, when defined: p-prime uses p = (N:I_M), the other two
    p = sqrt(N:I_M)."""

    p_prime: int | None
    p_primary: int | None
    p_pseudo_primary: int | None


def _attachments(lflags, r: int, s: int, prime: bool, primary: bool,
                 pseudo_primary: bool) -> PAttachments:
    """Attached primes of an element with (N:I_M) = r, sqrt(r) = s and the given flags."""
    return PAttachments(
        p_prime=r if prime and lflags[r].prime else None,
        p_primary=s if primary and lflags[s].prime else None,
        p_pseudo_primary=s if pseudo_primary and lflags[s].prime else None,
    )


def p_attachments(M: LatticeModule, N: int) -> PAttachments:
    _require_proper(M, N)
    L = M.lattice
    r = int(residual_mm_table(M)[N, M.top])
    s = int(sqrt_table(L)[r])
    return _attachments(lattice_flags(L), r, s, is_prime_m(M, N)[0],
                        is_primary_m(M, N)[0], is_pseudo_primary(M, N)[0])


def _minimal_over(M: LatticeModule) -> np.ndarray:
    """Bool [i, X]: X <= N and no prime other than N lies between them, for
    N the i-th prime of M."""
    primes = list(prime_elements(M))
    below = M.leq.T[primes]                             # [i, X]: X <= the i-th prime
    others = below[:, primes]                           # [i, j]: the j-th prime <= the i-th
    np.fill_diagonal(others, False)
    return below & ~(others @ below)                    # no other prime q with X <= q


def is_minimal_prime_over(M: LatticeModule, N: int, X: int) -> bool:
    """No prime strictly between X and the prime N."""
    _require_in(M, N, "M")
    _require_in(M, X, "M")
    if N not in prime_elements(M):
        raise ValueError(f"{M.label(N)} is not a prime element")
    if not M.le(X, N):
        raise ValueError(f"{M.label(X)} is not below {M.label(N)}")
    return bool(_minimal_over(M)[prime_elements(M).index(N), X])


@dataclass(frozen=True)
class Classification:
    """All flags, attachments and witnesses for one proper element."""

    element: int
    label: str
    prime: bool
    primary: bool
    maximal: bool
    semiprime: bool
    radical_element: bool
    classical_prime: bool
    two_absorbing: bool
    pseudo_primary: bool
    pseudo_classical_primary: bool
    p_prime: int | None
    p_primary: int | None
    p_pseudo_primary: int | None
    residual_top: int
    sqrt_residual_top: int
    rad: int
    minimal_prime_over: tuple[int, ...]
    witnesses: dict = field(default_factory=dict)

    def flag(self, name: str) -> bool:
        return bool(getattr(self, name))

    def as_dict(self) -> dict:
        return {
            "element": self.element,
            "label": self.label,
            "flags": {name: self.flag(name) for name in FLAG_NAMES},
            "attachments": {
                "p_prime": self.p_prime,
                "p_primary": self.p_primary,
                "p_pseudo_primary": self.p_pseudo_primary,
            },
            "residual_top": self.residual_top,
            "sqrt_residual_top": self.sqrt_residual_top,
            "rad": self.rad,
            "minimal_prime_over": list(self.minimal_prime_over),
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def classify(M: LatticeModule, N: int) -> Classification:
    """Aggregate classification of a proper element."""
    _require_proper(M, N)
    return classify_all(M)[N]


@_memo
def classify_all(M: LatticeModule) -> dict[int, Classification]:
    """Classification of every proper element, memoized on M.

    One whole-table pass: each condition is evaluated for all proper N at
    once, in blocks of N whose [N, a, b, K] masks hold at most
    ``lattice._BLOCK_CELLS`` cells.
    """
    L = M.lattice
    ids = _proper_ids(M)
    witnesses = {flag: [] for flag in _WITNESSED}
    for block in _row_blocks(ids.size, L.element_count ** 2 * M.element_count):
        rows = _Rows(M, ids[block])
        for flag in _WITNESSED:
            witnesses[flag] += rows.witnesses(flag)
    lflags = lattice_flags(L)
    residual_top = residual_mm_table(M)[:, M.top].tolist()
    sqrts = sqrt_table(L).tolist()
    rads = _rad_table(M).tolist()
    maximals = set(maximal_elements(M))
    primes = prime_elements(M)
    minimal_over = dict(zip(primes, (tuple(row.nonzero()[0].tolist())
                                     for row in _minimal_over(M))))
    out = {}
    for i, n in enumerate(ids.tolist()):
        found = {flag: w[i] for flag, w in witnesses.items()}
        flags = {flag: w is None for flag, w in found.items()}
        r = residual_top[n]
        s = sqrts[r]
        out[n] = Classification(
            element=n,
            label=M.label(n),
            maximal=n in maximals,
            residual_top=r,
            sqrt_residual_top=s,
            rad=rads[n],
            minimal_prime_over=minimal_over.get(n, ()),
            witnesses={flag: w for flag, w in found.items() if w is not None},
            **flags,
            **vars(_attachments(lflags, r, s, flags["prime"], flags["primary"],
                                flags["pseudo_primary"])),
        )
    return out
