"""Classification predicates for module elements, with counterexample witnesses.

Every predicate evaluates its defining condition by exhaustive quantification
over the carrier and returns ``(flag, witness)``, where the witness is the
lexicographically first violating tuple (quantifiers scanned in ascending id
order) or ``None`` when the flag holds.  ``classify`` aggregates all flags for
one element, sharing the radical/prime computations across predicates.
``classify_all`` is memoized on the module and always reports the truth; a
fault injected to test the theorem harness is a ``harness.Fault``, seen only
by the check contexts built with it.

All predicates require a proper element; properness is a precondition, not a
flag failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import _memo, _pair_violations, _stable_power_table, lattice_flags, sqrt_table
from .module import (
    LatticeModule,
    _require_id,
    _require_in,
    maximal_elements,
    prime_elements,
    rad,
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


def _verdict(violations: np.ndarray):
    """``(flag, witness)``: the flag holds iff no tuple is marked, and the
    witness is the lexicographically first marked index."""
    i = int(violations.argmax())
    if not violations.flat[i]:
        return True, None
    return False, tuple(int(v) for v in np.unravel_index(i, violations.shape))


def _triple_violations(M: LatticeModule, N: int, bound: int) -> np.ndarray:
    """Bool [a, b, K]: (ab)K <= N with aK not<= N and bK not<= ``bound``.

    N is classical prime when no triple is marked with bound N, and
    pseudo-classical primary with bound rad(N).
    """
    act_le = M.leq[M.act_table, N]              # [a, K]: aK <= N
    bound_le = M.leq[M.act_table, bound]
    return act_le[M.lattice.mul_table] & ~act_le[:, None, :] & ~bound_le[None, :, :]


def is_prime_m(M: LatticeModule, N: int):
    """aX <= N implies X <= N or a I_M <= N; witness is a violating (a, X)."""
    _require_proper(M, N)
    return _verdict(_pair_violations(M.leq, M.act_table, M.top, N, N))


def is_primary_m(M: LatticeModule, N: int):
    """aX <= N implies X <= N or a^k I_M <= N for some k; witness (a, X)."""
    _require_proper(M, N)
    stable = _stable_power_table(M.lattice)
    return _verdict(_pair_violations(M.leq, M.act_table, M.top, N, N, stable))


def is_semiprime(M: LatticeModule, N: int):
    """ab I_M <= N implies a I_M <= N or b I_M <= N; witness (a, b)."""
    _require_proper(M, N)
    L = M.lattice
    ab_top_le = M.leq[M.act_table[L.mul_table, M.top], N]
    atop_le = M.leq[M.act_table[:, M.top], N]
    return _verdict(ab_top_le & ~atop_le[:, None] & ~atop_le[None, :])


def is_radical_element(M: LatticeModule, N: int):
    """(N:I_M) equals its own radical; witness is ((N:I_M), sqrt(N:I_M))."""
    _require_proper(M, N)
    r = int(residual_mm_table(M)[N, M.top])
    s = int(sqrt_table(M.lattice)[r])
    ok = r == s
    return ok, (None if ok else (r, s))


def is_classical_prime(M: LatticeModule, N: int):
    """abK <= N implies aK <= N or bK <= N; witness (a, b, K)."""
    _require_proper(M, N)
    return _verdict(_triple_violations(M, N, N))


def is_two_absorbing(M: LatticeModule, N: int):
    """abK <= N implies ab I_M <= N or aK <= N or bK <= N; witness (a, b, K)."""
    _require_proper(M, N)
    ab_top_le = M.leq[M.act_table[M.lattice.mul_table, M.top], N]
    return _verdict(_triple_violations(M, N, N) & ~ab_top_le[:, :, None])


def is_pseudo_primary(M: LatticeModule, N: int):
    """aX <= N implies a <= (N:I_M) or X <= rad(N); witness (a, X)."""
    _require_proper(M, N)
    return _verdict(_pair_violations(M.leq, M.act_table, M.top, N, rad(M, N)))


def is_pseudo_classical_primary(M: LatticeModule, N: int):
    """abK <= N implies aK <= N or bK <= rad(N); witness (a, b, K)."""
    _require_proper(M, N)
    return _verdict(_triple_violations(M, N, rad(M, N)))


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


def _no_prime_between(M: LatticeModule, primes, X: int, N: int) -> bool:
    return all(q == N for q in primes if M.le(X, q) and M.le(q, N))


def is_minimal_prime_over(M: LatticeModule, N: int, X: int) -> bool:
    """No prime strictly between X and the prime N."""
    _require_in(M, N, "M")
    _require_in(M, X, "M")
    if N not in prime_elements(M):
        raise ValueError(f"{M.label(N)} is not a prime element")
    if not M.le(X, N):
        raise ValueError(f"{M.label(X)} is not below {M.label(N)}")
    return _no_prime_between(M, prime_elements(M), X, N)


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
    """Classification of every proper element, memoized on M."""
    L = M.lattice
    lflags = lattice_flags(L)
    sqrts = sqrt_table(L)
    R = residual_mm_table(M)
    maximals = set(maximal_elements(M))
    primes = prime_elements(M)
    out = {}
    for n in M.proper_elements():
        checks = {
            "prime": is_prime_m(M, n),
            "primary": is_primary_m(M, n),
            "semiprime": is_semiprime(M, n),
            "radical_element": is_radical_element(M, n),
            "classical_prime": is_classical_prime(M, n),
            "two_absorbing": is_two_absorbing(M, n),
            "pseudo_primary": is_pseudo_primary(M, n),
            "pseudo_classical_primary": is_pseudo_classical_primary(M, n),
        }
        flags = {k: v[0] for k, v in checks.items()}
        witnesses = {k: v[1] for k, v in checks.items() if not v[0]}
        r = int(R[n, M.top])
        s = int(sqrts[r])
        minimal_over = tuple(
            x for x in M.elements() if M.le(x, n) and _no_prime_between(M, primes, x, n)
        ) if n in primes else ()
        out[n] = Classification(
            element=n,
            label=M.label(n),
            maximal=n in maximals,
            residual_top=r,
            sqrt_residual_top=s,
            rad=rad(M, n),
            minimal_prime_over=minimal_over,
            witnesses=witnesses,
            **flags,
            **vars(_attachments(lflags, r, s, flags["prime"], flags["primary"],
                                flags["pseudo_primary"])),
        )
    return out
