"""Executable registry of structural theorems about lattice-module elements.

Each registry entry pairs

* a list of instance-level hypotheses (principally generated, faithful,
  multiplication module, ...), and
* a quantified statement, evaluated exhaustively over a finite instance.

A check is asserted (pass/fail) only when all its hypotheses hold on the
instance; otherwise it is reported as skipped with the unmet hypotheses
named.  A check whose quantification domain is empty is reported as skipped
for vacuity, which the reports keep distinct from the hypothesis pathway.

The statements are theorems of the underlying theory, so on a validated
instance every failure indicates an implementation bug; each failure carries
a witness, and :func:`replay_violation` confirms one by re-running its check
on a new context.  To show that a check can fail, :func:`run_suite` and
:func:`replay_violation` take a :class:`Fault`, which inverts one classifier
flag in what their contexts read, and nowhere else.

Each statement shape is written once.  A pointwise statement, with at most
one violation per member of its domain, is :func:`_each`; an equivalence of
named sides (:func:`_equivalence`, recurring sides in ``_SIDES``) is
pointwise in :func:`_disagreement`, and further conditions at a member join
it with ``or``.  An implication between classes is :func:`_implication` (the
figure is ``ARROWS``), and one parametrised kernel serves each family of
statements that differ only in a flag or a condition (chains, rad(N) prime,
a residual prime, q I_M flagged, N v p I_M).

:func:`run_suite` builds one evaluation context (:class:`Ctx`) per instance,
and every selected check of that instance runs on it through
:func:`run_check`, so the hypotheses, the classification, the residual and
rad tables and the arrays derived from them are gathered once per instance,
not once per check.  A kernel reads a value of one proper element N (a flag,
an attachment, rad(N), (N:I_M) or sqrt(N:I_M)) from its classification
``ctx.cls[n]``, and a whole table from a ``Ctx`` member (``ctx.res_mm``,
``ctx.rad_of``, ``ctx.sqrts``, ...); a value that may be the top, which has
no classification, is read from a table.

The quantifier-heavy sides are numpy reductions over the residual tables the
instance memoizes: residual-split gathers (N:ab) for every N at once,
residual-product reduces to a per-K table of the residual values that break
the product criterion, the join-meet condition, the pseudo-primary sides,
the two residual bounds and the residual-shift theorem are masks over every
N at once (the join-meet condition and the prime residual bound, which read
m x m cells per N, in blocks of N), and the residual-shift side of the
pseudo-classical primary equivalence is one mask per N.  The
"compact-definition" sides use the residuation identity xK <= N iff
x <= (N:K), so N enters only through the pairs ((N:K), (bound:K)); one l x l
table per instance, ``Ctx.breaks``, says which pairs break the definition,
and the classifier's action tensors are never read; the plain-loop references
for both, and a brute-force loop for ``Ctx.breaks``, live in
``tests/test_harness.py``.  The saturation checks read one table of S_p(N)
over (N, prime p).  The chains, the two residual-chain theorems and the
implication figure, which can report several violations per element, are
plain loops; the rest are pointwise.  Every entry registers through
:func:`_check`, which rejects duplicate ids and unknown hypotheses.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .classify import FLAG_NAMES, Classification, _attachments, classify_all
# Instance and make_instance are defined in instances and re-exported here
from .instances import DEFAULT_FAMILY, DEFAULT_SQUARE_CAP, Instance, InstanceSpec, make_instance
from .lattice import (
    _bool_matmul,
    _first_witnesses,
    _row_blocks,
    is_pg_lattice,
    lattice_flags,
    sqrt_table,
)
from .module import (
    LatticeModule,
    _proper_ids,
    _rad_table,
    _saturations,
    is_faithful,
    is_multiplication_module,
    is_pg_module,
    residual_ml_table,
    residual_mm_table,
)

__all__ = [
    "Instance",
    "TheoremCheck",
    "CheckResult",
    "TheoremReport",
    "HYPOTHESES",
    "AUTO_HYPOTHESES",
    "BUNDLE",
    "Fault",
    "Ctx",
    "make_instance",
    "default_instances",
    "registry",
    "list_checks",
    "run_suite",
    "run_check",
    "replay_violation",
]


def default_instances(square_cap: int = DEFAULT_SQUARE_CAP) -> list[Instance]:
    """The default verification family, ``instances.DEFAULT_FAMILY``."""
    built = (InstanceSpec(family=family, n=n).build(cap=square_cap)
             for family, n in DEFAULT_FAMILY)
    return [make_instance(name, module) for name, _, module in built]


# Instance-level hypotheses.  Compactness hypotheses are automatic on finite
# carriers (every element of a finite lattice is compact) and are recorded in
# reports as auto-satisfied rather than silently dropped.
HYPOTHESES: dict[str, Callable[[LatticeModule], bool]] = {
    "pg-lattice": lambda M: is_pg_lattice(M.lattice),
    "pg-module": is_pg_module,
    "faithful": is_faithful,
    "multiplication-module": is_multiplication_module,
    "top-compact": lambda M: True,
    "compactly-generated": lambda M: True,
}
AUTO_HYPOTHESES = frozenset({"top-compact", "compactly-generated"})

# The recurring hypothesis bundle of the multiplication-module theorems.
BUNDLE = ("pg-lattice", "faithful", "multiplication-module", "pg-module", "top-compact")
MULT = ("multiplication-module",)
CG = ("compactly-generated",)

# Random chains of flagged elements drawn per chain-* check, on top of every
# 2- and 3-element chain.
_CHAIN_SAMPLES = 100


@dataclass(frozen=True)
class TheoremCheck:
    id: str
    description: str
    hypotheses: tuple[str, ...]
    kernel: Callable
    dashed: bool = False

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "hypotheses": list(self.hypotheses),
            "dashed": self.dashed,
        }


@dataclass
class CheckResult:
    instance: str
    check_id: str
    status: str                  # pass | fail | skipped
    evaluated: int
    violations: list
    skip_reason: str | None = None
    dashed: bool = False
    seconds: float = 0.0

    def as_dict(self) -> dict:
        """The report entry; ``seconds`` is left out to keep reports deterministic."""
        return {
            "instance": self.instance,
            "check": self.check_id,
            "status": self.status,
            "evaluated": self.evaluated,
            "violations": self.violations,
            "skip_reason": self.skip_reason,
            "dashed": self.dashed,
        }


@dataclass
class TheoremReport:
    results: list[CheckResult]
    instances: dict[str, dict]
    seed: int

    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "instances": self.instances,
            "results": [r.as_dict() for r in self.results],
            "summary": self.counts(),
        }


@dataclass(frozen=True)
class Fault:
    """A classifier fault: ``flag`` inverted on ``elements`` (None: every
    proper element) in what a :class:`Ctx` built with it reads.

    It exercises the failure-reporting paths.  The fault lives only in the
    contexts given it; ``classify_all`` and the ``is_*`` predicates always
    report the truth.
    """

    flag: str
    elements: frozenset[int] | None = None

    def __post_init__(self):
        if self.flag not in FLAG_NAMES:
            raise ValueError(f"unknown classifier flag {self.flag!r}")
        if self.elements is not None:
            object.__setattr__(self, "elements", frozenset(int(e) for e in self.elements))


def _inverted(c: Classification, flag: str, lflags) -> Classification:
    """``c`` with ``flag`` inverted, its witness dropped, attachments recomputed."""
    c = replace(c, **{flag: not c.flag(flag)},
                witnesses={k: w for k, w in c.witnesses.items() if k != flag})
    return replace(c, **vars(_attachments(lflags, c.residual_top, c.sqrt_residual_top,
                                          c.prime, c.primary, c.pseudo_primary)))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, marked read-only so that a kernel writing into it raises."""
    arr.setflags(write=False)
    return arr


class Ctx:
    """Per-instance evaluation context sharing hypotheses, classifications and residuals.

    ``run_suite`` builds one per instance and every selected check reads it,
    so each table below is gathered once per instance.  The arrays it builds
    itself are read-only, as the memo tables are: a kernel cannot change what
    a later check reads.  Under a :class:`Fault`, ``cls`` is a faulted view of
    the memoized classification; every other table is the instance's own.
    A fault replaces only a flag, its witness and the attachments: the
    ``rad``, ``residual_top`` and ``sqrt_residual_top`` of ``cls`` stay true.
    """

    def __init__(self, instance: Instance, seed: int = 0, fault: Fault | None = None):
        self.instance = instance
        self.M = instance.module
        self.L = self.M.lattice
        self.seed = seed
        self.fault = fault

    @cached_property
    def hypotheses(self) -> dict[str, bool]:
        return instance_hypotheses(self.M)

    @cached_property
    def cls(self):
        cls = classify_all(self.M)
        if self.fault is None:
            return cls
        flag, targets = self.fault.flag, self.fault.elements
        return {n: _inverted(c, flag, self.lflags) if targets is None or n in targets else c
                for n, c in cls.items()}

    @cached_property
    def propers(self):
        return tuple(self.M.proper_elements())

    @cached_property
    def propers_l(self):
        return tuple(self.L.proper_elements())

    @cached_property
    def mul_le(self):
        """Boolean [a, b, z]: ab <= z in L."""
        return _read_only(self.L.leq[self.L.mul_table])

    @cached_property
    def breaks(self):
        """Boolean [z, w]: some a, b in L have ab <= z, a not<= z and b not<= w."""
        leq = self.L.leq
        return _read_only(_bool_matmul((self.mul_le & ~leq[:, None, :]).any(axis=0).T, ~leq))

    @cached_property
    def res_mm(self):
        return residual_mm_table(self.M)

    @cached_property
    def res_ml(self):
        return residual_ml_table(self.M)

    @cached_property
    def rad_of(self):
        """Entry [N] is rad(N), and -1 at the top, where rad is undefined."""
        return _rad_table(self.M)

    @cached_property
    def lflags(self):
        return lattice_flags(self.L)

    @cached_property
    def sqrts(self):
        return sqrt_table(self.L)

    @cached_property
    def proper_m(self):
        """Bool [X]: X is a proper element of M."""
        return _read_only(np.arange(self.M.element_count) != self.M.top)

    @cached_property
    def lprime(self):
        """Bool [a]: a is a prime element of L."""
        return _read_only(np.array([f.prime for f in self.lflags]))

    @cached_property
    def lprimes(self):
        """The prime elements of L, ascending."""
        return _read_only(np.flatnonzero(self.lprime))

    @cached_property
    def saturations(self):
        """[N, j]: S_p(N) for every N of M and the prime p = ``lprimes[j]`` of L."""
        return _read_only(_saturations(self.M, np.arange(self.M.element_count), self.lprimes))

    @cached_property
    def _flagged(self) -> dict[str, tuple[int, ...]]:
        return {flag: tuple(n for n, c in self.cls.items() if getattr(c, flag))
                for flag in FLAG_NAMES}

    def flagged(self, flag: str) -> tuple[int, ...]:
        """The proper elements carrying ``flag``, ascending."""
        return self._flagged[flag]

    def rng(self, tag: str) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}:{self.instance.name}:{tag}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def chains_of(self, flag: str, tag: str) -> list[tuple[int, ...]]:
        """All 2- and 3-element chains of flagged elements, plus sampled longer ones.

        A sample is kept only with at least 4 members, so with fewer than 4
        flagged elements none is drawn.
        """
        le = self.M.leq.tolist()            # lists: the samples below read them thousands of times
        height = self.M.leq.sum(axis=0).tolist()    # [x]: the size of x's down-set
        ids = self.flagged(flag)
        pairs = [(a, b) for a in ids for b in ids if a != b and le[a][b]]
        chains: list[tuple[int, ...]] = pairs + [
            (a, b, c) for a, b in pairs for c in ids if c not in (a, b) and le[b][c]]
        # comparable[x]: bit y set iff x and y are comparable
        comparable = {x: sum(1 << y for y in ids if le[x][y] or le[y][x]) for x in ids}
        rng = self.rng(tag)
        seen = set()
        for _ in range(_CHAIN_SAMPLES if len(ids) >= 4 else 0):
            pool = list(ids)
            rng.shuffle(pool)
            chain: list[int] = []
            fits = -1                       # bit y set iff y is comparable with the whole chain
            for x in pool:
                if fits >> x & 1:
                    chain.append(x)
                    fits &= comparable[x]
            if len(chain) >= 4:
                chain = tuple(sorted(chain, key=height.__getitem__))
                if chain not in seen:
                    seen.add(chain)
                    chains.append(chain)
        return chains


def _v(kind: str, **detail) -> dict:
    out = {"kind": kind}
    for key, value in detail.items():
        if isinstance(value, (bool, str, dict)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [int(x) for x in value]
        else:
            out[key] = int(value)
    return out


def _violation_at(ctx: Ctx, kind: str, n: int, **detail) -> dict:
    """A violation witnessed by the module element n: kind, element, label, detail."""
    return _v(kind, element=n, label=ctx.M.label(n), **detail)


def _proper_prime(ctx: Ctx, x: int) -> bool:
    """x is a proper prime element of M; the top, which has no classification, is not."""
    return x != ctx.M.top and ctx.cls[x].prime


_REGISTRY: dict[str, TheoremCheck] = {}


def _check(check_id: str, description: str, hypotheses: tuple[str, ...] = (),
           dashed: bool = False):
    def wrap(fn):
        if check_id in _REGISTRY:
            raise ValueError(f"duplicate check id {check_id}")
        for h in hypotheses:
            if h not in HYPOTHESES:
                raise ValueError(f"unknown hypothesis {h}")
        _REGISTRY[check_id] = TheoremCheck(
            id=check_id, description=description, hypotheses=tuple(hypotheses),
            kernel=fn, dashed=dashed)
        return fn
    return wrap


# ---------------------------------------------------------------------------
# statement shapes


def _each(domain, violation: Callable):
    """Pointwise statement: ``violation(x)`` is the violation of the member x
    of ``domain``, or None where the statement holds at x.  Returns the
    domain's size and the violations, in domain order."""
    return len(domain), [v for v in map(violation, domain) if v is not None]


def _disagreement(ctx: Ctx, n: int, sides: dict, **extra) -> dict | None:
    """The "equivalence" violation of n when its named boolean ``sides``
    disagree (with the fields ``extra``), or None when they agree."""
    if len(set(sides.values())) > 1:
        return _violation_at(ctx, "equivalence", n, sides=sides, **extra)
    return None


def _equivalence(ctx: Ctx, sides_of: Callable, domain=None):
    """Equivalence: the named boolean sides ``sides_of(n)`` agree for every n in
    ``domain`` (default: the proper elements)."""
    return _each(ctx.propers if domain is None else domain,
                 lambda n: _disagreement(ctx, n, sides_of(n)))


# Sides shared by several equivalences; any other side name is the classifier
# flag it spells with dashes.
_SIDES: dict[str, Callable[[Ctx, int], bool]] = {
    "residual-prime": lambda ctx, n: bool(ctx.lflags[ctx.cls[n].residual_top].prime),
    "residual-primary": lambda ctx, n: bool(ctx.lflags[ctx.cls[n].residual_top].primary),
    "primary-generator": lambda ctx, n: any(            # N = q I_M for a primary q
        ctx.lflags[q].primary and ctx.M.act(q, ctx.M.top) == n for q in ctx.L.elements()),
    "primary-and-classical-prime":
        lambda ctx, n: ctx.cls[n].primary and ctx.cls[n].classical_prime,
}


def _named_equivalence(ctx: Ctx, *names: str):
    """Equivalence of named sides, each from ``_SIDES`` or a classifier flag."""
    def sides(n):
        return {name: _SIDES[name](ctx, n) if name in _SIDES
                else ctx.cls[n].flag(name.replace("-", "_")) for name in names}
    return _equivalence(ctx, sides)


def _implication(ctx: Ctx, domain, antecedent: str, consequent: str, dashed: bool = False):
    """Implication: every n in ``domain`` (the elements satisfying
    ``antecedent``) carries the classifier flag ``consequent``."""
    return _each(domain, lambda n: None if ctx.cls[n].flag(consequent) else _violation_at(
        ctx, "flag-implication", n, antecedent=antecedent, consequent=consequent, dashed=dashed))


def _compact_definition(ctx: Ctx, n: int, bound: int) -> bool:
    """abK <= N forces aK <= N or bK <= bound, for all a, b in L and K in M.

    Read through residuation, xK <= N iff x <= (N:K), so N enters only through
    the pairs ((N:K), (bound:K)): the definition fails iff ``ctx.breaks`` holds
    at one of them.  The residual rows of N and bound are all it reads, not
    the classifier's action tensors.  With bound = N this is the classical
    prime definition, with bound = rad(N) the pseudo-classical primary one.
    """
    return not ctx.breaks[ctx.res_mm[n], ctx.res_mm[bound]].any()


def _chain_kernel(ctx: Ctx, flag: str):
    chains = ctx.chains_of(flag, f"chain-{flag}")
    viols = []
    for chain in chains:
        for which, value in (("meet", ctx.M.meet_all(chain)), ("join", ctx.M.join_all(chain))):
            if value == ctx.M.top or not ctx.cls[value].flag(flag):
                viols.append(_v("chain", chain=chain, bound=which, value=value, flag=flag,
                                label=", ".join(ctx.M.label(x) for x in chain)))
    return len(chains), viols


def _rad_prime_kernel(ctx: Ctx, flag: str):
    """rad(N) is a prime element of M for every N carrying ``flag``."""
    def violation(n):
        r = ctx.cls[n].rad
        return None if _proper_prime(ctx, r) else _violation_at(ctx, "rad-flag", n, rad=r,
                                                                 expected="prime")
    return _each(ctx.flagged(flag), violation)


def _residual_prime_kernel(ctx: Ctx, flag: str, residual: str):
    """N's classification field ``residual`` is prime in L for every N carrying ``flag``."""
    def violation(n):
        r = getattr(ctx.cls[n], residual)
        return None if ctx.lflags[r].prime else _violation_at(ctx, "residual-flag", n, residual=r)
    return _each(ctx.flagged(flag), violation)


def _action_is_top(ctx: Ctx, q: int) -> dict | None:
    """The violation "q I_M is the top", or None when q I_M is proper."""
    top = ctx.M.top
    return _v("action-proper", q=q, label=ctx.L.label(q)) if ctx.M.act(q, top) == top else None


def _action_kernel(ctx: Ctx, lflag: str, flag: str):
    """q I_M is proper and carries ``flag`` for every proper q in L carrying ``lflag``."""
    M = ctx.M
    def violation(q):
        n = M.act(q, M.top)
        return _action_is_top(ctx, q) or (None if ctx.cls[n].flag(flag) else _v(
            "action-flag", q=q, element=n, label=M.label(n), expected=flag))
    return _each([q for q in ctx.propers_l if getattr(ctx.lflags[q], lflag)], violation)


# ---------------------------------------------------------------------------
# implication figure

ARROWS = (
    ("maximal", "prime", True),
    ("prime", "primary", True),
    ("prime", "semiprime", False),
    ("prime", "pseudo_primary", False),
    ("prime", "classical_prime", False),
    ("pseudo_primary", "pseudo_classical_primary", False),
    ("classical_prime", "semiprime", False),
    ("classical_prime", "pseudo_classical_primary", False),
    ("classical_prime", "two_absorbing", True),
)


@_check("fig1-implications",
        "all nine implication arrows between element classes hold for every proper N")
def _k_fig1(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        for src, dst, dashed in ARROWS:
            if ctx.cls[n].flag(src):
                viols += _implication(ctx, (n,), src, dst, dashed)[1]
    return len(ctx.propers), viols


def _arrow_kernel(ctx: Ctx, src: str, dst: str, dashed: bool):
    return _implication(ctx, ctx.flagged(src), src, dst, dashed)


for _src, _dst, _dashed in ARROWS:
    _check(f"fig1-{_src}-implies-{_dst}".replace("_", "-"),
           f"every {_src.replace('_', ' ')} element is {_dst.replace('_', ' ')}",
           dashed=_dashed)(partial(_arrow_kernel, src=_src, dst=_dst, dashed=_dashed))


# ---------------------------------------------------------------------------
# lattice-level and unconditional module-level statements


@_check("lem-sqrt-meet", "sqrt(a ^ b) = sqrt(a) ^ sqrt(b) for all lattice elements a, b")
def _k_sqrt_meet(ctx: Ctx):
    L = ctx.L
    def violation(pair):
        a, b = pair
        lhs = int(ctx.sqrts[L.meet(a, b)])
        rhs = L.meet(int(ctx.sqrts[a]), int(ctx.sqrts[b]))
        return None if lhs == rhs else _v("lattice-equality", pair=pair, lhs=lhs, rhs=rhs,
                                          label=f"{L.label(a)}, {L.label(b)}")
    return _each(list(itertools.product(L.elements(), repeat=2)), violation)


@_check("thm-prime-rad-fixed", "rad(N) = N for every prime element N")
def _k_prime_rad_fixed(ctx: Ctx):
    def violation(n):
        r = ctx.cls[n].rad
        return None if r == n else _violation_at(ctx, "rad-value", n, rad=r)
    return _each(ctx.flagged("prime"), violation)


_check("thm-prime-residual-prime", "(N:I_M) is a prime element of L for every prime N")(
    lambda ctx: _residual_prime_kernel(ctx, "prime", "residual_top"))


@_check("thm-radical-primary-pseudo-primary",
        "every radical element that is primary is pseudo-primary")
def _k_radical_primary(ctx: Ctx):
    domain = [n for n in ctx.propers
              if ctx.cls[n].radical_element and ctx.cls[n].primary]
    return _implication(ctx, domain, "radical_element+primary", "pseudo_primary")


@_check("lem-sqrt-residual-below-rad-residual",
        "sqrt(N:I_M) <= (rad(N):I_M) for every proper N")
def _k_sqrt_res_below(ctx: Ctx):
    def violation(n):
        s = ctx.cls[n].sqrt_residual_top
        r = int(ctx.res_mm[ctx.cls[n].rad, ctx.M.top])
        return None if ctx.L.le(s, r) else _violation_at(ctx, "lattice-leq", n, lhs=s, rhs=r)
    return _each(ctx.propers, violation)


_check("thm-semiprime-iff-residual-prime",
       "N is semiprime iff (N:I_M) is a prime element of L")(
    lambda ctx: _named_equivalence(ctx, "semiprime", "residual-prime"))


_check("cor-prime-iff-primary-classical-prime",
       "N is prime iff N is both primary and classical prime")(
    lambda ctx: _named_equivalence(ctx, "prime", "primary-and-classical-prime"))


_check("cor-maximal-classical-prime", "every maximal element of M is classical prime")(
    lambda ctx: _implication(ctx, ctx.flagged("maximal"), "maximal", "classical_prime"))


@_check("prop-rad-idempotent", "rad(rad(N)) = rad(N) for every proper N")
def _k_rad_idempotent(ctx: Ctx):
    def violation(n):
        r = ctx.cls[n].rad
        ok = r != ctx.M.top and ctx.cls[r].rad == r
        return None if ok else _violation_at(ctx, "rad-value", n, rad=r)
    return _each(ctx.propers, violation)


def _rad_is_top(ctx: Ctx, n: int) -> dict | None:
    """The violation "rad(N) is the top", or None when rad(N) is proper."""
    r = ctx.cls[n].rad
    return _violation_at(ctx, "rad-value", n, rad=r) if r == ctx.M.top else None


@_check("prop-variety-nonempty",
        "every proper N lies below a prime element (rad(N) is proper)")
def _k_variety_nonempty(ctx: Ctx):
    return _each(ctx.propers, partial(_rad_is_top, ctx))


# ---------------------------------------------------------------------------
# classical prime: properties and characterizations


@_check("thm-classical-prime-residuals-prime",
        "N is classical prime iff (N:K) is prime in L for every K not<= N")
def _k_cp_residuals(ctx: Ctx):
    M = ctx.M
    def violation(n):               # witness: the first K not<= N with (N:K) not prime
        k = next((k for k in M.elements() if not M.le(k, n)
                  and not ctx.lflags[int(ctx.res_mm[n, k])].prime), None)
        return _disagreement(ctx, n, {"classical-prime": ctx.cls[n].classical_prime,
                                      "residuals-prime": k is None},
                             witness=None if k is None else (k,))
    return _each(ctx.propers, violation)


_check("thm-classical-prime-residual-top-prime",
       "(N:I_M) is prime in L for every classical prime N")(
    lambda ctx: _residual_prime_kernel(ctx, "classical_prime", "residual_top"))


@_check("thm-classical-prime-residual-shift",
        "(N:K) = (N:rK) for classical prime N and proper r, K with rK not<= N")
def _k_cp_residual_shift(ctx: Ctx):
    M = ctx.M
    domain = ctx.flagged("classical_prime")
    ids = np.array(domain, dtype=np.int64)
    rk = M.act_table                                # [r, K] = rK
    rows = ctx.res_mm[ids]                          # [N, K] = (N:K)
    bad = ~M.leq[rk[None, :, :], ids[:, None, None]] & (rows[:, None, :] != rows[:, rk])
    bad[:, ctx.L.top] = bad[:, :, M.top] = False    # proper r and K only
    viols = [_violation_at(ctx, "residual-equality", domain[i], r=r, K=k,
                           lhs=rows[i, k], rhs=rows[i, rk[r, k]])
             for i, r, k in np.argwhere(bad)]
    return len(domain), viols


@_check("thm-classical-prime-residual-chain",
        "{(N:K) | K not<= N} is a chain of primes in L for classical prime N",
        MULT)
def _k_cp_residual_chain(ctx: Ctx):
    M, viols = ctx.M, []
    domain = ctx.flagged("classical_prime")
    for n in domain:
        residuals = sorted({int(ctx.res_mm[n, k]) for k in M.elements() if not M.le(k, n)})
        for r in residuals:
            if not ctx.lflags[r].prime:
                viols.append(_violation_at(ctx, "residual-flag", n, residual=r))
        for i, a in enumerate(residuals):
            for b in residuals[i + 1:]:
                if not (ctx.L.le(a, b) or ctx.L.le(b, a)):
                    viols.append(_violation_at(ctx, "not-a-chain", n, pair=(a, b)))
    return len(domain), viols


@_check("equiv-classical-prime-cg",
        "classical prime iff (N:ab) = (N:a) or (N:ab) = (N:b) for all a, b "
        "iff the definition quantified over compact elements", CG)
def _k_cp_cg(ctx: Ctx):
    res = ctx.res_ml                                # [N, a] = (N:a)
    split = res[:, ctx.L.mul_table]                 # [N, a, b] = (N:ab)
    residual_split = ((split == res[:, :, None]) | (split == res[:, None, :])).all(axis=(1, 2))
    return _equivalence(ctx, lambda n: {"definition": ctx.cls[n].classical_prime,
                                        "residual-split": bool(residual_split[n]),
                                        "compact-definition": _compact_definition(ctx, n, n)})


@_check("thm-join-meet-condition-classical-prime",
        "if (N:X) != (N:Y) always forces N = (N v X) ^ (N v Y), then N is classical prime")
def _k_join_meet_condition(ctx: Ctx):
    M, ids = ctx.M, _proper_ids(ctx.M)
    def violations(ns):
        rows, up = ctx.res_mm[ns], M.join_table[ns]    # [N, X]: (N:X), N v X
        meets = M.meet_table[up[:, :, None], up[:, None, :]]        # [N, X, Y]
        return (rows[:, :, None] != rows[:, None, :]) & (meets != ns[:, None, None])
    witnesses = _first_witnesses(violations, ids, 8 * M.element_count ** 2)    # 8-byte ids
    domain = [n for n, witness in zip(ids.tolist(), witnesses) if witness is None]
    return _implication(ctx, domain, "join-meet-condition", "classical_prime")


_check("chain-classical-prime",
       "meets and joins of chains of classical prime elements are classical prime")(
    lambda ctx: _chain_kernel(ctx, "classical_prime"))


@_check("equiv-classical-prime-mult",
        "classical prime iff (N:B) = (N:I_M) for proper B > N iff (N:X) = (N:I_M) "
        "for X not<= N iff N = (N:a) for proper a > (N:I_M)", MULT)
def _k_cp_mult(ctx: Ctx):
    M, L = ctx.M, ctx.L
    def sides(n):
        rt = ctx.cls[n].residual_top
        return {
            "definition": ctx.cls[n].classical_prime,
            "residual-above": all(int(ctx.res_mm[n, b]) == rt
                                  for b in ctx.propers if M.le(n, b) and b != n),
            "residual-outside": all(int(ctx.res_mm[n, x]) == rt
                                    for x in M.elements() if not M.le(x, n)),
            "residual-fixed": all(int(ctx.res_ml[n, a]) == n
                                  for a in ctx.propers_l if L.le(rt, a) and a != rt),
        }
    return _equivalence(ctx, sides)


@_check("cor-classical-prime-zero-residuals",
        "(O_M:B) = 0 for every proper B != O_M when O_M is classical prime",
        ("faithful", "multiplication-module"))
def _k_cp_zero_residuals(ctx: Ctx):
    M, bottom = ctx.M, ctx.M.bottom
    if bottom == M.top or not ctx.cls[bottom].classical_prime:
        return 0, []
    def violation(b):
        r = int(ctx.res_mm[bottom, b])
        return None if r == ctx.L.bottom else _violation_at(ctx, "residual-flag", bottom, B=b,
                                                            residual=r)
    return _each([b for b in ctx.propers if b != bottom], violation)


@_check("equiv-classical-prime-residual-product",
        "classical prime iff (A:K)(B:K) <= (N:K) forces (A:K) <= (N:K) or (B:K) <= (N:K) "
        "for all A, B, K (the top element included)", MULT)
def _k_cp_residual_product(ctx: Ctx):
    # A, B, K must range over the whole carrier: restricting them to proper
    # elements makes the criterion strictly weaker than the definition
    # (zn-self-12, element (6), with K = I_M separates the two).
    #
    # Only the values u = (A:K), v = (B:K) matter, so per K: taken[K, u] says
    # u is a value of (.:K), and breaks[K, z] that two of them have uv <= z,
    # u not<= z and v not<= z.  N fails iff breaks[K, (N:K)] for some K.
    leq, res, m = ctx.L.leq, ctx.res_mm, ctx.M.element_count
    l = leq.shape[0]
    bad_pair = ctx.mul_le & ~leq[:, None, :] & ~leq[None, :, :]        # [u, v, z]
    taken = np.zeros((m, l), dtype=bool)
    taken[np.arange(m), res] = True
    # [K, v, z]: some taken u
    pairs = _bool_matmul(taken, bad_pair.reshape(l, l * l)).reshape(m, l, l)
    breaks = (pairs & taken[:, :, None]).any(axis=1)
    residual_product = ~breaks[np.arange(m), res].any(axis=1)
    return _equivalence(ctx, lambda n: {"definition": ctx.cls[n].classical_prime,
                                        "residual-product": bool(residual_product[n])})


_check("thm-prime-iff-classical-prime",
       "N is prime iff N is classical prime", MULT)(
    lambda ctx: _named_equivalence(ctx, "prime", "classical-prime"))


_check("cor-prime-4way",
       "prime iff classical prime iff semiprime iff (N:I_M) prime in L", MULT)(
    lambda ctx: _named_equivalence(ctx, "prime", "classical-prime", "semiprime", "residual-prime"))


# ---------------------------------------------------------------------------
# pseudo-primary


def _pp_compact_definition(ctx: Ctx, ns):
    """aX <= N forces a <= (N:I_M) or X <= rad(N), for all a in L and X in M,
    read through residuation as a <= (N:X): one [a, N, X] mask, per proper N
    in ``ns`` (a bool array), or for one N (a bool)."""
    leq = ctx.L.leq
    bad = (leq[:, ctx.res_mm[ns]] & ~leq[:, ctx.res_mm[ns, ctx.M.top]][..., None]
           & ~ctx.M.leq[:, ctx.rad_of[ns]].T)
    return ~bad.any(axis=(0, -1))


@_check("equiv-pseudo-primary-cg",
        "pseudo-primary iff (N:I_M) = (N:X) for every proper X not<= rad(N) "
        "iff (N:a) <= rad(N) for every proper a > (N:I_M) "
        "iff the definition quantified over compact elements", CG)
def _k_pp_cg(ctx: Ctx):
    M, L, ids = ctx.M, ctx.L, _proper_ids(ctx.M)
    rt, rd = ctx.res_mm[ids, M.top], ctx.rad_of[ids]
    outside = ctx.proper_m & ~M.leq[:, rd].T       # [N, X]: proper X not<= rad(N)
    above = (np.arange(L.element_count) != L.top) & L.leq[rt]  # [N, a]: proper a > (N:I_M)
    above[np.arange(ids.size), rt] = False
    sides = {n: {"definition": ctx.cls[n].pseudo_primary, "residual-fixed": fixed,
                 "residual-bound": bound, "compact-definition": compact}
             for n, fixed, bound, compact in zip(
                 ctx.propers,
                 ((ctx.res_mm[ids] == rt[:, None]) | ~outside).all(axis=1).tolist(),
                 (M.leq[ctx.res_ml[ids], rd[:, None]] | ~above).all(axis=1).tolist(),
                 _pp_compact_definition(ctx, ids).tolist())}
    return _equivalence(ctx, sides.__getitem__)


_check("chain-pseudo-primary",
       "meets and joins of chains of pseudo-primary elements are pseudo-primary", BUNDLE)(
    lambda ctx: _chain_kernel(ctx, "pseudo_primary"))


@_check("lem-rad-meet",
        "rad(A ^ B) = rad(A) ^ rad(B) for proper A, B, plus sampled larger families",
        BUNDLE)
def _k_rad_meet(ctx: Ctx):
    M, rad_of, ids = ctx.M, ctx.rad_of, _proper_ids(ctx.M)   # rad is -1 at the top
    lhs = rad_of[M.meet_table[np.ix_(ids, ids)]]    # a meet of proper elements is proper
    rhs = M.meet_table[np.ix_(rad_of[ids], rad_of[ids])]
    viols = [_v("rad-meet", pair=(ids[i], ids[j]), label=f"{M.label(ids[i])}, {M.label(ids[j])}")
             for i, j in np.argwhere(lhs != rhs)]
    families = 50 if len(ctx.propers) >= 2 else 0
    # By induction on its size (a meet of proper elements is proper), a
    # family can fail only where a pair does, so the families are drawn only
    # then; all of them count as evaluated either way.
    rng = ctx.rng("lem-rad-meet")
    for _ in range(families if viols else 0):
        family = rng.sample(ctx.propers, rng.randint(2, len(ctx.propers)))
        lhs = ctx.cls[M.meet_all(family)].rad
        rhs = M.meet_all(ctx.cls[x].rad for x in family)
        if lhs != rhs:
            viols.append(_v("rad-meet", family=sorted(family), lhs=lhs, rhs=rhs,
                            label=", ".join(M.label(x) for x in sorted(family))))
    return ids.size ** 2 + families, viols


@_check("thm-rad-eq", "(rad(N):I_M) = sqrt(N:I_M) for every proper N", BUNDLE)
def _k_rad_eq(ctx: Ctx):
    def violation(n):
        lhs = int(ctx.res_mm[ctx.cls[n].rad, ctx.M.top])
        rhs = ctx.cls[n].sqrt_residual_top
        return None if lhs == rhs else _violation_at(ctx, "lattice-equality", n, lhs=lhs, rhs=rhs)
    return _each(ctx.propers, violation)


@_check("thm-rad-action-formula",
        "rad(N) = sqrt(N:I_M) I_M for every proper N", BUNDLE)
def _k_rad_action(ctx: Ctx):
    M = ctx.M
    def violation(n):
        want, r = M.act(ctx.cls[n].sqrt_residual_top, M.top), ctx.cls[n].rad
        return None if r == want else _violation_at(ctx, "rad-value", n, rad=r, expected=want)
    return _each(ctx.propers, violation)


_check("lem-prime-iff-residual-prime",
       "N is prime iff (N:I_M) is prime in L", MULT)(
    lambda ctx: _named_equivalence(ctx, "prime", "residual-prime"))


@_check("thm-proper-action-proper",
        "q I_M is proper for every proper q in L", BUNDLE)
def _k_proper_action(ctx: Ctx):
    return _each(ctx.propers_l, partial(_action_is_top, ctx))


_check("lem-primary-action-primary",
       "q I_M is a primary element of M for every proper primary q in L", BUNDLE)(
    lambda ctx: _action_kernel(ctx, "primary", "primary"))


_check("lem-primary-action-pseudo-primary",
       "q I_M is a pseudo-primary element of M for every proper primary q in L", BUNDLE)(
    lambda ctx: _action_kernel(ctx, "primary", "pseudo_primary"))


_check("lem-primary-action-pseudo-classical-primary",
       "q I_M is a pseudo-classical primary element of M for every proper primary q in L",
       BUNDLE)(
    lambda ctx: _action_kernel(ctx, "primary", "pseudo_classical_primary"))


_check("lem-prime-action-prime",
       "q I_M is a prime element of M for every proper prime q in L", BUNDLE)(
    lambda ctx: _action_kernel(ctx, "prime", "prime"))


_check("equiv-pseudo-primary-4way",
       "pseudo-primary iff (N:I_M) primary in L iff N = q I_M for some primary q "
       "iff primary", BUNDLE)(
    lambda ctx: _named_equivalence(ctx, "pseudo-primary", "residual-primary",
                                   "primary-generator", "primary"))


_check("cor-pseudo-primary-sqrt-prime",
       "sqrt(N:I_M) is prime in L for every pseudo-primary N", BUNDLE)(
    lambda ctx: _residual_prime_kernel(ctx, "pseudo_primary", "sqrt_residual_top"))


_check("thm-pseudo-primary-rad-prime",
       "rad(N) is a prime element of M for every pseudo-primary N", BUNDLE)(
    lambda ctx: _rad_prime_kernel(ctx, "pseudo_primary"))


@_check("thm-pseudo-primary-residual-prime-converse",
        "a pseudo-primary N with (N:I_M) prime in L is prime", MULT)
def _k_pp_converse(ctx: Ctx):
    domain = [n for n in ctx.flagged("pseudo_primary")
              if ctx.lflags[ctx.cls[n].residual_top].prime]
    return _implication(ctx, domain, "pseudo_primary", "prime")


def _p_join_kernel(ctx: Ctx, holds: Callable[[int, int], bool]):
    """``holds(N, N v p I_M)`` for every p-pseudo-primary N."""
    M = ctx.M
    def violation(n):
        p = ctx.cls[n].p_pseudo_primary
        j = M.join(n, M.act(p, M.top))
        return None if holds(n, j) else _violation_at(ctx, "p-join", n, p=p, join=j,
                                                      rad=ctx.cls[n].rad)
    return _each([n for n in ctx.propers if ctx.cls[n].p_pseudo_primary is not None], violation)


_check("thm-p-pseudo-primary-join",
       "N v p I_M equals rad(N) and is prime, for p-pseudo-primary N with p = sqrt(N:I_M)",
       BUNDLE)(
    lambda ctx: _p_join_kernel(ctx, lambda n, j: j == ctx.cls[n].rad and _proper_prime(ctx, j)))


_check("cor-rad-join-p",
       "rad(N) = rad(N v p I_M) for p-pseudo-primary N with p = sqrt(N:I_M)", BUNDLE)(
    lambda ctx: _p_join_kernel(
        ctx, lambda n, j: j != ctx.M.top and ctx.cls[n].rad == ctx.cls[j].rad))


def _rad_attachment_sides(ctx: Ctx, n: int) -> dict:
    r, pseudo_primary = ctx.cls[n].rad, ctx.cls[n].p_pseudo_primary is not None
    if r == ctx.M.top:
        return {"rad-proper": False, "p-pseudo-primary": pseudo_primary}
    c = ctx.cls[r]
    return {
        "p-pseudo-primary": pseudo_primary,
        "rad-p-prime": c.p_prime is not None,
        "rad-p-primary": c.p_primary is not None,
        "rad-p-pseudo-primary": c.p_pseudo_primary is not None,
    }


@_check("equiv-rad-attachments",
        "N p-pseudo-primary iff rad(N) p-prime iff rad(N) p-primary iff rad(N) "
        "p-pseudo-primary, with the attached primes agreeing", BUNDLE)
def _k_rad_attachments(ctx: Ctx):
    def attachment_mismatch(n, sides):
        if not sides.get("p-pseudo-primary"):
            return None
        c = ctx.cls[ctx.cls[n].rad]
        primes = {int(ctx.cls[n].p_pseudo_primary), c.residual_top, c.sqrt_residual_top}
        if len(primes) == 1:
            return None
        return _violation_at(ctx, "attachment-mismatch", n, primes=sorted(primes))
    def violation(n):
        sides = _rad_attachment_sides(ctx, n)
        return _disagreement(ctx, n, sides) or attachment_mismatch(n, sides)
    return _each(ctx.propers, violation)


@_check("cor-rad-attachments-pseudo-primary",
        "for pseudo-primary N: rad(N) p-prime iff p-primary iff p-pseudo-primary", BUNDLE)
def _k_rad_attachments_pp(ctx: Ctx):
    return _equivalence(ctx, lambda n: {
        name: value for name, value in _rad_attachment_sides(ctx, n).items()
        if name != "p-pseudo-primary"}, domain=ctx.flagged("pseudo_primary"))


@_check("thm-pseudo-primary-residual-chain",
        "(N:K) is primary and {sqrt(N:K) | K not<= rad(N)} is a chain of primes, "
        "for pseudo-primary N", BUNDLE)
def _k_pp_residual_chain(ctx: Ctx):
    M, viols = ctx.M, []
    domain = ctx.flagged("pseudo_primary")
    for n in domain:
        rd = ctx.cls[n].rad
        outside = [k for k in M.elements() if not M.le(k, rd)]
        sqrts = set()
        for k in outside:
            r = int(ctx.res_mm[n, k])
            if not ctx.lflags[r].primary:
                viols.append(_violation_at(ctx, "residual-flag", n, K=k, residual=r,
                                           expected="primary"))
            sqrts.add(int(ctx.sqrts[r]))
        sq = sorted(sqrts)
        for i, a in enumerate(sq):
            if not ctx.lflags[a].prime:
                viols.append(_violation_at(ctx, "residual-flag", n, residual=a,
                                           expected="prime"))
            for b in sq[i + 1:]:
                if not (ctx.L.le(a, b) or ctx.L.le(b, a)):
                    viols.append(_violation_at(ctx, "not-a-chain", n, pair=(a, b)))
    return len(domain), viols


# ---------------------------------------------------------------------------
# saturation


def _saturation_pairs(ctx: Ctx) -> list[tuple[int, int, int]]:
    """(N, p, S_p(N)) for every pseudo-primary N and every prime p of L above
    (N:I_M), p ascending."""
    above = ctx.L.leq[ctx.res_mm[:, ctx.M.top]][:, ctx.lprimes]     # [N, j]: (N:I_M) <= p_j
    return [(n, p, s) for n in ctx.flagged("pseudo_primary")
            for p, s, a in zip(ctx.lprimes.tolist(), ctx.saturations[n].tolist(),
                               above[n].tolist()) if a]


@_check("lem-saturation-below-rad",
        "S_p(N) <= rad(N) for pseudo-primary N and every prime p above (N:I_M)")
def _k_saturation_below(ctx: Ctx):
    def violation(pair):
        n, p, s = pair
        r = ctx.cls[n].rad
        return None if ctx.M.le(s, r) else _violation_at(ctx, "saturation", n, p=p, saturation=s,
                                                         rad=r)
    return _each(_saturation_pairs(ctx), violation)


@_check("thm-saturation-prime-rad-prime",
        "if N is pseudo-primary and S_p(N) is prime for some prime p above (N:I_M), "
        "then rad(N) is prime")
def _k_saturation_prime(ctx: Ctx):
    def violation(pair):
        n, p = pair
        r = ctx.cls[n].rad
        return None if _proper_prime(ctx, r) else _violation_at(ctx, "rad-flag", n, p=p, rad=r,
                                                                 expected="prime")
    return _each([(n, p) for n, p, s in _saturation_pairs(ctx) if _proper_prime(ctx, s)],
                 violation)


@_check("thm-rad-pseudo-primary-iff-prime",
        "rad(N) is pseudo-primary iff rad(N) is prime, for every proper N")
def _k_rad_pp_iff_prime(ctx: Ctx):
    cls = ctx.cls
    return _each(ctx.propers, lambda n: _rad_is_top(ctx, n) or _disagreement(
        ctx, n, {"rad-pseudo-primary": cls[cls[n].rad].pseudo_primary,
                 "rad-prime": cls[cls[n].rad].prime}))


# ---------------------------------------------------------------------------
# pseudo-classical primary


@_check("equiv-pseudo-classical-primary-cg",
        "pseudo-classical primary iff (N:X) = (N:rX) for proper r and any X with "
        "X not<= N and rX not<= rad(N), iff the definition quantified over "
        "compact elements", CG)
def _k_pcp_cg(ctx: Ctx):
    # X must range over the whole carrier: with X restricted to proper
    # elements the shift criterion is strictly weaker than the definition
    # (zn-self-12, element (6), with X = I_M separates the two).
    M = ctx.M
    rx = M.act_table[list(ctx.propers_l)]           # [r, X] = rX
    def residual_shift(n):
        row = ctx.res_mm[n]
        bad = ~M.leq[:, n] & ~M.leq[rx, ctx.cls[n].rad] & (row != row[rx])
        return not bad.any()
    return _equivalence(ctx, lambda n: {
        "definition": ctx.cls[n].pseudo_classical_primary,
        "residual-shift": residual_shift(n),
        "compact-definition": _compact_definition(ctx, n, ctx.cls[n].rad)})


_check("equiv-pseudo-classical-primary-4way",
       "pseudo-classical primary iff (N:I_M) primary in L iff N = q I_M for some "
       "primary q iff primary", BUNDLE)(
    lambda ctx: _named_equivalence(ctx, "pseudo-classical-primary", "residual-primary",
                                   "primary-generator", "primary"))


_check("cor-pseudo-classical-primary-5way",
       "pseudo-primary iff pseudo-classical primary iff (N:I_M) primary iff "
       "N = q I_M for primary q iff primary", BUNDLE)(
    lambda ctx: _named_equivalence(ctx, "pseudo-primary", "pseudo-classical-primary",
                                   "residual-primary", "primary-generator", "primary"))


_check("thm-pseudo-classical-primary-rad-prime",
       "rad(N) is a prime element of M for every pseudo-classical primary N", BUNDLE)(
    lambda ctx: _rad_prime_kernel(ctx, "pseudo_classical_primary"))


_check("chain-pseudo-classical-primary",
       "meets and joins of chains of pseudo-classical primary elements are "
       "pseudo-classical primary", BUNDLE)(
    lambda ctx: _chain_kernel(ctx, "pseudo_classical_primary"))


@_check("lem-prime-residual-bound",
        "(Q:K) is prime and sqrt(X:K) <= (Q:K), for prime Q, X <= Q and proper K not<= Q")
def _k_prime_residual_bound(ctx: Ctx):
    M, viols, count = ctx.M, [], 0
    sqrt_res = ctx.sqrts[ctx.res_mm.T]              # [K, X] = sqrt(X:K)
    primes = np.array(ctx.flagged("prime"), dtype=np.int64)
    for block in _row_blocks(primes.size, M.element_count ** 2):
        qs = primes[block]
        xs = M.leq.T[qs]                            # [Q, X]: X <= Q
        ks = ctx.proper_m & ~xs                     # [Q, K]: proper K not<= Q
        qk = ctx.res_mm[qs]                         # [Q, K] = (Q:K)
        count += int(ks.sum(axis=1) @ xs.sum(axis=1))
        bounded = ctx.L.leq[sqrt_res, qk[:, :, None]]   # [Q, K, X]: sqrt(X:K) <= (Q:K)
        bad = ks & ~(ctx.lprime[qk] & (bounded | ~xs[:, None, :]).all(axis=2))
        for i, k in (np.argwhere(bad).tolist() if bad.any() else ()):
            q, rhs = int(qs[i]), int(qk[i, k])
            if not ctx.lprime[rhs]:
                viols.append(_violation_at(ctx, "residual-flag", q, K=k, residual=rhs,
                                           expected="prime"))
            viols += [_violation_at(ctx, "lattice-leq", q, X=x, K=k, lhs=sqrt_res[k, x], rhs=rhs)
                      for x in np.flatnonzero(xs[i] & ~bounded[i, k]).tolist()]
    return count, viols


@_check("lem-sqrt-residual-rad-bound",
        "sqrt(N:K) <= (rad(N):K) for proper N and proper K not<= N")
def _k_sqrt_residual_rad(ctx: Ctx):
    ids = _proper_ids(ctx.M)
    domain = ~ctx.M.leq[np.ix_(ids, ids)].T         # [N, K]: K not<= N
    lhs = ctx.sqrts[ctx.res_mm[np.ix_(ids, ids)]]
    rhs = ctx.res_mm[np.ix_(ctx.rad_of[ids], ids)]
    viols = [_violation_at(ctx, "lattice-leq", ids[i], K=ids[j], lhs=lhs[i, j], rhs=rhs[i, j])
             for i, j in np.argwhere(domain & ~ctx.L.leq[lhs, rhs]).tolist()]
    return int(domain.sum()), viols


@_check("thm-residual-primary-implies-pcp",
        "if (N:K) is primary in L for every K not<= N (the top element included), "
        "then N is pseudo-classical primary")
def _k_residual_primary_pcp(ctx: Ctx):
    ids = _proper_ids(ctx.M)
    lprimary = np.array([f.primary for f in ctx.lflags])
    holds = (lprimary[ctx.res_mm[ids]] | ctx.M.leq[:, ids].T).all(axis=1)
    return _implication(ctx, ids[holds].tolist(), "residuals-primary", "pseudo_classical_primary")


@_check("lem-sqrt-action-bound",
        "sqrt(q) Y <= sqrt(q) I_M <= rad(q I_M) for proper q with q I_M proper", BUNDLE)
def _k_sqrt_action_bound(ctx: Ctx):
    M = ctx.M
    top_of, sqrt_of = M.act_table[:, M.top].tolist(), ctx.sqrts.tolist()  # a I_M, sqrt(a)
    def violation(pair):
        q, y = pair
        s = sqrt_of[q]
        sy, stop, rd = M.act(s, y), top_of[s], ctx.cls[top_of[q]].rad
        return None if M.le(sy, stop) and M.le(stop, rd) else _v(
            "action-bound", q=q, Y=y, label=ctx.L.label(q), action=sy, top_action=stop, rad=rd)
    return _each([(q, y) for q in ctx.propers_l if top_of[q] != M.top for y in M.elements()],
                 violation)


# ---------------------------------------------------------------------------
# suite driver


def registry() -> dict[str, TheoremCheck]:
    return dict(_REGISTRY)


def list_checks() -> list[dict]:
    """Registry dump: id, statement, hypotheses (auto ones annotated), dashed tag."""
    out = []
    for check in _REGISTRY.values():
        entry = check.as_dict()
        entry["hypotheses"] = [
            h + " (auto)" if h in AUTO_HYPOTHESES else h for h in check.hypotheses]
        out.append(entry)
    return out


def _select(checks) -> list[TheoremCheck]:
    if checks == "all" or checks is None:
        return list(_REGISTRY.values())
    seen = set()
    for cid in checks:
        if cid not in _REGISTRY:
            raise KeyError(f"unknown check id {cid!r}")
        if cid in seen:
            raise ValueError(f"check id {cid!r} is named more than once")
        seen.add(cid)
    return [_REGISTRY[cid] for cid in checks]


def instance_hypotheses(M: LatticeModule) -> dict[str, bool]:
    return {name: bool(fn(M)) for name, fn in HYPOTHESES.items()}


def run_check(ctx: Ctx, check: TheoremCheck) -> CheckResult:
    """Evaluate one check on the instance of ``ctx``, reading that context."""
    start = time.perf_counter()
    unmet = [h for h in check.hypotheses if not ctx.hypotheses[h]]
    evaluated, violations, reason = 0, [], "hypotheses unmet: " + ", ".join(unmet)
    if not unmet:
        evaluated, violations = check.kernel(ctx)
        reason = "vacuous quantification" if evaluated == 0 else None
    status = "skipped" if reason else "fail" if violations else "pass"
    return CheckResult(instance=ctx.instance.name, check_id=check.id, status=status,
                       evaluated=int(evaluated), violations=violations,
                       skip_reason=reason, dashed=check.dashed,
                       seconds=time.perf_counter() - start)


def run_suite(instances, checks="all", seed: int = 0,
              fault: Fault | None = None) -> TheoremReport:
    """Evaluate the selected checks on every instance, all of them reading
    one context per instance, built with ``fault``.

    Results are ordered by (instance name, check id) regardless of evaluation
    order, so reports are deterministic for fixed inputs and seed.  Raises
    ``KeyError`` for an unknown check id, and ``ValueError`` when a check is
    named twice, which would run and count it twice, or when two instances
    share a name, since the report keys both by that name.
    """
    selected = _select(checks)
    results = []
    info = {}
    for instance in instances:
        if instance.name in info:
            raise ValueError(f"two instances are named {instance.name!r}")
        ctx = Ctx(instance, seed=seed, fault=fault)
        info[instance.name] = {
            "fingerprint": instance.fingerprint,
            "lattice_elements": instance.lattice.element_count,
            "module_elements": instance.module.element_count,
            "hypotheses": {name + (" (auto)" if name in AUTO_HYPOTHESES else ""): value
                           for name, value in ctx.hypotheses.items()},
        }
        if selected:
            # shared by the checks like the hypotheses, so built with them
            # rather than inside the first check's ``seconds``
            ctx.cls
        # positional (ctx, check) through the module global, so a wrapper
        # installed on ``run_check`` (perfbench/tracing.py) sees every check
        for check in selected:
            results.append(run_check(ctx, check))
    results.sort(key=lambda r: (r.instance, r.check_id))
    return TheoremReport(results=results, instances=info, seed=seed)


def replay_violation(instance: Instance, check_id: str, violation: dict,
                     seed: int = 0, fault: Fault | None = None) -> bool:
    """Re-derive a reported violation: re-run its check on a new context,
    built with the ``seed`` and ``fault`` of the run that reported it, and
    look for the violation among the results."""
    ctx = Ctx(instance, seed=seed, fault=fault)
    return violation in run_check(ctx, _REGISTRY[check_id]).violations
