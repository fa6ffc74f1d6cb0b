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
a witness that can be replayed against the classifiers in isolation
(:func:`replay_violation`).

Each statement shape is written once: an equivalence of named sides
(:func:`_equivalence`, with recurring sides named in ``_SIDES``), an
implication between classes (:func:`_implication`; the implication figure is
``ARROWS``), and one parametrised kernel per family of statements that differ
only in a flag (chains, rad(N) prime, a residual prime, q I_M flagged).  The
rest (identities, bounds, chain conditions) are plain loops.  Every entry
registers through :func:`_check`, which rejects duplicate ids and unknown
hypotheses.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

from .classify import FLAG_NAMES, classify_all
from .instances import DEFAULT_SQUARE_CAP, gen_zn_self_module, gen_zn_square_module, serialize_instance
from .lattice import is_pg_lattice, lattice_flags, sqrt_table
from .module import (
    LatticeModule,
    is_faithful,
    is_multiplication_module,
    is_pg_module,
    rad,
    residual_ml_table,
    residual_mm_table,
    saturation,
    variety_l,
)

__all__ = [
    "Instance",
    "TheoremCheck",
    "CheckResult",
    "TheoremReport",
    "HYPOTHESES",
    "AUTO_HYPOTHESES",
    "BUNDLE",
    "make_instance",
    "default_instances",
    "registry",
    "list_checks",
    "run_suite",
    "run_check",
    "check_implication_figure",
    "replay_violation",
]


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
    digest = hashlib.sha256(serialize_instance(module.lattice, module).encode()).hexdigest()
    return Instance(name=name, module=module, fingerprint=digest[:16])


def default_instances(square_cap: int = DEFAULT_SQUARE_CAP) -> list[Instance]:
    """The default verification family: zn-self 2..30 and zn-square {2,3,4,8}."""
    out = [make_instance(f"zn-self-{n}", gen_zn_self_module(n)) for n in range(2, 31)]
    out += [make_instance(f"zn-square-{n}", gen_zn_square_module(n, cap=square_cap))
            for n in (2, 3, 4, 8)]
    return out


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

    def as_dict(self, include_timings: bool = False) -> dict:
        out = {
            "instance": self.instance,
            "check": self.check_id,
            "status": self.status,
            "evaluated": self.evaluated,
            "violations": self.violations,
            "skip_reason": self.skip_reason,
            "dashed": self.dashed,
        }
        if include_timings:
            out["seconds"] = round(self.seconds, 6)
        return out


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

    def as_dict(self, include_timings: bool = False) -> dict:
        return {
            "seed": self.seed,
            "instances": self.instances,
            "results": [r.as_dict(include_timings) for r in self.results],
            "summary": self.counts(),
        }


class Ctx:
    """Per-instance evaluation context sharing classifications and residuals."""

    def __init__(self, instance: Instance, seed: int = 0, chain_samples: int = 100):
        self.instance = instance
        self.M = instance.module
        self.L = self.M.lattice
        self.seed = seed
        self.chain_samples = chain_samples

    @cached_property
    def cls(self):
        return classify_all(self.M)

    @cached_property
    def propers(self):
        return tuple(self.M.proper_elements())

    @cached_property
    def propers_l(self):
        return tuple(self.L.proper_elements())

    @cached_property
    def res_mm(self):
        return residual_mm_table(self.M)

    @cached_property
    def res_ml(self):
        return residual_ml_table(self.M)

    @cached_property
    def lflags(self):
        return lattice_flags(self.L)

    @cached_property
    def sqrts(self):
        return sqrt_table(self.L)

    def rad(self, N: int) -> int:
        return rad(self.M, N)

    def res_top(self, N: int) -> int:
        return int(self.res_mm[N, self.M.top])

    def sqrt_res_top(self, N: int) -> int:
        return int(self.sqrts[self.res_top(N)])

    def flagged(self, flag: str) -> list[int]:
        return [n for n in self.propers if self.cls[n].flag(flag)]

    def rng(self, tag: str) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}:{self.instance.name}:{tag}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def chains_of(self, flag: str, tag: str) -> list[tuple[int, ...]]:
        """All 2- and 3-element chains of flagged elements, plus sampled longer ones."""
        M = self.M
        ids = self.flagged(flag)
        pairs = [(a, b) for a in ids for b in ids if a != b and M.le(a, b)]
        chains: list[tuple[int, ...]] = pairs + [
            (a, b, c) for a, b in pairs for c in ids if c not in (a, b) and M.le(b, c)]
        rng = self.rng(tag)
        seen = set()
        for _ in range(self.chain_samples):
            pool = list(ids)
            rng.shuffle(pool)
            chain: list[int] = []
            for x in pool:
                if all(M.le(x, y) or M.le(y, x) for y in chain):
                    chain.append(x)
            if len(chain) >= 4:
                chain = tuple(sorted(chain, key=lambda x: int(M.leq[:, x].sum())))
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


def _equivalence(ctx: Ctx, sides_of: Callable, domain=None, guard=None, witness=None,
                 agreed=None):
    """Equivalence: the named boolean sides ``sides_of(n)`` agree for every n in
    ``domain`` (default: the proper elements).

    Optional hooks: ``guard(n)`` returns a violation that replaces the
    comparison for n (a precondition of the sides failed), ``witness(n)`` adds
    a ``witness`` field to a disagreement, and ``agreed(n, sides)`` returns a
    further violation when the sides agree.
    """
    domain = ctx.propers if domain is None else domain
    viols = []
    for n in domain:
        if guard is not None and (stop := guard(n)) is not None:
            viols.append(stop)
            continue
        sides = sides_of(n)
        if len(set(sides.values())) > 1:
            extra = {} if witness is None else {"witness": witness(n)}
            viols.append(_violation_at(ctx, "equivalence", n, sides=sides, **extra))
        elif agreed is not None and (more := agreed(n, sides)) is not None:
            viols.append(more)
    return len(domain), viols


# Sides shared by several equivalences; any other side name is the classifier
# flag it spells with dashes.
_SIDES: dict[str, Callable[[Ctx, int], bool]] = {
    "residual-prime": lambda ctx, n: bool(ctx.lflags[ctx.res_top(n)].prime),
    "residual-primary": lambda ctx, n: bool(ctx.lflags[ctx.res_top(n)].primary),
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
    viols = [_violation_at(ctx, "flag-implication", n, antecedent=antecedent,
                           consequent=consequent, dashed=dashed)
             for n in domain if not ctx.cls[n].flag(consequent)]
    return len(domain), viols


def _definition_loop(ctx: Ctx, n: int, bound: int) -> bool:
    """Plain-loop evaluation over all triples of: abK <= N forces aK <= N or
    bK <= bound.  With bound = N this is the classical prime definition, with
    bound = rad(N) the pseudo-classical primary one."""
    M, L = ctx.M, ctx.L
    for a in L.elements():
        for b in L.elements():
            ab = L.mul(a, b)
            for k in M.elements():
                if M.le(M.act(ab, k), n) and not M.le(M.act(a, k), n) \
                        and not M.le(M.act(b, k), bound):
                    return False
    return True


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
    domain = ctx.flagged(flag)
    viols = []
    for n in domain:
        r = ctx.rad(n)
        if r == ctx.M.top or not ctx.cls[r].prime:
            viols.append(_violation_at(ctx, "rad-flag", n, rad=r, expected="prime"))
    return len(domain), viols


def _residual_prime_kernel(ctx: Ctx, flag: str, residual: Callable[[int], int]):
    """``residual(N)``, e.g. (N:I_M), is a prime element of L for every N carrying ``flag``."""
    domain = ctx.flagged(flag)
    viols = [_violation_at(ctx, "residual-flag", n, residual=residual(n))
             for n in domain if not ctx.lflags[residual(n)].prime]
    return len(domain), viols


def _action_kernel(ctx: Ctx, lflag: str, flag: str):
    """q I_M is proper and carries ``flag`` for every proper q in L carrying ``lflag``."""
    M = ctx.M
    domain = [q for q in ctx.propers_l if getattr(ctx.lflags[q], lflag)]
    viols = []
    for q in domain:
        n = M.act(q, M.top)
        if n == M.top:
            viols.append(_v("action-proper", q=q, label=ctx.L.label(q)))
        elif not ctx.cls[n].flag(flag):
            viols.append(_v("action-flag", q=q, element=n, label=M.label(n), expected=flag))
    return len(domain), viols


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
    L, viols = ctx.L, []
    for a in L.elements():
        for b in L.elements():
            lhs = int(ctx.sqrts[L.meet(a, b)])
            rhs = L.meet(int(ctx.sqrts[a]), int(ctx.sqrts[b]))
            if lhs != rhs:
                viols.append(_v("lattice-equality", pair=(a, b), lhs=lhs, rhs=rhs,
                                label=f"{L.label(a)}, {L.label(b)}"))
    return L.element_count ** 2, viols


@_check("thm-prime-rad-fixed", "rad(N) = N for every prime element N")
def _k_prime_rad_fixed(ctx: Ctx):
    domain = ctx.flagged("prime")
    viols = [_violation_at(ctx, "rad-value", n, rad=ctx.rad(n))
             for n in domain if ctx.rad(n) != n]
    return len(domain), viols


_check("thm-prime-residual-prime", "(N:I_M) is a prime element of L for every prime N")(
    lambda ctx: _residual_prime_kernel(ctx, "prime", ctx.res_top))


@_check("thm-radical-primary-pseudo-primary",
        "every radical element that is primary is pseudo-primary")
def _k_radical_primary(ctx: Ctx):
    domain = [n for n in ctx.propers
              if ctx.cls[n].radical_element and ctx.cls[n].primary]
    return _implication(ctx, domain, "radical_element+primary", "pseudo_primary")


@_check("lem-sqrt-residual-below-rad-residual",
        "sqrt(N:I_M) <= (rad(N):I_M) for every proper N")
def _k_sqrt_res_below(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        s = ctx.sqrt_res_top(n)
        r = int(ctx.res_mm[ctx.rad(n), ctx.M.top])
        if not ctx.L.le(s, r):
            viols.append(_violation_at(ctx, "lattice-leq", n, lhs=s, rhs=r))
    return len(ctx.propers), viols


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
    viols = []
    for n in ctx.propers:
        r = ctx.rad(n)
        if r == ctx.M.top or ctx.rad(r) != r:
            viols.append(_violation_at(ctx, "rad-value", n, rad=r))
    return len(ctx.propers), viols


def _rad_is_top(ctx: Ctx, n: int) -> dict | None:
    """The violation "rad(N) is the top", or None when rad(N) is proper."""
    r = ctx.rad(n)
    return _violation_at(ctx, "rad-value", n, rad=r) if r == ctx.M.top else None


@_check("prop-variety-nonempty",
        "every proper N lies below a prime element (rad(N) is proper)")
def _k_variety_nonempty(ctx: Ctx):
    viols = [v for v in (_rad_is_top(ctx, n) for n in ctx.propers) if v is not None]
    return len(ctx.propers), viols


# ---------------------------------------------------------------------------
# classical prime: properties and characterizations


@_check("thm-classical-prime-residuals-prime",
        "N is classical prime iff (N:K) is prime in L for every K not<= N")
def _k_cp_residuals(ctx: Ctx):
    M = ctx.M
    def nonprime_residual(n):       # the first K not<= N with (N:K) not prime, as (K,)
        k = next((k for k in M.elements() if not M.le(k, n)
                  and not ctx.lflags[int(ctx.res_mm[n, k])].prime), None)
        return None if k is None else (k,)
    return _equivalence(ctx, lambda n: {"classical-prime": ctx.cls[n].classical_prime,
                                        "residuals-prime": nonprime_residual(n) is None},
                        witness=nonprime_residual)


_check("thm-classical-prime-residual-top-prime",
       "(N:I_M) is prime in L for every classical prime N")(
    lambda ctx: _residual_prime_kernel(ctx, "classical_prime", ctx.res_top))


@_check("thm-classical-prime-residual-shift",
        "(N:K) = (N:rK) for classical prime N and proper r, K with rK not<= N")
def _k_cp_residual_shift(ctx: Ctx):
    M, viols = ctx.M, []
    domain = ctx.flagged("classical_prime")
    for n in domain:
        for r in ctx.propers_l:
            for k in ctx.propers:
                rk = M.act(r, k)
                if not M.le(rk, n) and int(ctx.res_mm[n, k]) != int(ctx.res_mm[n, rk]):
                    viols.append(_violation_at(ctx, "residual-equality", n, r=r, K=k,
                                               lhs=int(ctx.res_mm[n, k]),
                                               rhs=int(ctx.res_mm[n, rk])))
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
    L = ctx.L
    def residual_split(n):
        return all(
            int(ctx.res_ml[n, L.mul(a, b)]) in (int(ctx.res_ml[n, a]), int(ctx.res_ml[n, b]))
            for a in L.elements() for b in L.elements())
    return _equivalence(ctx, lambda n: {"definition": ctx.cls[n].classical_prime,
                                        "residual-split": residual_split(n),
                                        "compact-definition": _definition_loop(ctx, n, n)})


@_check("thm-join-meet-condition-classical-prime",
        "if (N:X) != (N:Y) always forces N = (N v X) ^ (N v Y), then N is classical prime")
def _k_join_meet_condition(ctx: Ctx):
    M = ctx.M
    domain = [n for n in ctx.propers if all(
        int(ctx.res_mm[n, x]) == int(ctx.res_mm[n, y])
        or M.meet(M.join(n, x), M.join(n, y)) == n
        for x in M.elements() for y in M.elements())]
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
        rt = ctx.res_top(n)
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
    domain = [b for b in ctx.propers if b != bottom]
    viols = [_violation_at(ctx, "residual-flag", bottom, B=b, residual=int(ctx.res_mm[bottom, b]))
             for b in domain if int(ctx.res_mm[bottom, b]) != ctx.L.bottom]
    return len(domain), viols


@_check("equiv-classical-prime-residual-product",
        "classical prime iff (A:K)(B:K) <= (N:K) forces (A:K) <= (N:K) or (B:K) <= (N:K) "
        "for all A, B, K (the top element included)", MULT)
def _k_cp_residual_product(ctx: Ctx):
    # A, B, K must range over the whole carrier: restricting them to proper
    # elements makes the criterion strictly weaker than the definition
    # (zn-self-12, element (6), with K = I_M separates the two).
    L, M = ctx.L, ctx.M
    def residual_product(n):
        for k in M.elements():
            nk = int(ctx.res_mm[n, k])
            for a in M.elements():
                ak = int(ctx.res_mm[a, k])
                for b in M.elements():
                    bk = int(ctx.res_mm[b, k])
                    if L.le(L.mul(ak, bk), nk) and not L.le(ak, nk) and not L.le(bk, nk):
                        return False
        return True
    return _equivalence(ctx, lambda n: {"definition": ctx.cls[n].classical_prime,
                                        "residual-product": residual_product(n)})


_check("thm-prime-iff-classical-prime",
       "N is prime iff N is classical prime", MULT)(
    lambda ctx: _named_equivalence(ctx, "prime", "classical-prime"))


_check("cor-prime-4way",
       "prime iff classical prime iff semiprime iff (N:I_M) prime in L", MULT)(
    lambda ctx: _named_equivalence(ctx, "prime", "classical-prime", "semiprime", "residual-prime"))


# ---------------------------------------------------------------------------
# pseudo-primary


def _pp_definition_loop(ctx: Ctx, n: int) -> bool:
    M, L = ctx.M, ctx.L
    rt, rd = ctx.res_top(n), ctx.rad(n)
    for a in L.elements():
        for x in M.elements():
            if M.le(M.act(a, x), n) and not L.le(a, rt) and not M.le(x, rd):
                return False
    return True


@_check("equiv-pseudo-primary-cg",
        "pseudo-primary iff (N:I_M) = (N:X) for every proper X not<= rad(N) "
        "iff (N:a) <= rad(N) for every proper a > (N:I_M) "
        "iff the definition quantified over compact elements", CG)
def _k_pp_cg(ctx: Ctx):
    M, L = ctx.M, ctx.L
    def sides(n):
        rt, rd = ctx.res_top(n), ctx.rad(n)
        return {
            "definition": ctx.cls[n].pseudo_primary,
            "residual-fixed": all(int(ctx.res_mm[n, x]) == rt
                                  for x in ctx.propers if not M.le(x, rd)),
            "residual-bound": all(M.le(int(ctx.res_ml[n, a]), rd)
                                  for a in ctx.propers_l if L.le(rt, a) and a != rt),
            "compact-definition": _pp_definition_loop(ctx, n),
        }
    return _equivalence(ctx, sides)


_check("chain-pseudo-primary",
       "meets and joins of chains of pseudo-primary elements are pseudo-primary", BUNDLE)(
    lambda ctx: _chain_kernel(ctx, "pseudo_primary"))


@_check("lem-rad-meet",
        "rad(A ^ B) = rad(A) ^ rad(B) for proper A, B, plus sampled larger families",
        BUNDLE)
def _k_rad_meet(ctx: Ctx):
    M, viols, count = ctx.M, [], 0
    for a in ctx.propers:
        for b in ctx.propers:
            count += 1
            if ctx.rad(M.meet(a, b)) != M.meet(ctx.rad(a), ctx.rad(b)):
                viols.append(_v("rad-meet", pair=(a, b),
                                label=f"{M.label(a)}, {M.label(b)}"))
    rng = ctx.rng("lem-rad-meet")
    for _ in range(50 if len(ctx.propers) >= 2 else 0):
        family = rng.sample(ctx.propers, rng.randint(2, len(ctx.propers)))
        count += 1
        lhs = ctx.rad(M.meet_all(family))
        rhs = M.meet_all(ctx.rad(x) for x in family)
        if lhs != rhs:
            viols.append(_v("rad-meet", family=sorted(family), lhs=lhs, rhs=rhs,
                            label=", ".join(M.label(x) for x in sorted(family))))
    return count, viols


@_check("thm-rad-eq", "(rad(N):I_M) = sqrt(N:I_M) for every proper N", BUNDLE)
def _k_rad_eq(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        lhs = int(ctx.res_mm[ctx.rad(n), ctx.M.top])
        rhs = ctx.sqrt_res_top(n)
        if lhs != rhs:
            viols.append(_violation_at(ctx, "lattice-equality", n, lhs=lhs, rhs=rhs))
    return len(ctx.propers), viols


@_check("thm-rad-action-formula",
        "rad(N) = sqrt(N:I_M) I_M for every proper N", BUNDLE)
def _k_rad_action(ctx: Ctx):
    M, viols = ctx.M, []
    for n in ctx.propers:
        want = M.act(ctx.sqrt_res_top(n), M.top)
        if ctx.rad(n) != want:
            viols.append(_violation_at(ctx, "rad-value", n, rad=ctx.rad(n), expected=want))
    return len(ctx.propers), viols


_check("lem-prime-iff-residual-prime",
       "N is prime iff (N:I_M) is prime in L", MULT)(
    lambda ctx: _named_equivalence(ctx, "prime", "residual-prime"))


@_check("thm-proper-action-proper",
        "q I_M is proper for every proper q in L", BUNDLE)
def _k_proper_action(ctx: Ctx):
    M, viols = ctx.M, []
    for q in ctx.propers_l:
        if M.act(q, M.top) == M.top:
            viols.append(_v("action-proper", q=q, label=ctx.L.label(q)))
    return len(ctx.propers_l), viols


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
    lambda ctx: _residual_prime_kernel(ctx, "pseudo_primary", ctx.sqrt_res_top))


_check("thm-pseudo-primary-rad-prime",
       "rad(N) is a prime element of M for every pseudo-primary N", BUNDLE)(
    lambda ctx: _rad_prime_kernel(ctx, "pseudo_primary"))


@_check("thm-pseudo-primary-residual-prime-converse",
        "a pseudo-primary N with (N:I_M) prime in L is prime", MULT)
def _k_pp_converse(ctx: Ctx):
    domain = [n for n in ctx.flagged("pseudo_primary")
              if ctx.lflags[ctx.res_top(n)].prime]
    return _implication(ctx, domain, "pseudo_primary", "prime")


def _p_joins(ctx: Ctx) -> list[tuple[int, int, int]]:
    """(N, p, N v p I_M) for every p-pseudo-primary N."""
    M = ctx.M
    return [(n, p, M.join(n, M.act(p, M.top))) for n in ctx.propers
            if (p := ctx.cls[n].p_pseudo_primary) is not None]


@_check("thm-p-pseudo-primary-join",
        "N v p I_M equals rad(N) and is prime, for p-pseudo-primary N with p = sqrt(N:I_M)",
        BUNDLE)
def _k_ppp_join(ctx: Ctx):
    joins, cls, top = _p_joins(ctx), ctx.cls, ctx.M.top
    viols = [_violation_at(ctx, "p-join", n, p=p, join=j, rad=ctx.rad(n))
             for n, p, j in joins
             if j == top or not cls[j].prime or j != ctx.rad(n) or not cls[ctx.rad(n)].prime]
    return len(joins), viols


@_check("cor-rad-join-p",
        "rad(N) = rad(N v p I_M) for p-pseudo-primary N with p = sqrt(N:I_M)", BUNDLE)
def _k_rad_join_p(ctx: Ctx):
    joins = _p_joins(ctx)
    viols = [_violation_at(ctx, "p-join", n, p=p, join=j, rad=ctx.rad(n))
             for n, p, j in joins if j == ctx.M.top or ctx.rad(n) != ctx.rad(j)]
    return len(joins), viols


def _rad_attachment_sides(ctx: Ctx, n: int) -> dict:
    r = ctx.rad(n)
    if r == ctx.M.top:
        return {"rad-proper": False,
                "p-pseudo-primary": ctx.cls[n].p_pseudo_primary is not None}
    c = ctx.cls[r]
    rt = int(ctx.res_mm[r, ctx.M.top])
    s = int(ctx.sqrts[rt])
    return {
        "p-pseudo-primary": ctx.cls[n].p_pseudo_primary is not None,
        "rad-p-prime": c.prime and bool(ctx.lflags[rt].prime),
        "rad-p-primary": c.primary and bool(ctx.lflags[s].prime),
        "rad-p-pseudo-primary": c.pseudo_primary and bool(ctx.lflags[s].prime),
    }


@_check("equiv-rad-attachments",
        "N p-pseudo-primary iff rad(N) p-prime iff rad(N) p-primary iff rad(N) "
        "p-pseudo-primary, with the attached primes agreeing", BUNDLE)
def _k_rad_attachments(ctx: Ctx):
    def attachment_mismatch(n, sides):
        if not sides.get("p-pseudo-primary"):
            return None
        rt = int(ctx.res_mm[ctx.rad(n), ctx.M.top])
        primes = {int(ctx.cls[n].p_pseudo_primary), rt, int(ctx.sqrts[rt])}
        if len(primes) == 1:
            return None
        return _violation_at(ctx, "attachment-mismatch", n, primes=sorted(primes))
    return _equivalence(ctx, lambda n: _rad_attachment_sides(ctx, n),
                        agreed=attachment_mismatch)


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
        rd = ctx.rad(n)
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


@_check("lem-saturation-below-rad",
        "S_p(N) <= rad(N) for pseudo-primary N and every prime p above (N:I_M)")
def _k_saturation_below(ctx: Ctx):
    M, viols, count = ctx.M, [], 0
    for n in ctx.flagged("pseudo_primary"):
        for p in variety_l(M, n):
            count += 1
            s = saturation(M, n, p)
            if not M.le(s, ctx.rad(n)):
                viols.append(_violation_at(ctx, "saturation", n, p=p, saturation=s,
                                           rad=ctx.rad(n)))
    return count, viols


@_check("thm-saturation-prime-rad-prime",
        "if N is pseudo-primary and S_p(N) is prime for some prime p above (N:I_M), "
        "then rad(N) is prime")
def _k_saturation_prime(ctx: Ctx):
    M, viols, count = ctx.M, [], 0
    for n in ctx.flagged("pseudo_primary"):
        for p in variety_l(M, n):
            s = saturation(M, n, p)
            if s == M.top or not ctx.cls[s].prime:
                continue
            count += 1
            r = ctx.rad(n)
            if r == M.top or not ctx.cls[r].prime:
                viols.append(_violation_at(ctx, "rad-flag", n, p=p, rad=r, expected="prime"))
    return count, viols


@_check("thm-rad-pseudo-primary-iff-prime",
        "rad(N) is pseudo-primary iff rad(N) is prime, for every proper N")
def _k_rad_pp_iff_prime(ctx: Ctx):
    return _equivalence(ctx, lambda n: {"rad-pseudo-primary": ctx.cls[ctx.rad(n)].pseudo_primary,
                                        "rad-prime": ctx.cls[ctx.rad(n)].prime},
                        guard=lambda n: _rad_is_top(ctx, n))


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
    def residual_shift(n):
        rd = ctx.rad(n)
        for r in ctx.propers_l:
            for x in M.elements():
                if M.le(x, n):
                    continue
                rx = M.act(r, x)
                if not M.le(rx, rd) and int(ctx.res_mm[n, x]) != int(ctx.res_mm[n, rx]):
                    return False
        return True
    return _equivalence(ctx, lambda n: {
        "definition": ctx.cls[n].pseudo_classical_primary,
        "residual-shift": residual_shift(n),
        "compact-definition": _definition_loop(ctx, n, ctx.rad(n))})


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
    for q in ctx.flagged("prime"):
        ks = [k for k in ctx.propers if not M.le(k, q)]
        xs = [x for x in M.elements() if M.le(x, q)]
        for k in ks:
            qk = int(ctx.res_mm[q, k])
            if not ctx.lflags[qk].prime:
                viols.append(_violation_at(ctx, "residual-flag", q, K=k, residual=qk,
                                           expected="prime"))
            for x in xs:
                count += 1
                lhs = int(ctx.sqrts[int(ctx.res_mm[x, k])])
                if not ctx.L.le(lhs, qk):
                    viols.append(_violation_at(ctx, "lattice-leq", q, X=x, K=k, lhs=lhs, rhs=qk))
    return count, viols


@_check("lem-sqrt-residual-rad-bound",
        "sqrt(N:K) <= (rad(N):K) for proper N and proper K not<= N")
def _k_sqrt_residual_rad(ctx: Ctx):
    M, viols, count = ctx.M, [], 0
    for n in ctx.propers:
        rd = ctx.rad(n)
        for k in ctx.propers:
            if M.le(k, n):
                continue
            count += 1
            lhs = int(ctx.sqrts[int(ctx.res_mm[n, k])])
            rhs = int(ctx.res_mm[rd, k])
            if not ctx.L.le(lhs, rhs):
                viols.append(_violation_at(ctx, "lattice-leq", n, K=k, lhs=lhs, rhs=rhs))
    return count, viols


@_check("thm-residual-primary-implies-pcp",
        "if (N:K) is primary in L for every K not<= N (the top element included), "
        "then N is pseudo-classical primary")
def _k_residual_primary_pcp(ctx: Ctx):
    M = ctx.M
    domain = [n for n in ctx.propers
              if all(ctx.lflags[int(ctx.res_mm[n, k])].primary
                     for k in M.elements() if not M.le(k, n))]
    return _implication(ctx, domain, "residuals-primary", "pseudo_classical_primary")


@_check("lem-sqrt-action-bound",
        "sqrt(q) Y <= sqrt(q) I_M <= rad(q I_M) for proper q with q I_M proper", BUNDLE)
def _k_sqrt_action_bound(ctx: Ctx):
    M, viols, count = ctx.M, [], 0
    for q in ctx.propers_l:
        n = M.act(q, M.top)
        if n == M.top:
            continue
        s = int(ctx.sqrts[q])
        stop = M.act(s, M.top)
        rd = ctx.rad(n)
        for y in M.elements():
            count += 1
            if not M.le(M.act(s, y), stop) or not M.le(stop, rd):
                viols.append(_v("action-bound", q=q, Y=y, label=ctx.L.label(q),
                                action=M.act(s, y), top_action=stop, rad=rd))
    return count, viols


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
    for cid in checks:
        if cid not in _REGISTRY:
            raise KeyError(f"unknown check id {cid!r}")
    return [_REGISTRY[cid] for cid in checks]


def instance_hypotheses(M: LatticeModule) -> dict[str, bool]:
    return {name: bool(fn(M)) for name, fn in HYPOTHESES.items()}


def run_check(instance: Instance, check: TheoremCheck, seed: int = 0,
              chain_samples: int = 100,
              hypotheses: dict[str, bool] | None = None) -> CheckResult:
    hyps = hypotheses if hypotheses is not None else instance_hypotheses(instance.module)
    start = time.perf_counter()
    unmet = [h for h in check.hypotheses if not hyps[h]]
    evaluated, violations, reason = 0, [], "hypotheses unmet: " + ", ".join(unmet)
    if not unmet:
        evaluated, violations = check.kernel(Ctx(instance, seed=seed, chain_samples=chain_samples))
        reason = "vacuous quantification" if evaluated == 0 else None
    status = "skipped" if reason else "fail" if violations else "pass"
    return CheckResult(instance=instance.name, check_id=check.id, status=status,
                       evaluated=int(evaluated), violations=violations,
                       skip_reason=reason, dashed=check.dashed,
                       seconds=time.perf_counter() - start)


def run_suite(instances, checks="all", seed: int = 0,
              chain_samples: int = 100) -> TheoremReport:
    """Evaluate the selected checks on every instance.

    Results are ordered by (instance name, check id) regardless of evaluation
    order, so reports are deterministic for fixed inputs and seed.
    """
    selected = _select(checks)
    results = []
    info = {}
    for instance in instances:
        hyps = instance_hypotheses(instance.module)
        info[instance.name] = {
            "fingerprint": instance.fingerprint,
            "lattice_elements": instance.lattice.element_count,
            "module_elements": instance.module.element_count,
            "hypotheses": {name + (" (auto)" if name in AUTO_HYPOTHESES else ""): value
                           for name, value in hyps.items()},
        }
        for check in selected:
            results.append(run_check(instance, check, seed=seed,
                                     chain_samples=chain_samples, hypotheses=hyps))
    results.sort(key=lambda r: (r.instance, r.check_id))
    return TheoremReport(results=results, instances=info, seed=seed)


def check_implication_figure(instance: Instance, seed: int = 0) -> TheoremReport:
    """Evaluate just the implication-figure check on one instance."""
    return run_suite([instance], checks=["fig1-implications"], seed=seed)


def replay_violation(instance: Instance, check_id: str, violation: dict,
                     seed: int = 0) -> bool:
    """Re-derive a reported violation from scratch.

    Flag-implication witnesses whose antecedent is made of classifier flags
    are replayed directly against the classifiers; anything else re-runs the
    check kernel and matches the violation.
    """
    antecedent = violation.get("antecedent", "").split("+")
    if violation.get("kind") == "flag-implication" and all(f in FLAG_NAMES for f in antecedent):
        cls = classify_all(instance.module)
        element = violation["element"]
        if element not in cls:
            return False
        c = cls[element]
        return all(c.flag(f) for f in antecedent) and not c.flag(violation["consequent"])
    check = _REGISTRY[check_id]
    result = run_check(instance, check, seed=seed)
    return violation in result.violations
