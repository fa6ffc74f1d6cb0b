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
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from functools import cached_property
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
        chains: list[tuple[int, ...]] = []
        for a in ids:
            for b in ids:
                if a != b and M.le(a, b):
                    chains.append((a, b))
        for a in ids:
            for b in ids:
                if a == b or not M.le(a, b):
                    continue
                for c in ids:
                    if c not in (a, b) and M.le(b, c):
                        chains.append((a, b, c))
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

    def mlabel(self, n: int) -> str:
        return self.M.label(n)

    def llabel(self, a: int) -> str:
        return self.L.label(a)


def _v(kind: str, **detail) -> dict:
    out = {"kind": kind}
    for key, value in detail.items():
        if isinstance(value, bool) or value is None or isinstance(value, str):
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [int(x) for x in value]
        elif isinstance(value, dict):
            out[key] = value
        else:
            out[key] = int(value)
    return out


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


def _arrow_violation(ctx: Ctx, n: int, src: str, dst: str, dashed: bool) -> dict:
    return _v("flag-implication", element=n, label=ctx.mlabel(n),
              antecedent=src, consequent=dst, dashed=dashed)


@_check("fig1-implications",
        "all nine implication arrows between element classes hold for every proper N")
def _k_fig1(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        c = ctx.cls[n]
        for src, dst, dashed in ARROWS:
            if c.flag(src) and not c.flag(dst):
                viols.append(_arrow_violation(ctx, n, src, dst, dashed))
    return len(ctx.propers), viols


def _register_arrows():
    for src, dst, dashed in ARROWS:
        cid = f"fig1-{src}-implies-{dst}".replace("_", "-")
        desc = f"every {src.replace('_', ' ')} element is {dst.replace('_', ' ')}"

        def kernel(ctx: Ctx, _s=src, _d=dst, _dash=dashed):
            domain = ctx.flagged(_s)
            viols = [_arrow_violation(ctx, n, _s, _d, _dash)
                     for n in domain if not ctx.cls[n].flag(_d)]
            return len(domain), viols

        _REGISTRY[cid] = TheoremCheck(id=cid, description=desc, hypotheses=(),
                                      kernel=kernel, dashed=dashed)


_register_arrows()


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
                                label=f"{ctx.llabel(a)}, {ctx.llabel(b)}"))
    return L.element_count ** 2, viols


@_check("thm-prime-rad-fixed", "rad(N) = N for every prime element N")
def _k_prime_rad_fixed(ctx: Ctx):
    domain = ctx.flagged("prime")
    viols = [_v("rad-value", element=n, label=ctx.mlabel(n), rad=ctx.rad(n))
             for n in domain if ctx.rad(n) != n]
    return len(domain), viols


@_check("thm-prime-residual-prime", "(N:I_M) is a prime element of L for every prime N")
def _k_prime_residual_prime(ctx: Ctx):
    domain = ctx.flagged("prime")
    viols = [_v("residual-flag", element=n, label=ctx.mlabel(n), residual=ctx.res_top(n))
             for n in domain if not ctx.lflags[ctx.res_top(n)].prime]
    return len(domain), viols


@_check("thm-radical-primary-pseudo-primary",
        "every radical element that is primary is pseudo-primary")
def _k_radical_primary(ctx: Ctx):
    domain = [n for n in ctx.propers
              if ctx.cls[n].radical_element and ctx.cls[n].primary]
    viols = [_v("flag-implication", element=n, label=ctx.mlabel(n),
                antecedent="radical_element+primary", consequent="pseudo_primary",
                dashed=False)
             for n in domain if not ctx.cls[n].pseudo_primary]
    return len(domain), viols


@_check("lem-sqrt-residual-below-rad-residual",
        "sqrt(N:I_M) <= (rad(N):I_M) for every proper N")
def _k_sqrt_res_below(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        s = ctx.sqrt_res_top(n)
        r = int(ctx.res_mm[ctx.rad(n), ctx.M.top])
        if not ctx.L.le(s, r):
            viols.append(_v("lattice-leq", element=n, label=ctx.mlabel(n), lhs=s, rhs=r))
    return len(ctx.propers), viols


@_check("thm-semiprime-iff-residual-prime",
        "N is semiprime iff (N:I_M) is a prime element of L")
def _k_semiprime_iff(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        sides = {"semiprime": ctx.cls[n].semiprime,
                 "residual-prime": bool(ctx.lflags[ctx.res_top(n)].prime)}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("cor-prime-iff-primary-classical-prime",
        "N is prime iff N is both primary and classical prime")
def _k_prime_iff_primary_cp(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        c = ctx.cls[n]
        sides = {"prime": c.prime, "primary-and-classical-prime": c.primary and c.classical_prime}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("cor-maximal-classical-prime", "every maximal element of M is classical prime")
def _k_maximal_cp(ctx: Ctx):
    domain = ctx.flagged("maximal")
    viols = [_arrow_violation(ctx, n, "maximal", "classical_prime", False)
             for n in domain if not ctx.cls[n].classical_prime]
    return len(domain), viols


@_check("prop-rad-idempotent", "rad(rad(N)) = rad(N) for every proper N")
def _k_rad_idempotent(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        r = ctx.rad(n)
        if r == ctx.M.top or ctx.rad(r) != r:
            viols.append(_v("rad-value", element=n, label=ctx.mlabel(n), rad=r))
    return len(ctx.propers), viols


@_check("prop-variety-nonempty",
        "every proper N lies below a prime element (rad(N) is proper)")
def _k_variety_nonempty(ctx: Ctx):
    viols = [_v("rad-value", element=n, label=ctx.mlabel(n), rad=ctx.rad(n))
             for n in ctx.propers if ctx.rad(n) == ctx.M.top]
    return len(ctx.propers), viols


# ---------------------------------------------------------------------------
# classical prime: properties and characterizations


@_check("thm-classical-prime-residuals-prime",
        "N is classical prime iff (N:K) is prime in L for every K not<= N")
def _k_cp_residuals(ctx: Ctx):
    M, viols = ctx.M, []
    for n in ctx.propers:
        outside = [k for k in M.elements() if not M.le(k, n)]
        bad = next((k for k in outside if not ctx.lflags[int(ctx.res_mm[n, k])].prime), None)
        sides = {"classical-prime": ctx.cls[n].classical_prime,
                 "residuals-prime": bad is None}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides,
                            witness=(bad,) if bad is not None else None))
    return len(ctx.propers), viols


@_check("thm-classical-prime-residual-top-prime",
        "(N:I_M) is prime in L for every classical prime N")
def _k_cp_residual_top(ctx: Ctx):
    domain = ctx.flagged("classical_prime")
    viols = [_v("residual-flag", element=n, label=ctx.mlabel(n), residual=ctx.res_top(n))
             for n in domain if not ctx.lflags[ctx.res_top(n)].prime]
    return len(domain), viols


@_check("thm-classical-prime-residual-shift",
        "(N:K) = (N:rK) for classical prime N and proper r, K with rK not<= N")
def _k_cp_residual_shift(ctx: Ctx):
    M, viols = ctx.M, []
    domain = ctx.flagged("classical_prime")
    for n in domain:
        for r in ctx.propers_l:
            for k in ctx.propers:
                rk = M.act(r, k)
                if M.le(rk, n):
                    continue
                if int(ctx.res_mm[n, k]) != int(ctx.res_mm[n, rk]):
                    viols.append(_v("residual-equality", element=n, label=ctx.mlabel(n),
                                    r=r, K=k,
                                    lhs=int(ctx.res_mm[n, k]), rhs=int(ctx.res_mm[n, rk])))
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
                viols.append(_v("residual-flag", element=n, label=ctx.mlabel(n), residual=r))
        for i, a in enumerate(residuals):
            for b in residuals[i + 1:]:
                if not (ctx.L.le(a, b) or ctx.L.le(b, a)):
                    viols.append(_v("not-a-chain", element=n, label=ctx.mlabel(n), pair=(a, b)))
    return len(domain), viols


def _cp_definition_loop(ctx: Ctx, n: int) -> bool:
    """Plain-loop evaluation of the classical prime condition over all triples."""
    M, L = ctx.M, ctx.L
    for a in L.elements():
        for b in L.elements():
            ab = L.mul(a, b)
            for k in M.elements():
                if M.le(M.act(ab, k), n) and not M.le(M.act(a, k), n) \
                        and not M.le(M.act(b, k), n):
                    return False
    return True


@_check("equiv-classical-prime-cg",
        "classical prime iff (N:ab) = (N:a) or (N:ab) = (N:b) for all a, b "
        "iff the definition quantified over compact elements", CG)
def _k_cp_cg(ctx: Ctx):
    L, viols = ctx.L, []
    for n in ctx.propers:
        residual_split = all(
            int(ctx.res_ml[n, L.mul(a, b)]) in (int(ctx.res_ml[n, a]), int(ctx.res_ml[n, b]))
            for a in L.elements() for b in L.elements())
        sides = {"definition": ctx.cls[n].classical_prime,
                 "residual-split": residual_split,
                 "compact-definition": _cp_definition_loop(ctx, n)}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("thm-join-meet-condition-classical-prime",
        "if (N:X) != (N:Y) always forces N = (N v X) ^ (N v Y), then N is classical prime")
def _k_join_meet_condition(ctx: Ctx):
    M = ctx.M
    domain = []
    for n in ctx.propers:
        hyp = all(
            int(ctx.res_mm[n, x]) == int(ctx.res_mm[n, y])
            or M.meet(M.join(n, x), M.join(n, y)) == n
            for x in M.elements() for y in M.elements())
        if hyp:
            domain.append(n)
    viols = [_v("flag-implication", element=n, label=ctx.mlabel(n),
                antecedent="join-meet-condition", consequent="classical_prime", dashed=False)
             for n in domain if not ctx.cls[n].classical_prime]
    return len(domain), viols


@_check("chain-classical-prime",
        "meets and joins of chains of classical prime elements are classical prime")
def _k_chain_cp(ctx: Ctx):
    return _chain_kernel(ctx, "classical_prime")


@_check("equiv-classical-prime-mult",
        "classical prime iff (N:B) = (N:I_M) for proper B > N iff (N:X) = (N:I_M) "
        "for X not<= N iff N = (N:a) for proper a > (N:I_M)", MULT)
def _k_cp_mult(ctx: Ctx):
    M, L, viols = ctx.M, ctx.L, []
    for n in ctx.propers:
        rt = ctx.res_top(n)
        above = all(int(ctx.res_mm[n, b]) == rt
                    for b in ctx.propers if M.le(n, b) and b != n)
        outside = all(int(ctx.res_mm[n, x]) == rt
                      for x in M.elements() if not M.le(x, n))
        residual_fixed = all(int(ctx.res_ml[n, a]) == n
                             for a in ctx.propers_l if L.le(rt, a) and a != rt)
        sides = {"definition": ctx.cls[n].classical_prime, "residual-above": above,
                 "residual-outside": outside, "residual-fixed": residual_fixed}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("cor-classical-prime-zero-residuals",
        "(O_M:B) = 0 for every proper B != O_M when O_M is classical prime",
        ("faithful", "multiplication-module"))
def _k_cp_zero_residuals(ctx: Ctx):
    M = ctx.M
    bottom = M.bottom
    if bottom == M.top or not ctx.cls[bottom].classical_prime:
        return 0, []
    viols = []
    count = 0
    for b in ctx.propers:
        if b == bottom:
            continue
        count += 1
        if int(ctx.res_mm[bottom, b]) != ctx.L.bottom:
            viols.append(_v("residual-flag", element=bottom, label=ctx.mlabel(bottom),
                            B=b, residual=int(ctx.res_mm[bottom, b])))
    return count, viols


@_check("equiv-classical-prime-residual-product",
        "classical prime iff (A:K)(B:K) <= (N:K) forces (A:K) <= (N:K) or (B:K) <= (N:K) "
        "for all A, B, K (the top element included)", MULT)
def _k_cp_residual_product(ctx: Ctx):
    # A, B, K must range over the whole carrier: restricting them to proper
    # elements makes the criterion strictly weaker than the definition
    # (zn-self-12, element (6), with K = I_M separates the two).
    L, M, viols = ctx.L, ctx.M, []
    for n in ctx.propers:
        ok = True
        for k in M.elements():
            nk = int(ctx.res_mm[n, k])
            for a in M.elements():
                ak = int(ctx.res_mm[a, k])
                for b in M.elements():
                    bk = int(ctx.res_mm[b, k])
                    if L.le(L.mul(ak, bk), nk) and not L.le(ak, nk) and not L.le(bk, nk):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        sides = {"definition": ctx.cls[n].classical_prime, "residual-product": ok}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("thm-prime-iff-classical-prime",
        "N is prime iff N is classical prime", MULT)
def _k_prime_iff_cp(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        sides = {"prime": ctx.cls[n].prime, "classical-prime": ctx.cls[n].classical_prime}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("cor-prime-4way",
        "prime iff classical prime iff semiprime iff (N:I_M) prime in L", MULT)
def _k_prime_4way(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        c = ctx.cls[n]
        sides = {"prime": c.prime, "classical-prime": c.classical_prime,
                 "semiprime": c.semiprime,
                 "residual-prime": bool(ctx.lflags[ctx.res_top(n)].prime)}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


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
    M, L, viols = ctx.M, ctx.L, []
    for n in ctx.propers:
        rt, rd = ctx.res_top(n), ctx.rad(n)
        residual_fixed = all(int(ctx.res_mm[n, x]) == rt
                             for x in ctx.propers if not M.le(x, rd))
        residual_bound = all(M.le(int(ctx.res_ml[n, a]), rd)
                             for a in ctx.propers_l if L.le(rt, a) and a != rt)
        sides = {"definition": ctx.cls[n].pseudo_primary,
                 "residual-fixed": residual_fixed,
                 "residual-bound": residual_bound,
                 "compact-definition": _pp_definition_loop(ctx, n)}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("chain-pseudo-primary",
        "meets and joins of chains of pseudo-primary elements are pseudo-primary", BUNDLE)
def _k_chain_pp(ctx: Ctx):
    return _chain_kernel(ctx, "pseudo_primary")


@_check("lem-rad-meet",
        "rad(A ^ B) = rad(A) ^ rad(B) for proper A, B, plus sampled larger families",
        BUNDLE)
def _k_rad_meet(ctx: Ctx):
    M, viols = ctx.M, []
    count = 0
    for a in ctx.propers:
        for b in ctx.propers:
            count += 1
            if ctx.rad(M.meet(a, b)) != M.meet(ctx.rad(a), ctx.rad(b)):
                viols.append(_v("rad-meet", pair=(a, b),
                                label=f"{ctx.mlabel(a)}, {ctx.mlabel(b)}"))
    rng = ctx.rng("lem-rad-meet")
    for _ in range(50):
        if len(ctx.propers) < 2:
            break
        family = rng.sample(ctx.propers, rng.randint(2, len(ctx.propers)))
        count += 1
        lhs = ctx.rad(M.meet_all(family))
        rhs = M.meet_all(ctx.rad(x) for x in family)
        if lhs != rhs:
            viols.append(_v("rad-meet", family=sorted(family), lhs=lhs, rhs=rhs,
                            label=", ".join(ctx.mlabel(x) for x in sorted(family))))
    return count, viols


@_check("thm-rad-eq", "(rad(N):I_M) = sqrt(N:I_M) for every proper N", BUNDLE)
def _k_rad_eq(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        lhs = int(ctx.res_mm[ctx.rad(n), ctx.M.top])
        rhs = ctx.sqrt_res_top(n)
        if lhs != rhs:
            viols.append(_v("lattice-equality", element=n, label=ctx.mlabel(n),
                            lhs=lhs, rhs=rhs))
    return len(ctx.propers), viols


@_check("thm-rad-action-formula",
        "rad(N) = sqrt(N:I_M) I_M for every proper N", BUNDLE)
def _k_rad_action(ctx: Ctx):
    M, viols = ctx.M, []
    for n in ctx.propers:
        want = M.act(ctx.sqrt_res_top(n), M.top)
        if ctx.rad(n) != want:
            viols.append(_v("rad-value", element=n, label=ctx.mlabel(n),
                            rad=ctx.rad(n), expected=want))
    return len(ctx.propers), viols


@_check("lem-prime-iff-residual-prime",
        "N is prime iff (N:I_M) is prime in L", MULT)
def _k_prime_iff_residual(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        sides = {"prime": ctx.cls[n].prime,
                 "residual-prime": bool(ctx.lflags[ctx.res_top(n)].prime)}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("thm-proper-action-proper",
        "q I_M is proper for every proper q in L", BUNDLE)
def _k_proper_action(ctx: Ctx):
    M, viols = ctx.M, []
    for q in ctx.propers_l:
        if M.act(q, M.top) == M.top:
            viols.append(_v("action-proper", q=q, label=ctx.llabel(q)))
    return len(ctx.propers_l), viols


def _action_of(ctx: Ctx, q: int) -> int:
    return ctx.M.act(q, ctx.M.top)


def _primary_action_kernel(ctx: Ctx, flag: str):
    domain = [q for q in ctx.propers_l if ctx.lflags[q].primary]
    viols = []
    for q in domain:
        n = _action_of(ctx, q)
        if n == ctx.M.top:
            viols.append(_v("action-proper", q=q, label=ctx.llabel(q)))
        elif not ctx.cls[n].flag(flag):
            viols.append(_v("action-flag", q=q, element=n, label=ctx.mlabel(n),
                            expected=flag))
    return len(domain), viols


@_check("lem-primary-action-primary",
        "q I_M is a primary element of M for every proper primary q in L", BUNDLE)
def _k_primary_action_primary(ctx: Ctx):
    return _primary_action_kernel(ctx, "primary")


@_check("lem-primary-action-pseudo-primary",
        "q I_M is a pseudo-primary element of M for every proper primary q in L", BUNDLE)
def _k_primary_action_pp(ctx: Ctx):
    return _primary_action_kernel(ctx, "pseudo_primary")


@_check("lem-primary-action-pseudo-classical-primary",
        "q I_M is a pseudo-classical primary element of M for every proper primary q in L",
        BUNDLE)
def _k_primary_action_pcp(ctx: Ctx):
    return _primary_action_kernel(ctx, "pseudo_classical_primary")


@_check("lem-prime-action-prime",
        "q I_M is a prime element of M for every proper prime q in L", BUNDLE)
def _k_prime_action_prime(ctx: Ctx):
    domain = [q for q in ctx.propers_l if ctx.lflags[q].prime]
    viols = []
    for q in domain:
        n = _action_of(ctx, q)
        if n == ctx.M.top:
            viols.append(_v("action-proper", q=q, label=ctx.llabel(q)))
        elif not ctx.cls[n].prime:
            viols.append(_v("action-flag", q=q, element=n, label=ctx.mlabel(n),
                            expected="prime"))
    return len(domain), viols


def _exists_primary_generator(ctx: Ctx, n: int) -> bool:
    return any(ctx.lflags[q].primary and _action_of(ctx, q) == n
               for q in ctx.L.elements())


@_check("equiv-pseudo-primary-4way",
        "pseudo-primary iff (N:I_M) primary in L iff N = q I_M for some primary q "
        "iff primary", BUNDLE)
def _k_pp_4way(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        c = ctx.cls[n]
        sides = {"pseudo-primary": c.pseudo_primary,
                 "residual-primary": bool(ctx.lflags[ctx.res_top(n)].primary),
                 "primary-generator": _exists_primary_generator(ctx, n),
                 "primary": c.primary}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("cor-pseudo-primary-sqrt-prime",
        "sqrt(N:I_M) is prime in L for every pseudo-primary N", BUNDLE)
def _k_pp_sqrt_prime(ctx: Ctx):
    domain = ctx.flagged("pseudo_primary")
    viols = [_v("residual-flag", element=n, label=ctx.mlabel(n),
                residual=ctx.sqrt_res_top(n))
             for n in domain if not ctx.lflags[ctx.sqrt_res_top(n)].prime]
    return len(domain), viols


@_check("thm-pseudo-primary-rad-prime",
        "rad(N) is a prime element of M for every pseudo-primary N", BUNDLE)
def _k_pp_rad_prime(ctx: Ctx):
    domain = ctx.flagged("pseudo_primary")
    viols = []
    for n in domain:
        r = ctx.rad(n)
        if r == ctx.M.top or not ctx.cls[r].prime:
            viols.append(_v("rad-flag", element=n, label=ctx.mlabel(n), rad=r,
                            expected="prime"))
    return len(domain), viols


@_check("thm-pseudo-primary-residual-prime-converse",
        "a pseudo-primary N with (N:I_M) prime in L is prime", MULT)
def _k_pp_converse(ctx: Ctx):
    domain = [n for n in ctx.flagged("pseudo_primary")
              if ctx.lflags[ctx.res_top(n)].prime]
    viols = [_arrow_violation(ctx, n, "pseudo_primary", "prime", False)
             for n in domain if not ctx.cls[n].prime]
    return len(domain), viols


@_check("thm-p-pseudo-primary-join",
        "N v p I_M equals rad(N) and is prime, for p-pseudo-primary N with p = sqrt(N:I_M)",
        BUNDLE)
def _k_ppp_join(ctx: Ctx):
    M, viols = ctx.M, []
    domain = [n for n in ctx.propers if ctx.cls[n].p_pseudo_primary is not None]
    for n in domain:
        p = ctx.cls[n].p_pseudo_primary
        j = M.join(n, M.act(p, M.top))
        r = ctx.rad(n)
        if j == M.top or not ctx.cls[j].prime or j != r or not ctx.cls[r].prime:
            viols.append(_v("p-join", element=n, label=ctx.mlabel(n), p=p, join=j, rad=r))
    return len(domain), viols


@_check("cor-rad-join-p",
        "rad(N) = rad(N v p I_M) for p-pseudo-primary N with p = sqrt(N:I_M)", BUNDLE)
def _k_rad_join_p(ctx: Ctx):
    M, viols = ctx.M, []
    domain = [n for n in ctx.propers if ctx.cls[n].p_pseudo_primary is not None]
    for n in domain:
        p = ctx.cls[n].p_pseudo_primary
        j = M.join(n, M.act(p, M.top))
        if j == M.top or ctx.rad(n) != ctx.rad(j):
            viols.append(_v("p-join", element=n, label=ctx.mlabel(n), p=p, join=j,
                            rad=ctx.rad(n)))
    return len(domain), viols


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
    viols = []
    for n in ctx.propers:
        sides = _rad_attachment_sides(ctx, n)
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
            continue
        if sides.get("p-pseudo-primary"):
            r = ctx.rad(n)
            ps = {int(ctx.cls[n].p_pseudo_primary),
                  int(ctx.res_mm[r, ctx.M.top]),
                  int(ctx.sqrts[int(ctx.res_mm[r, ctx.M.top])])}
            if len(ps) > 1:
                viols.append(_v("attachment-mismatch", element=n, label=ctx.mlabel(n),
                                primes=sorted(ps)))
    return len(ctx.propers), viols


@_check("cor-rad-attachments-pseudo-primary",
        "for pseudo-primary N: rad(N) p-prime iff p-primary iff p-pseudo-primary", BUNDLE)
def _k_rad_attachments_pp(ctx: Ctx):
    domain = ctx.flagged("pseudo_primary")
    viols = []
    for n in domain:
        sides = _rad_attachment_sides(ctx, n)
        sides.pop("p-pseudo-primary", None)
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(domain), viols


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
                viols.append(_v("residual-flag", element=n, label=ctx.mlabel(n), K=k,
                                residual=r, expected="primary"))
            sqrts.add(int(ctx.sqrts[r]))
        sq = sorted(sqrts)
        for i, a in enumerate(sq):
            if not ctx.lflags[a].prime:
                viols.append(_v("residual-flag", element=n, label=ctx.mlabel(n), residual=a,
                                expected="prime"))
            for b in sq[i + 1:]:
                if not (ctx.L.le(a, b) or ctx.L.le(b, a)):
                    viols.append(_v("not-a-chain", element=n, label=ctx.mlabel(n), pair=(a, b)))
    return len(domain), viols


# ---------------------------------------------------------------------------
# saturation


@_check("lem-saturation-below-rad",
        "S_p(N) <= rad(N) for pseudo-primary N and every prime p above (N:I_M)")
def _k_saturation_below(ctx: Ctx):
    M, viols = ctx.M, []
    count = 0
    for n in ctx.flagged("pseudo_primary"):
        for p in variety_l(M, n):
            count += 1
            s = saturation(M, n, p)
            if not M.le(s, ctx.rad(n)):
                viols.append(_v("saturation", element=n, label=ctx.mlabel(n), p=p,
                                saturation=s, rad=ctx.rad(n)))
    return count, viols


@_check("thm-saturation-prime-rad-prime",
        "if N is pseudo-primary and S_p(N) is prime for some prime p above (N:I_M), "
        "then rad(N) is prime")
def _k_saturation_prime(ctx: Ctx):
    M, viols = ctx.M, []
    count = 0
    for n in ctx.flagged("pseudo_primary"):
        for p in variety_l(M, n):
            s = saturation(M, n, p)
            if s == M.top or not ctx.cls[s].prime:
                continue
            count += 1
            r = ctx.rad(n)
            if r == M.top or not ctx.cls[r].prime:
                viols.append(_v("rad-flag", element=n, label=ctx.mlabel(n), p=p, rad=r,
                                expected="prime"))
    return count, viols


@_check("thm-rad-pseudo-primary-iff-prime",
        "rad(N) is pseudo-primary iff rad(N) is prime, for every proper N")
def _k_rad_pp_iff_prime(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        r = ctx.rad(n)
        if r == ctx.M.top:
            viols.append(_v("rad-value", element=n, label=ctx.mlabel(n), rad=r))
            continue
        sides = {"rad-pseudo-primary": ctx.cls[r].pseudo_primary,
                 "rad-prime": ctx.cls[r].prime}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


# ---------------------------------------------------------------------------
# pseudo-classical primary


def _pcp_definition_loop(ctx: Ctx, n: int) -> bool:
    M, L = ctx.M, ctx.L
    rd = ctx.rad(n)
    for a in L.elements():
        for b in L.elements():
            ab = L.mul(a, b)
            for k in M.elements():
                if M.le(M.act(ab, k), n) and not M.le(M.act(a, k), n) \
                        and not M.le(M.act(b, k), rd):
                    return False
    return True


@_check("equiv-pseudo-classical-primary-cg",
        "pseudo-classical primary iff (N:X) = (N:rX) for proper r and any X with "
        "X not<= N and rX not<= rad(N), iff the definition quantified over "
        "compact elements", CG)
def _k_pcp_cg(ctx: Ctx):
    # X must range over the whole carrier: with X restricted to proper
    # elements the shift criterion is strictly weaker than the definition
    # (zn-self-12, element (6), with X = I_M separates the two).
    M, viols = ctx.M, []
    for n in ctx.propers:
        rd = ctx.rad(n)
        shift = True
        for r in ctx.propers_l:
            for x in M.elements():
                if M.le(x, n):
                    continue
                rx = M.act(r, x)
                if M.le(rx, rd):
                    continue
                if int(ctx.res_mm[n, x]) != int(ctx.res_mm[n, rx]):
                    shift = False
                    break
            if not shift:
                break
        sides = {"definition": ctx.cls[n].pseudo_classical_primary,
                 "residual-shift": shift,
                 "compact-definition": _pcp_definition_loop(ctx, n)}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("equiv-pseudo-classical-primary-4way",
        "pseudo-classical primary iff (N:I_M) primary in L iff N = q I_M for some "
        "primary q iff primary", BUNDLE)
def _k_pcp_4way(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        c = ctx.cls[n]
        sides = {"pseudo-classical-primary": c.pseudo_classical_primary,
                 "residual-primary": bool(ctx.lflags[ctx.res_top(n)].primary),
                 "primary-generator": _exists_primary_generator(ctx, n),
                 "primary": c.primary}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("cor-pseudo-classical-primary-5way",
        "pseudo-primary iff pseudo-classical primary iff (N:I_M) primary iff "
        "N = q I_M for primary q iff primary", BUNDLE)
def _k_pcp_5way(ctx: Ctx):
    viols = []
    for n in ctx.propers:
        c = ctx.cls[n]
        sides = {"pseudo-primary": c.pseudo_primary,
                 "pseudo-classical-primary": c.pseudo_classical_primary,
                 "residual-primary": bool(ctx.lflags[ctx.res_top(n)].primary),
                 "primary-generator": _exists_primary_generator(ctx, n),
                 "primary": c.primary}
        if len(set(sides.values())) > 1:
            viols.append(_v("equivalence", element=n, label=ctx.mlabel(n), sides=sides))
    return len(ctx.propers), viols


@_check("thm-pseudo-classical-primary-rad-prime",
        "rad(N) is a prime element of M for every pseudo-classical primary N", BUNDLE)
def _k_pcp_rad_prime(ctx: Ctx):
    domain = ctx.flagged("pseudo_classical_primary")
    viols = []
    for n in domain:
        r = ctx.rad(n)
        if r == ctx.M.top or not ctx.cls[r].prime:
            viols.append(_v("rad-flag", element=n, label=ctx.mlabel(n), rad=r,
                            expected="prime"))
    return len(domain), viols


@_check("chain-pseudo-classical-primary",
        "meets and joins of chains of pseudo-classical primary elements are "
        "pseudo-classical primary", BUNDLE)
def _k_chain_pcp(ctx: Ctx):
    return _chain_kernel(ctx, "pseudo_classical_primary")


@_check("lem-prime-residual-bound",
        "(Q:K) is prime and sqrt(X:K) <= (Q:K), for prime Q, X <= Q and proper K not<= Q")
def _k_prime_residual_bound(ctx: Ctx):
    M, viols = ctx.M, []
    count = 0
    for q in ctx.flagged("prime"):
        ks = [k for k in ctx.propers if not M.le(k, q)]
        xs = [x for x in M.elements() if M.le(x, q)]
        for k in ks:
            qk = int(ctx.res_mm[q, k])
            if not ctx.lflags[qk].prime:
                viols.append(_v("residual-flag", element=q, label=ctx.mlabel(q), K=k,
                                residual=qk, expected="prime"))
            for x in xs:
                count += 1
                if not ctx.L.le(int(ctx.sqrts[int(ctx.res_mm[x, k])]), qk):
                    viols.append(_v("lattice-leq", element=q, label=ctx.mlabel(q), X=x, K=k,
                                    lhs=int(ctx.sqrts[int(ctx.res_mm[x, k])]), rhs=qk))
    return count, viols


@_check("lem-sqrt-residual-rad-bound",
        "sqrt(N:K) <= (rad(N):K) for proper N and proper K not<= N")
def _k_sqrt_residual_rad(ctx: Ctx):
    M, viols = ctx.M, []
    count = 0
    for n in ctx.propers:
        rd = ctx.rad(n)
        for k in ctx.propers:
            if M.le(k, n):
                continue
            count += 1
            lhs = int(ctx.sqrts[int(ctx.res_mm[n, k])])
            rhs = int(ctx.res_mm[rd, k])
            if not ctx.L.le(lhs, rhs):
                viols.append(_v("lattice-leq", element=n, label=ctx.mlabel(n), K=k,
                                lhs=lhs, rhs=rhs))
    return count, viols


@_check("thm-residual-primary-implies-pcp",
        "if (N:K) is primary in L for every K not<= N (the top element included), "
        "then N is pseudo-classical primary")
def _k_residual_primary_pcp(ctx: Ctx):
    M = ctx.M
    domain = [n for n in ctx.propers
              if all(ctx.lflags[int(ctx.res_mm[n, k])].primary
                     for k in M.elements() if not M.le(k, n))]
    viols = [_v("flag-implication", element=n, label=ctx.mlabel(n),
                antecedent="residuals-primary", consequent="pseudo_classical_primary",
                dashed=False)
             for n in domain if not ctx.cls[n].pseudo_classical_primary]
    return len(domain), viols


@_check("lem-sqrt-action-bound",
        "sqrt(q) Y <= sqrt(q) I_M <= rad(q I_M) for proper q with q I_M proper", BUNDLE)
def _k_sqrt_action_bound(ctx: Ctx):
    M, viols = ctx.M, []
    count = 0
    for q in ctx.propers_l:
        n = _action_of(ctx, q)
        if n == M.top:
            continue
        s = int(ctx.sqrts[q])
        stop = M.act(s, M.top)
        rd = ctx.rad(n)
        for y in M.elements():
            count += 1
            if not M.le(M.act(s, y), stop) or not M.le(stop, rd):
                viols.append(_v("action-bound", q=q, Y=y, label=ctx.llabel(q),
                                action=M.act(s, y), top_action=stop, rad=rd))
    return count, viols


def _chain_kernel(ctx: Ctx, flag: str):
    chains = ctx.chains_of(flag, f"chain-{flag}")
    viols = []
    for chain in chains:
        for which, value in (("meet", ctx.M.meet_all(chain)), ("join", ctx.M.join_all(chain))):
            if value == ctx.M.top or not ctx.cls[value].flag(flag):
                viols.append(_v("chain", chain=chain, bound=which, value=value,
                                flag=flag,
                                label=", ".join(ctx.mlabel(x) for x in chain)))
    return len(chains), viols


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
    out = []
    for cid in checks:
        if cid not in _REGISTRY:
            raise KeyError(f"unknown check id {cid!r}")
        out.append(_REGISTRY[cid])
    return out


def instance_hypotheses(M: LatticeModule) -> dict[str, bool]:
    return {name: bool(fn(M)) for name, fn in HYPOTHESES.items()}


def run_check(instance: Instance, check: TheoremCheck, seed: int = 0,
              chain_samples: int = 100,
              hypotheses: dict[str, bool] | None = None) -> CheckResult:
    hyps = hypotheses if hypotheses is not None else instance_hypotheses(instance.module)
    start = time.perf_counter()
    unmet = [h for h in check.hypotheses if not hyps[h]]
    if unmet:
        return CheckResult(instance=instance.name, check_id=check.id, status="skipped",
                           evaluated=0, violations=[],
                           skip_reason="hypotheses unmet: " + ", ".join(unmet),
                           dashed=check.dashed,
                           seconds=time.perf_counter() - start)
    ctx = Ctx(instance, seed=seed, chain_samples=chain_samples)
    evaluated, violations = check.kernel(ctx)
    if evaluated == 0:
        status, reason = "skipped", "vacuous quantification"
    elif violations:
        status, reason = "fail", None
    else:
        status, reason = "pass", None
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
