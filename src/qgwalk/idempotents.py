"""Idempotent states on KP_n and their Fourier characterizations.

Four families: the Haar state; h_Gamma attached to a subgroup Gamma of
Z_n x Z_n (zero matrix part); h_(q,l) attached to a divisor q > 1 of n
and a residue l, supported on Z_n x qZ_n with a diagonal matrix part;
and h_(p,q,l,tau) with pq = n, p > 1, supported on pZ_n x qZ_n with a
sign-twisted matrix part.  The sign vector tau lives on qZ_n and must
have a nonnegative discrete Fourier transform, which is exactly the
condition for the matrix part to be positive semi-definite; the only
solutions are the constant vector and, for even length, the alternating
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    AlgebraShape,
    haar_integral,
    is_positive,
    unit,
)
from .sekine import (
    RHO_MINUS,
    RHO_PLUS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    FourierProfile,
    IrrepLabel,
    _one_dim_values,
    fourier_profile,
    genuine_x_range,
    trivial_label,
)

# The largest n that ``enumerate_central_idempotents`` accepts: the enumeration
# is in closed form, and the tests check it against the dense filter up to here.
ENUMERATION_CAP = 24


class InvalidSpecError(ValueError):
    """Parameters do not describe an idempotent state."""


class AmbiguousBoundaryError(RuntimeError):
    """A walk's limit cannot be named: a ratio sits too close to the unit
    circle to classify reliably, or the labels at 1 name no idempotent state."""


@dataclass(frozen=True)
class HaarSpec:
    def describe(self) -> dict:
        return {"type": "haar"}


@dataclass(frozen=True)
class HGammaSpec:
    """h_Gamma for a subgroup Gamma of Z_n x Z_n, stored by its members."""

    members: frozenset[tuple[int, int]]

    def describe(self) -> dict:
        return {"type": "h_gamma", "gamma": sorted(self.members)}


@dataclass(frozen=True)
class HGammaLSpec:
    q: int
    l: int

    def describe(self) -> dict:
        return {"type": "h_gamma_l", "q": self.q, "l": self.l}


@dataclass(frozen=True)
class HGammaLTauSpec:
    """h_(p,q,l,tau); tau[t] is the sign at index q*t of qZ_n."""

    p: int
    q: int
    l: int
    tau: tuple[int, ...]

    def describe(self) -> dict:
        return {"type": "h_gamma_l_tau", "p": self.p, "q": self.q, "l": self.l, "tau": list(self.tau)}


IdempotentSpec = HaarSpec | HGammaSpec | HGammaLSpec | HGammaLTauSpec


def hermite_form(n: int, points) -> tuple[int, int, int]:
    """(a, c, b): the Hermite form (a, c), (0, b) of the subgroup of Z_n x Z_n that ``points`` generate.

    The rows span the points together with nZ^2, in the convention of
    ``subgroups_znxzn``, so the subgroup has n^2 / (a b) members.  Each
    point (x, y) enters by Euclid's algorithm on the rows (a, c) and
    (x, y), which leaves the gcd row (a, c) and a row (0, y) that joins
    (0, b) by a gcd: exact integer arithmetic, O(log n) per point.
    """
    a, c, b = n, 0, n
    for x, y in points:
        x, y = int(x) % n, int(y) % n
        while x:
            q = a // x
            a, c, x, y = x, y, a - q * x, c - q * y
        b = math.gcd(b, y)
        c %= b
    return a, c, b


def _members(n: int, a: int, c: int, b: int) -> frozenset[tuple[int, int]]:
    """The members (s a, s c + t b) of the subgroup with Hermite form (a, c), (0, b)."""
    return frozenset(((s * a) % n, (s * c + t * b) % n) for s in range(n // a) for t in range(n // b))


def subgroup_from_generators(n: int, generators) -> frozenset[tuple[int, int]]:
    """Closure of a generator list inside Z_n x Z_n."""
    return _members(n, *hermite_form(n, generators))


def is_subgroup(n: int, members) -> bool:
    """A set is a subgroup when it holds (0, 0) and as many points as the subgroup it generates."""
    mset = set(members)
    a, _, b = hermite_form(n, mset)
    return (0, 0) in mset and len(mset) == n * n // (a * b)


def annihilator(n: int, points) -> frozenset[tuple[int, int]]:
    """The (i, j) with i x + j y = 0 mod n at every point (x, y), read off the points' Hermite form."""
    a, c, b = hermite_form(n, points)
    i, j = np.indices((n, n))
    on = ((i * a + j * c) % n == 0) & ((j * b) % n == 0)
    return frozenset(zip(*(ix.tolist() for ix in np.nonzero(on))))


def subgroups_znxzn(n: int) -> list[frozenset[tuple[int, int]]]:
    """All subgroups of Z_n x Z_n.

    Subgroups correspond to integer lattices between nZ^2 and Z^2; row
    Hermite forms (a, c), (0, b) with a | n, b | n, 0 <= c < b and
    b | (n/a) c enumerate each exactly once.
    """
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return [_members(n, a, c, b) for a in divisors for b in divisors for c in range(b) if (n // a) * c % b == 0]


def check_sign_vector(tau, p: int) -> None:
    """Every DFT value must be real and nonnegative: tau must be one of ``valid_sign_vectors(p)``.

    Nonnegativity (rather than strict positivity) is exactly positive
    semi-definiteness of the associated circulant matrix part; the
    constant vector attains zero values and is the basic valid choice.
    Any other sign vector is refused exactly, with no DFT: when tau is
    not symmetric under t -> -t, its odd part is non-zero at some t and
    -t, so by Parseval the DFT has an imaginary part of modulus at least
    sqrt(2) somewhere; when it is symmetric, the DFT is real and, tau
    not being valid, negative somewhere.
    """
    if any(t not in (1, -1) for t in tau):
        raise InvalidSpecError("tau entries must be +1 or -1")
    if len(tau) != p:
        raise InvalidSpecError(f"tau must have length {p}")
    if tuple(tau) not in valid_sign_vectors(p):
        symmetric = all(tau[t] == tau[-t % p] for t in range(p))
        raise InvalidSpecError(f"tau has a {'negative' if symmetric else 'non-real'} Fourier value")


def valid_sign_vectors(p: int) -> list[tuple[int, ...]]:
    """All sign vectors of length p with nonnegative DFT.

    These are exactly the constant vector and, when p is even, the
    alternating vector.  For a valid tau the p DFT values are nonnegative,
    sum to p tau_0 <= p and, by Parseval, have squares summing to p^2,
    which forces a single non-zero value p: tau is a character of Z_p
    with values +-1, the trivial one or, for even p, t -> (-1)^t.
    """
    candidates = [tuple([1] * p)]
    if p % 2 == 0:
        candidates.append(tuple(1 if t % 2 == 0 else -1 for t in range(p)))
    return candidates


def validate_spec(spec: IdempotentSpec, n: int) -> None:
    if isinstance(spec, HaarSpec):
        return
    if isinstance(spec, HGammaSpec):
        for a, b in spec.members:
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidSpecError(f"member {(a, b)} outside Z_{n} x Z_{n}")
        if not is_subgroup(n, spec.members):
            raise InvalidSpecError("gamma is not a subgroup")
        return
    if isinstance(spec, HGammaLSpec):
        if spec.q <= 1 or n % spec.q != 0:
            raise InvalidSpecError(f"q={spec.q} must be a divisor of n={n} greater than 1")
        if not 0 <= spec.l < spec.q:
            raise InvalidSpecError(f"l={spec.l} outside Z_{spec.q}")
        return
    if isinstance(spec, HGammaLTauSpec):
        if spec.p <= 1 or spec.p * spec.q != n:
            raise InvalidSpecError(f"need p > 1 and p*q = n, got p={spec.p}, q={spec.q}, n={n}")
        if not 0 <= spec.l < spec.q:
            raise InvalidSpecError(f"l={spec.l} outside Z_{spec.q}")
        check_sign_vector(spec.tau, spec.p)
        return
    raise InvalidSpecError(f"unknown spec {spec!r}")


def build_idempotent(spec: IdempotentSpec, n: int) -> AlgebraElement:
    """The element of C(KP_n) whose Fourier transform is the idempotent state."""
    validate_spec(spec, n)
    shape = AlgebraShape.sekine(n)
    if isinstance(spec, HaarSpec):
        return unit(shape)
    ab = np.zeros((n, n), dtype=np.complex128)
    mat = np.zeros((n, n), dtype=np.complex128)
    if isinstance(spec, HGammaSpec):
        scale = 2.0 * n * n / len(spec.members)
        for a, b in spec.members:
            ab[a, b] = scale
        return AlgebraElement(shape, ab.reshape(-1), mat)
    if isinstance(spec, HGammaLSpec):
        q = spec.q
        ab[:, ::q] = float(q)  # support Z_n x qZ_n, weight n^2 / #Gamma = q
        for m in range(1, n + 1):  # diagonal entries q at rows m = l mod q
            if m % q == spec.l % q:
                mat[m - 1, m - 1] = float(q)
        return AlgebraElement(shape, ab.reshape(-1), mat)
    p, q, l = spec.p, spec.q, spec.l
    ab[::p, ::q] = float(n)  # support pZ_n x qZ_n, weight n^2 / #Gamma = n
    rows = [m for m in range(1, n + 1) if m % q == l % q]
    for i in rows:
        for j in rows:
            t = ((j - i) % n) // q
            mat[i - 1, j - 1] = q * spec.tau[t]
    return AlgebraElement(shape, ab.reshape(-1), mat)


def idempotent_profile(spec: IdempotentSpec, n: int) -> FourierProfile:
    """Closed-form Fourier profile for the diagonal-supported families.

    h_(q,l): block (u, v) equals [[1, eta^(lv)], [eta^(-lv), 1]] / 2 when
    u = 0 and (n/q) | v, zero otherwise.  h_(p,q,l,tau) carries the same
    form with an extra sign tau_(-u) when q | u and p | v.
    """
    validate_spec(spec, n)
    if not isinstance(spec, (HGammaLSpec, HGammaLTauSpec)):
        raise InvalidSpecError("closed-form profile exists for the diagonal families only")
    q, l = spec.q, spec.l
    p = n // q
    u = np.arange(n)[:, None]
    v = np.arange(n // 2 + 1)[None, :]
    if isinstance(spec, HGammaLSpec):
        on = (u == 0) & (v % p == 0)
        sign = 1.0
    else:
        on = (u % q == 0) & (v % p == 0)
        sign = np.asarray(spec.tau, dtype=float)[((-u) % n) // q]
    w = sign * np.exp(2j * np.pi * ((l * v) % n) / n)
    blocks = np.zeros((n, n // 2 + 1, 2, 2), dtype=np.complex128)
    blocks[..., 0, 0] = blocks[..., 1, 1] = np.where(on, 0.5, 0.0)
    blocks[..., 0, 1] = np.where(on, 0.5 * w, 0.0)
    blocks[..., 1, 0] = np.where(on, 0.5 * np.conj(w), 0.0)
    return FourierProfile(n, blocks)


def _profile_pieces(x: AlgebraElement, group: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, blocks): the Fourier values of x on the one-dimensional
    irreducibles and the (N, 2, 2) stack of its genuine 2x2 blocks.

    The 8-dimensional algebra underlies two distinct quantum groups, so
    the group must be named: "kpn" reads the shape as C(KP_n) with
    n = matrix_dim, "kp" as the Kac-Paljutkin group.
    """
    if group == "kp":
        from .kp8 import KP_SHAPE, kp_fourier_profile

        if x.shape != KP_SHAPE:
            raise ValueError("element does not live in C(KP)")
        prof = kp_fourier_profile(x)
        return np.array(list(prof.values.values())), prof.xblock[None]
    if group == "kpn":
        m = x.shape.matrix_dim
        if x.shape != AlgebraShape.sekine(m):
            raise ValueError("element does not live in C(KP_n)")
        prof = fourier_profile(x)
        return _one_dim_values(prof).ravel(), prof.blocks[:, genuine_x_range(m)].reshape(-1, 2, 2)
    raise ValueError(f"unknown group {group!r}")


def is_idempotent_state(x: AlgebraElement, tol: float = DEFAULT_TOL, group: str = "kpn") -> bool:
    """Blockwise projector profile, unit normalization, positivity."""
    if abs(haar_integral(x) - 1.0) > tol:
        return False
    if not is_positive(x, tol):
        return False
    values, blocks = _profile_pieces(x, group)
    return bool(max(np.abs(values * values - values).max(), np.abs(blocks @ blocks - blocks).max(initial=0.0)) <= tol)


def is_central_functional(x: AlgebraElement, tol: float = DEFAULT_TOL, group: str = "kpn") -> bool:
    """Whether F(x) is central, decided exactly on its Fourier blocks.

    The Fourier transform maps onto each M_2 block, so F(x) is central
    if and only if every genuine 2x2 block b (for "kp" the block of the
    two-dimensional representation) is a scalar multiple of I:
    max(|b01|, |b10|, |b00 - b11|) <= tol * max(1, max|b|).  The
    composite v = 0 and v = n/2 blocks of KP_n have the form
    [[a, b], [b, a]] for every x and always commute, so they are not
    checked.
    """
    _, b = _profile_pieces(x, group)
    deviation = np.maximum.reduce([np.abs(b[:, 0, 1]), np.abs(b[:, 1, 0]), np.abs(b[:, 0, 0] - b[:, 1, 1])])
    return bool(np.all(deviation <= tol * np.maximum(1.0, np.abs(b).max(axis=(1, 2)))))


def enumerate_central_idempotents(n: int) -> list[IdempotentSpec]:
    """All idempotent-state parameters whose functional is central, in closed form.

    Read off ``idempotent_profile``: h_(q,l) and h_(p,q,l,tau) have a
    non-scalar block at u = 0 and v = n/q, a genuine X(0, v) exactly
    when q > 2.  h_Gamma has a zero matrix part, and its block (u, v) is
    diag(D(u, v), D(u, -v)), D = |Gamma| 1_(Gamma^perp) the DFT of
    1_Gamma: scalar exactly when Gamma is closed under (a, b) -> (a, -b).
    The tests hold the dense filter over every candidate as the oracle.
    """
    if n > ENUMERATION_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")
    specs: list[IdempotentSpec] = [HaarSpec()]
    specs += [HGammaSpec(m) for m in subgroups_znxzn(n) if {(a, -b % n) for a, b in m} == m]
    specs += [HGammaLSpec(2, l) for l in range(2) if n % 2 == 0]
    for q in (1, 2):
        if n % q == 0 and n > q:
            specs += [HGammaLTauSpec(n // q, q, l, tau) for tau in valid_sign_vectors(n // q) for l in range(q)]
    return specs


_PARTNER = {RHO_PLUS: RHO_MINUS, RHO_MINUS: RHO_PLUS, SIGMA_PLUS: SIGMA_MINUS, SIGMA_MINUS: SIGMA_PLUS}


def spec_from_labels(n: int, labels) -> IdempotentSpec:
    """The central idempotent state with coefficient d_alpha at ``labels`` and the trivial label, else 0.

    Its matrix part on band l, row m, is (rho_l^+ - rho_l^-) + (-1)^m
    (sigma_l^+ - sigma_l^-), zero iff the rho and sigma labels come in +-
    pairs.  Then its abelian part is 2 sum eta^(iu + jw) over the points
    that the labels name (rho_u^+- names (u, 0), sigma_u^+- (u, n/2) and
    X(u, v) both (u, +-v)): h_Gamma, Gamma their annihilator, if the
    points form a subgroup.  Else it is h_(2,l), h_(n,1,0,tau) or
    h_(n/2,2,l,tau) (``idempotent_profile``), which holds rho_m^(tau_t)
    and, for q = 2, sigma_m^(tau_t (-1)^l) at each m = q t of qZ_n ({0}
    for h_(2,l)); q, l and tau are read off sigma_0 and the rho labels,
    which must then be the spec's own.  Decided exactly: raises
    AmbiguousBoundaryError when no central idempotent state has the labels.
    """
    ones = set(labels) | {trivial_label()}
    if ones == {trivial_label()}:
        return HaarSpec()
    if all(IrrepLabel(_PARTNER[label.kind], label.index) in ones for label in ones if label.dim == 1):
        points = {(label.index, n // 2 * (label.kind in (SIGMA_PLUS, SIGMA_MINUS))) for label in ones if label.dim == 1}
        points |= {(label.index, s * label.sub % n) for label in ones if label.dim == 2 for s in (1, -1)}
        if is_subgroup(n, points):
            return HGammaSpec(annihilator(n, points))
    else:
        q = 2 if {IrrepLabel(SIGMA_PLUS, 0), IrrepLabel(SIGMA_MINUS, 0)} & ones else 1
        l = int(q == 2 and IrrepLabel(SIGMA_PLUS, 0) not in ones)
        rows = range(0, n, q) if any(label.kind in (RHO_PLUS, RHO_MINUS) and label.index for label in ones) else (0,)
        tau = tuple(1 if IrrepLabel(RHO_PLUS, m) in ones else -1 for m in rows)
        own = {IrrepLabel(RHO_PLUS if s > 0 else RHO_MINUS, q * t) for t, s in enumerate(tau)}
        if q == 2:
            own |= {IrrepLabel(SIGMA_PLUS if s * (-1) ** l > 0 else SIGMA_MINUS, 2 * t) for t, s in enumerate(tau)}
        if ones == own and tau in valid_sign_vectors(len(tau)):
            return HGammaLSpec(2, l) if len(tau) == 1 else HGammaLTauSpec(n // q, q, l, tau)
    raise AmbiguousBoundaryError(f"no central idempotent state has the labels {sorted(map(str, ones))} at 1")
