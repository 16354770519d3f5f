"""Exhaustive model checking of generator claims on the group Z/9 x Z/3.

An action of the dihedral pair (sigma of order 3, tau of order 2) on the
abelian group G = Z/9 x Z/3 is a pair of endomorphisms.  The harness
enumerates every pair satisfying a configurable constraint set, then
evaluates each structural claim (ambiguous subgroup, eigencomponents,
principal genus, generator statements) exactly in every surviving model.
Claims are reported with witnesses, never asserted: the point of the
harness is to see which constraints force which conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple


@dataclass(frozen=True, order=True)
class Elem93:
    """An element (x mod 9, y mod 3) of Z/9 x Z/3, written additively."""

    x: int
    y: int

    def __post_init__(self):
        object.__setattr__(self, "x", self.x % 9)
        object.__setattr__(self, "y", self.y % 3)

    def __add__(self, other: "Elem93") -> "Elem93":
        return Elem93(self.x + other.x, self.y + other.y)

    def __neg__(self) -> "Elem93":
        return Elem93(-self.x, -self.y)

    def scale(self, k: int) -> "Elem93":
        return Elem93(k * self.x, k * self.y)

    def order(self) -> int:
        for n in (1, 3, 9):
            if (self.x * n) % 9 == 0 and (self.y * n) % 3 == 0:
                return n
        raise ArithmeticError(f"{self} has no order dividing 9")


ZERO93 = Elem93(0, 0)
E1 = Elem93(1, 0)
E2 = Elem93(0, 1)
ALL_ELEMS: Tuple[Elem93, ...] = tuple(Elem93(x, y) for x in range(9) for y in range(3))


# The integer kernel: element (x, y) is index 3x + y, its position in
# ALL_ELEMS and in sorted(ALL_ELEMS); a subset is a 27-bit mask over the
# indices.  Every internal loop runs on these tables.
def _index(x: int, y: int) -> int:
    return 3 * (x % 9) + y % 3


_INDEX: Dict[Elem93, int] = {g: i for i, g in enumerate(ALL_ELEMS)}
_IDENTITY = tuple(range(27))
_XY = tuple(divmod(i, 3) for i in _IDENTITY)
_ADD = tuple(tuple(_index(x + u, y + v) for u, v in _XY) for x, y in _XY)
_NEG = tuple(_index(-x, -y) for x, y in _XY)
_SCALE = tuple(tuple(_index(k * x, k * y) for x, y in _XY) for k in range(9))
_ORDER = tuple(g.order() for g in ALL_ELEMS)
_WHOLE = (1 << 27) - 1


def _mask(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _members(mask: int) -> List[int]:
    return [i for i in _IDENTITY if mask >> i & 1]


@lru_cache(maxsize=None)  # called on subgroups only, and G has few of them
def _elems(mask: int) -> FrozenSet[Elem93]:
    return frozenset(ALL_ELEMS[i] for i in _members(mask))


def _span_mask(gens: Iterable[int]) -> int:
    gl = list(gens)
    out, frontier = 1, [0]
    for g in frontier:  # grows while it is walked: a breadth-first closure
        row = _ADD[g]
        for h in gl:
            s = row[h]
            if not out >> s & 1:
                out |= 1 << s
                frontier.append(s)
    return out


def span(gens: Iterable[Elem93]) -> FrozenSet[Elem93]:
    return _elems(_span_mask(_INDEX[g] for g in gens))


# <g> for each index g: its multiples, so no closure search
_CYCLIC = tuple(_mask(_SCALE[k][g] for k in range(9)) for g in _IDENTITY)


def _generates(a: int, b: int, target: int) -> bool:
    """<a, b> == target, by counting.

    <a, b> = <a> + <b> has |<a>| |<b>| / |<a> & <b>| elements (second
    isomorphism theorem), so it is the target exactly when <a> and <b>
    lie in the target and that count is the target's size.
    """
    ca, cb = _CYCLIC[a], _CYCLIC[b]
    if (ca | cb) & ~target:
        return False
    return _ORDER[a] * _ORDER[b] == target.bit_count() * (ca & cb).bit_count()


@dataclass(frozen=True, order=True)
class Endo93:
    """Endomorphism of Z/9 x Z/3 given by generator images.

    Well-definedness requires 3 * image(e2) = 0, i.e. the x-component of
    e2_img lies in {0, 3, 6}.  `images` is the image of every element
    index, computed once; it takes no part in equality, order or hashing.
    """

    e1_img: Elem93
    e2_img: Elem93
    images: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.e2_img.x % 3 != 0:
            raise ValueError("image of e2 must be killed by 3")
        a, b = _INDEX[self.e1_img], _INDEX[self.e2_img]
        object.__setattr__(self, "images", tuple(
            _ADD[_SCALE[x][a]][_SCALE[y][b]] for x, y in _XY))

    def apply(self, g: Elem93) -> Elem93:
        return ALL_ELEMS[self.images[_INDEX[g]]]

    def compose(self, other: "Endo93") -> "Endo93":
        return Endo93(self.apply(other.e1_img), self.apply(other.e2_img))

    def is_automorphism(self) -> bool:
        return len(set(self.images)) == 27


IDENTITY93 = Endo93(E1, E2)


@lru_cache(maxsize=None)
def _all_endos() -> Tuple[Endo93, ...]:
    return tuple(Endo93(e1, e2) for e1 in ALL_ELEMS for e2 in ALL_ELEMS if e2.x % 3 == 0)


def all_endos() -> List[Endo93]:
    """The 243 endomorphisms, built once on first use."""
    return list(_all_endos())


def _after(phi: Tuple[int, ...], psi: Tuple[int, ...]) -> Tuple[int, ...]:
    """Image table of phi o psi (psi first)."""
    return tuple(phi[i] for i in psi)


def _fixed_mask(phi: Tuple[int, ...]) -> int:
    return _mask(i for i in _IDENTITY if phi[i] == i)


def _negated_mask(phi: Tuple[int, ...]) -> int:
    return _mask(i for i in _IDENTITY if phi[i] == _NEG[i])


@dataclass(frozen=True)
class ModelConstraints:
    """Toggleable consistency constraints; the default set enables all."""

    sigma_cubed_identity: bool = True
    tau_squared_identity: bool = True
    automorphisms: bool = True
    dihedral_relation: bool = True  # tau sigma tau = sigma^2
    norm_annihilates: bool = True  # 1 + sigma + sigma^2 = 0
    ambiguous_order_3: bool = True  # |ker(sigma - 1)| = 3
    cplus_cyclic_9: bool = True
    cminus_order_3: bool = True
    csigma_in_cplus: bool = True
    csigma_meets_cminus_trivially: bool = True


@dataclass(frozen=True)
class GaloisModel:
    sigma: Endo93
    tau: Endo93
    cplus: FrozenSet[Elem93]  # ker(tau - 1)
    cminus: FrozenSet[Elem93]  # ker(tau + 1)
    csigma: FrozenSet[Elem93]  # ker(sigma - 1)
    genus: FrozenSet[Elem93]  # im(1 - sigma)
    s_invariant: int
    # (cplus, cminus, csigma, genus) as index masks, for the claim checks;
    # read off the four subgroups when the caller does not pass them
    masks: Optional[Tuple[int, int, int, int]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.masks is None:
            object.__setattr__(self, "masks", tuple(
                _mask(_INDEX[g] for g in sub)
                for sub in (self.cplus, self.cminus, self.csigma, self.genus)))

    def encoding(self) -> Tuple[int, ...]:
        return (
            self.sigma.e1_img.x, self.sigma.e1_img.y,
            self.sigma.e2_img.x, self.sigma.e2_img.y,
            self.tau.e1_img.x, self.tau.e1_img.y,
            self.tau.e2_img.x, self.tau.e2_img.y,
        )


def _one_minus(phi: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(_ADD[i][_NEG[phi[i]]] for i in _IDENTITY)


def _s_invariant(one_minus: Tuple[int, ...], csigma: int) -> int:
    """Largest s with ker(sigma-1) contained in im((1-sigma)^(s-1))."""
    power = _IDENTITY
    for s in range(28):  # images stabilize long before this
        if csigma & ~_mask(power):
            return s
        power = _after(one_minus, power)
    raise ArithmeticError("s-invariant did not terminate")


def _derive(sigma: Endo93, tau: Endo93) -> GaloisModel:
    S, T = sigma.images, tau.images
    one_minus = _one_minus(S)
    masks = (_fixed_mask(T), _negated_mask(T), _fixed_mask(S), _mask(one_minus))
    return GaloisModel(sigma, tau, *map(_elems, masks), _s_invariant(one_minus, masks[2]),
                       masks)


def _is_cyclic(sub: FrozenSet[Elem93]) -> bool:
    n = len(sub)
    return any(g.order() == n for g in sub)


def verify_model(m: GaloisModel, c: ModelConstraints) -> bool:
    """Element-by-element re-check of every toggled constraint.

    Deliberately independent of the shortcuts used during enumeration: the
    identities are checked on all 27 elements, not on generators only.
    """
    S, T = m.sigma.images, m.tau.images
    if c.sigma_cubed_identity and any(S[S[S[g]]] != g for g in _IDENTITY):
        return False
    if c.tau_squared_identity and any(T[T[g]] != g for g in _IDENTITY):
        return False
    if c.automorphisms and not (m.sigma.is_automorphism() and m.tau.is_automorphism()):
        return False
    if c.dihedral_relation and any(T[S[T[g]]] != S[S[g]] for g in _IDENTITY):
        return False
    if c.norm_annihilates and any(_ADD[_ADD[g][S[g]]][S[S[g]]] for g in _IDENTITY):
        return False
    if c.ambiguous_order_3 and len(m.csigma) != 3:
        return False
    if c.cplus_cyclic_9 and not (len(m.cplus) == 9 and _is_cyclic(m.cplus)):
        return False
    if c.cminus_order_3 and len(m.cminus) != 3:
        return False
    if c.csigma_in_cplus and not m.csigma <= m.cplus:
        return False
    if c.csigma_meets_cminus_trivially and m.csigma & m.cminus != {ZERO93}:
        return False
    return True


def enumerate_models(constraints: Optional[ModelConstraints] = None) -> List[GaloisModel]:
    """All consistent (sigma, tau) pairs, sorted by canonical encoding."""
    c = constraints if constraints is not None else ModelConstraints()
    endos = _all_endos()

    # Every table here is an endomorphism, and so is each composite or sum
    # of them, so an identity between them holds on G once it holds on the
    # generators E1 and E2 (indices 3 and 1).  verify_model re-checks all 27.
    def sigma_ok(S: Tuple[int, ...]) -> bool:
        if c.sigma_cubed_identity and (S[S[S[3]]] != 3 or S[S[S[1]]] != 1):
            return False
        if c.norm_annihilates and (_ADD[_ADD[3][S[3]]][S[S[3]]] or _ADD[_ADD[1][S[1]]][S[S[1]]]):
            return False
        if c.automorphisms and len(set(S)) != 27:
            return False
        if c.ambiguous_order_3 and _fixed_mask(S).bit_count() != 3:
            return False
        return True

    def tau_ok(T: Tuple[int, ...]) -> bool:
        if c.tau_squared_identity and (T[T[3]] != 3 or T[T[1]] != 1):
            return False
        if c.automorphisms and len(set(T)) != 27:
            return False
        if c.cplus_cyclic_9:
            fix = _members(_fixed_mask(T))
            if not (len(fix) == 9 and any(_ORDER[g] == 9 for g in fix)):
                return False
        if c.cminus_order_3 and _negated_mask(T).bit_count() != 3:
            return False
        return True

    sigmas = [s for s in endos if sigma_ok(s.images)]
    taus = [(t, t.images, _fixed_mask(t.images), _negated_mask(t.images))
            for t in endos if tau_ok(t.images)]
    out = []
    for s in sigmas:
        S = s.images
        s2e1, s2e2 = S[S[3]], S[S[1]]
        csigma = _fixed_mask(S)
        for t, T, cplus, cminus in taus:
            if c.dihedral_relation and (T[S[T[3]]] != s2e1 or T[S[T[1]]] != s2e2):
                continue
            if c.csigma_in_cplus and csigma & ~cplus:
                continue
            if c.csigma_meets_cminus_trivially and csigma & cminus != 1:
                continue
            m = _derive(s, t)
            # double-entry: the independent checker must agree
            if not verify_model(m, c):
                raise ArithmeticError(
                    f"enumeration filter and verifier disagree on model {m.encoding()}")
            out.append(m)
    out.sort(key=GaloisModel.encoding)
    return out


EXPLICIT_MODEL_ENCODING = (1, 2, 3, 1, 1, 0, 3, 2)


def explicit_model() -> GaloisModel:
    """The arithmetic model: G realized as classes with sigma acting like
    multiplication by a primitive cube root of unity and tau like complex
    conjugation."""
    sigma = Endo93(Elem93(1, 2), Elem93(3, 1))
    tau = Endo93(Elem93(1, 0), Elem93(3, 2))
    return _derive(sigma, tau)


def check_prop_claims(m: GaloisModel) -> Dict[str, bool]:
    """Exact evaluation of the ambiguous-subgroup / genus claims.

    Claim (iv) is printed with exponent sigma-1 in the source statement
    but used as 1-sigma in its proof, and its generator A is pinned
    arithmetically rather than group-theoretically; all four readings
    (each exponent, universally or existentially quantified over A) are
    evaluated separately.
    """
    sigma = m.sigma.images
    cplus, cminus, csigma, genus = m.masks
    gens9 = [g for g in _members(cplus) if _ORDER[g] == 9]
    cminus_gens = [b for b in _members(cminus) if b]  # index 0 is the zero element

    claims: Dict[str, bool] = {}
    claims["i_csigma_in_cplus"] = not csigma & ~cplus
    claims["ii_csigma_is_cube_of_any_cplus_generator"] = bool(gens9) and all(
        _CYCLIC[_SCALE[3][a]] == csigma for a in gens9
    )

    def one_minus(g: int) -> int:
        return _ADD[g][_NEG[sigma[g]]]

    claims["iii_csigma_from_any_cminus_generator"] = bool(cminus_gens) and all(
        _CYCLIC[one_minus(b)] == csigma for b in cminus_gens
    )

    def minus_one_reading(a: int) -> int:
        a2 = _SCALE[2][a]
        return _ADD[sigma[a2]][_NEG[a2]]

    def one_minus_reading(a: int) -> int:
        return one_minus(_SCALE[2][a])

    for label, f in (("sigma_minus_1", minus_one_reading), ("1_minus_sigma", one_minus_reading)):
        hits = [_CYCLIC[f(a)] == cminus for a in gens9]
        claims[f"iv_{label}_forall_A"] = bool(hits) and all(hits)
        claims[f"iv_{label}_exists_A"] = any(hits)

    claims["v_genus_is_csigma_times_cminus_type_3_3"] = (
        genus == _span_mask(_members(csigma | cminus))
        and len(m.genus) == 9
        and all(_SCALE[3][g] == 0 for g in _members(genus))
    )
    claims["vi_s_equals_3"] = m.s_invariant == 3
    return claims


@dataclass(frozen=True, order=True)
class Frame:
    """A tau-fixed order-9 class X with its sigma-orbit Y, W; X+Y+W = 0."""

    X: Elem93
    Y: Elem93
    W: Elem93


def enumerate_frames(m: GaloisModel) -> List[Frame]:
    S, T = m.sigma.images, m.tau.images
    out = []
    for x in _IDENTITY:  # index order is sorted(ALL_ELEMS) order
        if _ORDER[x] != 9 or T[x] != x:
            continue
        y = S[x]
        w = S[y]
        # forced by 1 + sigma + sigma^2 = 0, but verified rather than assumed
        if _ADD[_ADD[x][y]][w]:
            continue
        out.append(Frame(ALL_ELEMS[x], ALL_ELEMS[y], ALL_ELEMS[w]))
    return out


def check_theorem_claims(m: GaloisModel, f: Frame) -> Dict[str, bool]:
    """The main generator claims and their corollary companions, in a frame."""
    x, y, w = _INDEX[f.X], _INDEX[f.Y], _INDEX[f.W]
    cplus, cminus, csigma, genus = m.masks
    xy2 = _ADD[x][_SCALE[2][y]]
    cube = _SCALE[3]
    c3 = {
        "a_X_generates_cplus": _ORDER[x] == 9 and _CYCLIC[x] == cplus,
        "b_XY2_order_3_in_cminus": _ORDER[xy2] == 3 and bool(cminus >> xy2 & 1),
        "c_X_and_XY2_generate_group": _generates(x, xy2, _WHOLE),
        "cor5_Y_and_YW2_generate_group": _generates(y, _ADD[y][_SCALE[2][w]], _WHOLE),
        "cor6_csigma_is_cubes": all(_CYCLIC[cube[g]] == csigma for g in (x, y, w)),
        "cor7_genus_from_X3_and_XY2": _generates(cube[x], xy2, genus),
    }
    return c3


@dataclass(frozen=True)
class ClaimStatus:
    status: str  # "holds-universally" | "holds-in-some" | "fails-universally"
    holding: int
    failing: int
    witness_holds: Optional[Tuple[int, ...]]
    witness_fails: Optional[Tuple[int, ...]]


@dataclass(frozen=True)
class ClaimReport:
    constraints: ModelConstraints
    model_count: int
    frame_counts: Tuple[int, ...]
    prop_claims: Dict[str, ClaimStatus]
    theorem_claims: Dict[str, ClaimStatus]
    explicit_model_present: bool


def _status(results: List[Tuple[bool, Tuple[int, ...]]]) -> ClaimStatus:
    holding = sum(1 for ok, _ in results if ok)
    failing = len(results) - holding
    wh = next((enc for ok, enc in results if ok), None)
    wf = next((enc for ok, enc in results if not ok), None)
    if failing == 0 and holding > 0:
        status = "holds-universally"
    elif holding == 0:
        status = "fails-universally"
    else:
        status = "holds-in-some"
    return ClaimStatus(status, holding, failing, wh, wf)


def full_report(constraints: Optional[ModelConstraints] = None) -> ClaimReport:
    c = constraints if constraints is not None else ModelConstraints()
    models = enumerate_models(c)
    prop_results: Dict[str, List[Tuple[bool, Tuple[int, ...]]]] = {}
    thm_results: Dict[str, List[Tuple[bool, Tuple[int, ...]]]] = {}
    frame_counts = []
    explicit_present = False
    for m in models:
        enc = m.encoding()
        if enc == EXPLICIT_MODEL_ENCODING:
            explicit_present = True
        for name, ok in check_prop_claims(m).items():
            prop_results.setdefault(name, []).append((ok, enc))
        frames = enumerate_frames(m)
        frame_counts.append(len(frames))
        for f in frames:
            fenc = enc + (f.X.x, f.X.y)
            for name, ok in check_theorem_claims(m, f).items():
                thm_results.setdefault(name, []).append((ok, fenc))
    return ClaimReport(
        constraints=c,
        model_count=len(models),
        frame_counts=tuple(frame_counts),
        prop_claims={k: _status(v) for k, v in sorted(prop_results.items())},
        theorem_claims={k: _status(v) for k, v in sorted(thm_results.items())},
        explicit_model_present=explicit_present,
    )
