"""Exhaustive model enumeration and claim checking on Z/9 x Z/3."""

from dataclasses import fields, replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purecubic.galoismodel import (
    ALL_ELEMS,
    E1,
    E2,
    Elem93,
    Endo93,
    EXPLICIT_MODEL_ENCODING,
    IDENTITY93,
    ClaimReport,
    ClaimStatus,
    Frame,
    GaloisModel,
    ModelConstraints,
    ZERO93,
    all_endos,
    check_prop_claims,
    check_theorem_claims,
    enumerate_frames,
    enumerate_models,
    explicit_model,
    full_report,
    span,
    verify_model,
)
from purecubic.galoismodel import _CYCLIC, _WHOLE, _after, _generates, _span_mask

CONSTRAINT_NAMES = [f.name for f in fields(ModelConstraints)]
CONSTRAINT_SETS = [ModelConstraints()] + [
    replace(ModelConstraints(), **{name: False}) for name in CONSTRAINT_NAMES
]
SET_IDS = ["full"] + [f"without_{name}" for name in CONSTRAINT_NAMES]


def test_elem_group_law():
    assert Elem93(8, 2) + Elem93(1, 1) == ZERO93
    assert Elem93(1, 0).order() == 9
    assert Elem93(3, 1).order() == 3
    assert Elem93(0, 2).order() == 3
    assert ZERO93.order() == 1
    assert len(ALL_ELEMS) == 27


def test_span():
    assert span([Elem93(1, 0)]) == frozenset(Elem93(x, 0) for x in range(9))
    assert len(span([Elem93(1, 0), Elem93(0, 1)])) == 27
    assert span([]) == frozenset({ZERO93})


def test_endo_well_definedness():
    with pytest.raises(ValueError):
        Endo93(Elem93(1, 0), Elem93(1, 0))  # 3 * image(e2) != 0
    phi = Endo93(Elem93(2, 1), Elem93(3, 0))
    assert phi.apply(Elem93(1, 1)) == Elem93(5, 1)


def test_identity_endo():
    for g in ALL_ELEMS:
        assert IDENTITY93.apply(g) == g
    assert IDENTITY93.is_automorphism()


def test_explicit_model_satisfies_all_constraints():
    m = explicit_model()
    assert verify_model(m, ModelConstraints())
    assert m.encoding() == EXPLICIT_MODEL_ENCODING
    assert m.csigma == frozenset({ZERO93, Elem93(3, 0), Elem93(6, 0)})
    assert m.cminus == frozenset({ZERO93, Elem93(3, 1), Elem93(6, 2)})
    assert len(m.cplus) == 9
    assert m.s_invariant == 3


def test_identity_sigma_rejected():
    # |ker(sigma - 1)| = 27, so the identity cannot be sigma
    models = enumerate_models()
    assert all(m.sigma != IDENTITY93 for m in models)


def test_enumeration_contains_explicit_model_and_is_deterministic():
    a = enumerate_models()
    b = enumerate_models()
    assert [m.encoding() for m in a] == [m.encoding() for m in b]
    assert any(m.encoding() == EXPLICIT_MODEL_ENCODING for m in a)
    assert len(a) > 0


def test_relaxation_gives_more_models():
    full = enumerate_models()
    relaxed = enumerate_models(replace(ModelConstraints(), ambiguous_order_3=False))
    assert len(relaxed) >= len(full)
    encodings = {m.encoding() for m in relaxed}
    assert all(m.encoding() in encodings for m in full)


def test_frames():
    m = explicit_model()
    frames = enumerate_frames(m)
    assert frames
    for f in frames:
        assert f.X.order() == 9
        assert m.tau.apply(f.X) == f.X
        assert f.Y == m.sigma.apply(f.X)
        assert f.W == m.sigma.apply(f.Y)
        assert f.X + f.Y + f.W == ZERO93
        # tau swaps Y and W
        assert m.tau.apply(f.Y) == f.W
    assert any(f.X == Elem93(1, 0) for f in frames)


def test_prop_claims_explicit_model():
    claims = check_prop_claims(explicit_model())
    assert claims["i_csigma_in_cplus"]
    assert claims["ii_csigma_is_cube_of_any_cplus_generator"]
    assert claims["iii_csigma_from_any_cminus_generator"]
    assert claims["v_genus_is_csigma_times_cminus_type_3_3"]
    assert claims["vi_s_equals_3"]
    # both printed readings of claim (iv) fail here: with A = e1 the
    # subgroup generated is {(0, y)}, not the minus eigencomponent
    assert not claims["iv_sigma_minus_1_forall_A"]
    assert not claims["iv_1_minus_sigma_forall_A"]


def test_theorem_claims_explicit_model():
    m = explicit_model()
    f = next(fr for fr in enumerate_frames(m) if fr.X == Elem93(1, 0))
    assert f.X + f.Y.scale(2) == Elem93(3, 1)
    claims = check_theorem_claims(m, f)
    assert all(claims.values())


def test_full_report_universal_theorem_claims():
    rep = full_report()
    assert rep.model_count > 0
    assert rep.explicit_model_present
    assert all(n > 0 for n in rep.frame_counts)
    for st in rep.theorem_claims.values():
        assert st.status == "holds-universally"
        assert st.witness_holds is not None
    for name in ("iv_sigma_minus_1_forall_A", "iv_sigma_minus_1_exists_A",
                 "iv_1_minus_sigma_forall_A", "iv_1_minus_sigma_exists_A"):
        assert name in rep.prop_claims  # recorded, not asserted


def test_full_report_relaxed_still_total():
    rep = full_report(replace(ModelConstraints(), cminus_order_3=False))
    assert rep.model_count >= full_report().model_count
    assert set(rep.prop_claims) == set(full_report().prop_claims)


# Reference model checker: the Elem93-based enumeration and claim code that
# the integer-table kernel replaced, computing every image by Elem93
# arithmetic on the generator images.  The kernel must reproduce it exactly.

def ref_apply(phi, g):
    return phi.e1_img.scale(g.x) + phi.e2_img.scale(g.y)


def ref_compose(phi, psi):
    return Endo93(ref_apply(phi, psi.e1_img), ref_apply(phi, psi.e2_img))


def ref_is_automorphism(phi):
    return len({ref_apply(phi, g) for g in ALL_ELEMS}) == 27


def ref_span(gens):
    out = {ZERO93}
    frontier = [ZERO93]
    gl = list(gens)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gl:
                s = g + h
                if s not in out:
                    out.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(out)


def ref_one_minus(phi):
    return Endo93(E1 + (-phi.e1_img), E2 + (-phi.e2_img))


def ref_image(phi):
    return frozenset(ref_apply(phi, g) for g in ALL_ELEMS)


def ref_s_invariant(sigma, csigma):
    one_minus = ref_one_minus(sigma)
    power = IDENTITY93
    s = 0
    while csigma <= ref_image(power):
        s += 1
        power = ref_compose(one_minus, power)
        assert s <= 27
    return s


def ref_derive(sigma, tau):
    cplus = frozenset(g for g in ALL_ELEMS if ref_apply(tau, g) == g)
    cminus = frozenset(g for g in ALL_ELEMS if ref_apply(tau, g) == -g)
    csigma = frozenset(g for g in ALL_ELEMS if ref_apply(sigma, g) == g)
    genus = ref_image(ref_one_minus(sigma))
    return GaloisModel(sigma, tau, cplus, cminus, csigma, genus,
                       ref_s_invariant(sigma, csigma))


def ref_is_cyclic(sub):
    return any(g.order() == len(sub) for g in sub)


def ref_verify_model(m, c):
    s, t = m.sigma, m.tau
    for g in ALL_ELEMS:
        sg, tg = ref_apply(s, g), ref_apply(t, g)
        if c.sigma_cubed_identity and ref_apply(s, ref_apply(s, sg)) != g:
            return False
        if c.tau_squared_identity and ref_apply(t, tg) != g:
            return False
        if c.dihedral_relation and ref_apply(t, ref_apply(s, tg)) != ref_apply(s, sg):
            return False
        if c.norm_annihilates and g + sg + ref_apply(s, sg) != ZERO93:
            return False
    if c.automorphisms and not (ref_is_automorphism(s) and ref_is_automorphism(t)):
        return False
    if c.ambiguous_order_3 and len(m.csigma) != 3:
        return False
    if c.cplus_cyclic_9 and not (len(m.cplus) == 9 and ref_is_cyclic(m.cplus)):
        return False
    if c.cminus_order_3 and len(m.cminus) != 3:
        return False
    if c.csigma_in_cplus and not m.csigma <= m.cplus:
        return False
    if c.csigma_meets_cminus_trivially and m.csigma & m.cminus != {ZERO93}:
        return False
    return True


def ref_enumerate_models(c):
    endos = [Endo93(e1, e2) for e1 in ALL_ELEMS for e2 in ALL_ELEMS if e2.x % 3 == 0]

    def sigma_ok(s):
        s2 = ref_compose(s, s)
        if c.sigma_cubed_identity and ref_compose(s2, s) != IDENTITY93:
            return False
        if c.automorphisms and not ref_is_automorphism(s):
            return False
        if c.norm_annihilates and any(
            g + ref_apply(s, g) + ref_apply(s2, g) != ZERO93 for g in (E1, E2)
        ):
            return False
        if c.ambiguous_order_3 and sum(1 for g in ALL_ELEMS if ref_apply(s, g) == g) != 3:
            return False
        return True

    def tau_ok(t):
        if c.tau_squared_identity and ref_compose(t, t) != IDENTITY93:
            return False
        if c.automorphisms and not ref_is_automorphism(t):
            return False
        if c.cplus_cyclic_9:
            fix = frozenset(g for g in ALL_ELEMS if ref_apply(t, g) == g)
            if not (len(fix) == 9 and ref_is_cyclic(fix)):
                return False
        if c.cminus_order_3 and sum(1 for g in ALL_ELEMS if ref_apply(t, g) == -g) != 3:
            return False
        return True

    sigmas = [s for s in endos if sigma_ok(s)]
    taus = [t for t in endos if tau_ok(t)]
    out = []
    for s in sigmas:
        s2 = ref_compose(s, s)
        for t in taus:
            if c.dihedral_relation and ref_compose(ref_compose(t, s), t) != s2:
                continue
            m = ref_derive(s, t)
            if c.csigma_in_cplus and not m.csigma <= m.cplus:
                continue
            if c.csigma_meets_cminus_trivially and m.csigma & m.cminus != {ZERO93}:
                continue
            assert ref_verify_model(m, c)
            out.append(m)
    out.sort(key=GaloisModel.encoding)
    return out


def ref_check_prop_claims(m):
    sigma = m.sigma
    one_minus = ref_one_minus(sigma)
    gens9 = sorted(g for g in m.cplus if g.order() == 9)
    cminus_gens = [g for g in m.cminus if g != ZERO93]
    claims = {}
    claims["i_csigma_in_cplus"] = m.csigma <= m.cplus
    claims["ii_csigma_is_cube_of_any_cplus_generator"] = bool(gens9) and all(
        ref_span([a.scale(3)]) == m.csigma for a in gens9
    )
    claims["iii_csigma_from_any_cminus_generator"] = bool(cminus_gens) and all(
        ref_span([ref_apply(one_minus, b)]) == m.csigma for b in cminus_gens
    )
    readings = (
        ("sigma_minus_1", lambda a: ref_apply(sigma, a.scale(2)) + (-a.scale(2))),
        ("1_minus_sigma", lambda a: ref_apply(one_minus, a.scale(2))),
    )
    for label, f in readings:
        hits = [ref_span([f(a)]) == m.cminus for a in gens9]
        claims[f"iv_{label}_forall_A"] = bool(hits) and all(hits)
        claims[f"iv_{label}_exists_A"] = any(hits)
    prod = ref_span(list(m.csigma) + list(m.cminus))
    claims["v_genus_is_csigma_times_cminus_type_3_3"] = (
        m.genus == prod and len(m.genus) == 9 and all(g.scale(3) == ZERO93 for g in m.genus)
    )
    claims["vi_s_equals_3"] = m.s_invariant == 3
    return claims


def ref_enumerate_frames(m):
    out = []
    for x in sorted(ALL_ELEMS):
        if x.order() != 9 or ref_apply(m.tau, x) != x:
            continue
        y = ref_apply(m.sigma, x)
        w = ref_apply(m.sigma, y)
        if x + y + w == ZERO93:
            out.append(Frame(x, y, w))
    return out


def ref_check_theorem_claims(m, f):
    x, y, w = f.X, f.Y, f.W
    xy2 = x + y.scale(2)
    whole = frozenset(ALL_ELEMS)
    return {
        "a_X_generates_cplus": x.order() == 9 and ref_span([x]) == m.cplus,
        "b_XY2_order_3_in_cminus": xy2.order() == 3 and xy2 in m.cminus,
        "c_X_and_XY2_generate_group": ref_span([x, xy2]) == whole,
        "cor5_Y_and_YW2_generate_group": ref_span([y, y + w.scale(2)]) == whole,
        "cor6_csigma_is_cubes": all(ref_span([g.scale(3)]) == m.csigma for g in (x, y, w)),
        "cor7_genus_from_X3_and_XY2": ref_span([x.scale(3), xy2]) == m.genus,
    }


def ref_status(results):
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


@lru_cache(maxsize=None)
def ref_report(c):
    models = ref_enumerate_models(c)
    prop, thm, frame_counts = {}, {}, []
    for m in models:
        enc = m.encoding()
        for name, ok in ref_check_prop_claims(m).items():
            prop.setdefault(name, []).append((ok, enc))
        frames = ref_enumerate_frames(m)
        frame_counts.append(len(frames))
        for f in frames:
            for name, ok in ref_check_theorem_claims(m, f).items():
                thm.setdefault(name, []).append((ok, enc + (f.X.x, f.X.y)))
    report = ClaimReport(
        constraints=c,
        model_count=len(models),
        frame_counts=tuple(frame_counts),
        prop_claims={k: ref_status(v) for k, v in sorted(prop.items())},
        theorem_claims={k: ref_status(v) for k, v in sorted(thm.items())},
        explicit_model_present=any(m.encoding() == EXPLICIT_MODEL_ENCODING for m in models),
    )
    return models, report


elems = st.builds(Elem93, st.integers(0, 8), st.integers(0, 2))
endos = st.sampled_from(all_endos())


def test_element_index_is_position_in_sorted_order():
    assert list(ALL_ELEMS) == sorted(ALL_ELEMS)
    assert all(ALL_ELEMS[3 * x + y] == Elem93(x, y) for x in range(9) for y in range(3))


def test_apply_matches_elem_arithmetic():
    phis = all_endos()
    assert len(phis) == len(set(phis)) == 243
    for phi in phis:
        for g in ALL_ELEMS:
            assert phi.apply(g) == phi.e1_img.scale(g.x) + phi.e2_img.scale(g.y)
        assert phi.is_automorphism() == ref_is_automorphism(phi)


@given(endos, endos)
@settings(max_examples=200, deadline=None)
def test_after_matches_elem_arithmetic(phi, psi):
    # phi o psi on image tables, as `_s_invariant` takes powers of 1 - sigma
    comp = _after(phi.images, psi.images)
    assert comp == ref_compose(phi, psi).images
    assert [ALL_ELEMS[i] for i in comp] == [ref_apply(phi, ref_apply(psi, g)) for g in ALL_ELEMS]


def test_endo_identity_ignores_the_image_table():
    a, b = Endo93(E1, E2), Endo93(Elem93(10, 3), Elem93(9, 1))
    assert a == b == IDENTITY93 and hash(a) == hash(b)
    assert repr(a) == "Endo93(e1_img=Elem93(x=1, y=0), e2_img=Elem93(x=0, y=1))"
    assert sorted(all_endos()) == sorted(all_endos(), key=lambda p: (p.e1_img, p.e2_img))


@given(st.lists(elems, max_size=4))
@settings(max_examples=200, deadline=None)
def test_span_matches_elem_bfs(gens):
    assert span(gens) == ref_span(gens)


def test_two_generator_count_matches_the_closure():
    # every pair (a, b) against every span of one or two elements and the
    # whole group: <a, b> == H by counting exactly when the closure is H
    spans = {(a, b): _span_mask([a, b]) for a in range(27) for b in range(27)}
    targets = set(spans.values()) | {_WHOLE}
    assert {_span_mask([g]) for g in range(27)} <= targets
    outcomes = set()
    for (a, b), closure in spans.items():
        for target in targets:
            ok = _generates(a, b, target)
            assert ok == (closure == target), (a, b, target)
            outcomes.add(ok)
    assert outcomes == {True, False}
    assert all(_CYCLIC[g] == _span_mask([g]) for g in range(27))


@pytest.mark.parametrize("c", CONSTRAINT_SETS, ids=SET_IDS)
def test_kernel_matches_reference_checker(c):
    ref_models, ref_rep = ref_report(c)
    models = enumerate_models(c)
    assert models == ref_models
    assert [m.s_invariant for m in models] == [m.s_invariant for m in ref_models]
    # the masks _derive passes in are the ones read off the reference subgroups
    assert [m.masks for m in models] == [m.masks for m in ref_models]
    for m in models:
        assert check_prop_claims(m) == ref_check_prop_claims(m)
        frames = enumerate_frames(m)
        assert frames == ref_enumerate_frames(m)
        for f in frames:
            assert check_theorem_claims(m, f) == ref_check_theorem_claims(m, f)
    rep = full_report(c)
    assert rep.frame_counts == ref_rep.frame_counts
    assert rep.prop_claims == ref_rep.prop_claims  # every ClaimStatus field, witnesses too
    assert rep.theorem_claims == ref_rep.theorem_claims
    assert rep == ref_rep


@pytest.mark.parametrize("name", CONSTRAINT_NAMES)
def test_dropped_constraint_models_fail_the_full_verifier(name):
    full = enumerate_models()
    assert all(verify_model(m, ModelConstraints()) for m in full)
    relaxed = enumerate_models(replace(ModelConstraints(), **{name: False}))
    extra = [m for m in relaxed if m not in full]
    assert len(relaxed) == len(full) + len(extra)
    assert not any(verify_model(m, ModelConstraints()) for m in extra)


@pytest.mark.parametrize("name", [
    "ambiguous_order_3",
    "cplus_cyclic_9",
    "cminus_order_3",
    "csigma_in_cplus",
    "csigma_meets_cminus_trivially",
])
def test_verifier_rejects_each_subgroup_violation(name):
    # The other nine constraints imply each of these five, so the test above
    # finds no extra model for them.  The models of sigma^3 = tau^2 = 1 with
    # both bijective break each of them somewhere; the verifier with only
    # `name` on must reject exactly the models the reference verifier
    # rejects (the kernel test above checks the subgroups themselves).
    identities = ModelConstraints(**{
        n: n in ("sigma_cubed_identity", "tau_squared_identity", "automorphisms")
        for n in CONSTRAINT_NAMES
    })
    only = ModelConstraints(**{n: n == name for n in CONSTRAINT_NAMES})
    models = enumerate_models(identities)
    rejected = [m for m in models if not verify_model(m, only)]
    assert rejected
    assert rejected == [m for m in models if not ref_verify_model(m, only)]


@pytest.mark.parametrize("name, which", [
    ("sigma_cubed_identity", "sigma"),
    ("tau_squared_identity", "tau"),
    ("automorphisms", "sigma"),
    ("dihedral_relation", "tau"),
    ("norm_annihilates", "sigma"),
])
def test_verifier_checks_every_element(name, which):
    m = explicit_model()
    only = ModelConstraints(**{n: n == name for n in CONSTRAINT_NAMES})
    assert verify_model(m, only)
    # An image table that agrees with the model on 0, E1 and E2 but sends
    # (1, 1) to 0.  No endomorphism does that, so a check on the generators
    # alone would pass it; the verifier must look at every element.
    phi = getattr(m, which)
    bad = Endo93(phi.e1_img, phi.e2_img)
    images = list(bad.images)
    images[3 * 1 + 1] = 0
    object.__setattr__(bad, "images", tuple(images))
    assert not verify_model(replace(m, **{which: bad}), only)
