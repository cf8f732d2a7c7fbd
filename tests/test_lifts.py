"""Coefficient lifts, Spezialschar membership, Fourier-Jacobi round trip,
Dirichlet factorization."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from octolift import lifts
from octolift.coset import (GramTriple, breve, divisor_grams, gram,
                            hnf_right_cosets, is_strongly_primitive, mat2,
                            mat2_det, mat2_scale, pair_act, reduce_gram)
from octolift.lifts import (HalfIntegralTable, InsufficientTableError,
                            QuatTable, SiegelTable, a_prim,
                            classical_maass_check, classical_maass_lift,
                            dirichlet_factor_check, fj_extract, fj_pair,
                            maass_membership, reduced_triples,
                            spezialschar_keys, theta_star_table)
from octolift.scalar import GZERO, GaussRational

import oracles
from oracles import (DirichletPoly, dirichlet_factor_check_by_series,
                     dirichlet_series, jacobi_coeffs,
                     primitive_dirichlet_series)


def _random_half_table(seed, bound, weight=10):
    rng = random.Random(seed)
    entries = {n: GaussRational(Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 3)),
                                Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 3)))
               for n in range(bound + 1) if n % 4 in (0, 3)}
    return HalfIntegralTable(weight, entries)


def _random_siegel_table(seed, discbound, weight=4):
    rng = random.Random(seed)
    entries = {t: GaussRational(Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 3)),
                                Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 3)))
               for t in reduced_triples(discbound)}
    return SiegelTable(weight, entries)


def test_half_table_support_rule():
    with pytest.raises(ValueError):
        HalfIntegralTable(10, {1: GZERO})
    c = HalfIntegralTable(10, {3: GaussRational.make(1)})
    assert c.c(2) == GZERO          # 2 mod 4: forced zero
    assert c.c(-4) == GZERO
    with pytest.raises(InsufficientTableError):
        c.c(7)                      # supported but absent: never silently 0


def test_reduced_key_check_is_reduce_gram():
    """SiegelTable accepts a key by 0 <= b <= a <= c and 4ac - b^2 > 0; on
    every triple with entries in -12..12 that agrees with reduce_gram(t) ==
    t for a positive definite t.  A triple that is not positive
    semidefinite is named so, as reduce_gram rejects it too, and a reduced
    singular one is rejected as no key of a cusp form."""
    span = range(-12, 13)
    for a in span:
        for b in span:
            for c in span:
                t = GramTriple(a, b, c)
                try:
                    reduced = reduce_gram(t) == t
                except ValueError:
                    reduced = None
                try:
                    SiegelTable(4, {t: GZERO})
                    accepted = True
                except ValueError as e:
                    accepted = False
                    assert ("positive semidefinite" in str(e)) == (
                        reduced is None)
                    assert ("cuspidal" in str(e)) == (
                        bool(reduced) and not t.is_positive_definite())
                assert accepted == (bool(reduced)
                                    and t.is_positive_definite()), t


def _quat_key_error(lam):
    """The ValueError text of a one-key QuatTable on lam, None if built."""
    try:
        QuatTable(4, {lam: GZERO})
    except ValueError as e:
        return str(e)
    return None


def test_quat_table_key_check_is_gram_is_positive_definite():
    """QuatTable tests det T1 > 0 and 4AC > B^2 from the eight entries; on
    every pair with entries in -1..1, and on drawn pairs on the boundary
    (det T1 = 0, or T1 and T2 proportional so that 4AC = B^2), it accepts
    exactly the keys with gram(lam).is_positive_definite(), and names the
    others in one message."""
    rng = random.Random(53)
    pairs = [(mat2(*e[:4]), mat2(*e[4:]))
             for e in product((-1, 0, 1), repeat=8)]
    for _ in range(500):
        T = mat2(*(rng.randint(-4, 4) for _ in range(4)))
        pairs.append((mat2_scale(rng.randint(-3, 3), T),
                      mat2_scale(rng.randint(-3, 3), T)))
        a, b, k = (rng.randint(-4, 4) for _ in range(3))
        pairs.append((mat2(a, b, k * a, k * b), T))
    boundary = {"A = 0": 0, "A > 0, 4AC = B^2": 0}
    for lam in pairs:
        S = gram(lam)
        if S.a == 0:
            boundary["A = 0"] += 1
        elif S.a > 0 and S.disc() == 0:
            boundary["A > 0, 4AC = B^2"] += 1
        want = (None if S.is_positive_definite() else
                f"key {lam} has non-positive-definite gram")
        assert _quat_key_error(lam) == want
    assert min(boundary.values()) > 100, boundary


def test_siegel_table_canonicalizes_lookups():
    F = SiegelTable(4, {GramTriple(1, 0, 1): GaussRational.make(5)})
    assert F.a(GramTriple(1, 0, 1)) == F.a(GramTriple(1, 2, 2))
    assert F.a(GramTriple(0, 0, 3)) == GZERO   # singular: cuspidal zero
    with pytest.raises(InsufficientTableError,
                       match=r"a=1, b=1, c=2\)\) not in table"):
        F.a(GramTriple(2, 3, 2))                # definite, reduces to (1, 1, 2)
    with pytest.raises(ValueError):
        SiegelTable(4, {GramTriple(1, 2, 2): GZERO})   # unreduced key
    with pytest.raises(ValueError):
        SiegelTable(3, {})                             # odd weight


def test_reduced_triples_complete_and_reduced():
    ts = reduced_triples(40)
    assert ts == sorted(ts)
    assert len(ts) == len(set(ts))
    for t in ts:
        assert 0 <= t.b <= t.a <= t.c and 0 < t.disc() <= 40
        assert reduce_gram(t) == t
    # completeness against a direct scan
    brute = {reduce_gram(GramTriple(a, b, c))
             for a in range(1, 11) for b in range(-10, 11)
             for c in range(1, 11)
             if 0 < 4 * a * c - b * b <= 40}
    assert set(ts) == brute


def test_classical_lift_satisfies_classical_check():
    for seed in (0, 1):
        c = _random_half_table(seed, 120)
        F = classical_maass_lift(c, 10, 120)
        assert classical_maass_check(F)
        # keys with coprime entries reproduce the half-integral coefficients
        for t in F.entries:
            if gcd(gcd(t.a, t.b), t.c) == 1:
                assert F.entries[t] == c.c(t.disc())


def test_classical_check_detects_corruption():
    c = _random_half_table(2, 80)
    F = classical_maass_lift(c, 10, 80)
    entries = dict(F.entries)
    key = GramTriple(2, 2, 2)   # imprimitive key constrained by the relation
    entries[key] = entries[key] + 1
    assert not classical_maass_check(SiegelTable(10, entries))


def _principal(D):
    """The principal reduced form of discriminant D = 0, 3 mod 4."""
    return (GramTriple(1, 0, D // 4) if D % 4 == 0
            else GramTriple(1, 1, (D + 1) // 4))


@pytest.mark.parametrize("weight", [4, 10])
def test_a_table_passing_the_classical_check_is_a_classical_lift(weight):
    # The converse on the classical side.  The check's right-hand side
    # reads a_F(ac/d^2, b/d, 1) alone, and (m, b, 1) is equivalent to the
    # principal form of discriminant 4m - b^2, so a table that passes is
    # the lift of c(D) := a_F(principal form of disc D).  The table is
    # built from random principal values by that relation, not by the lift.
    rng = random.Random(weight)
    principal = {D: GaussRational(Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 3)),
                                  Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 3)))
                 for D in range(3, 145) if D % 4 in (0, 3)}
    entries = {}
    for t in reduced_triples(144):
        g, total = gcd(gcd(t.a, t.b), t.c), GZERO
        for d in range(1, g + 1):
            if g % d == 0:
                total += d ** (weight - 1) * principal[t.disc() // (d * d)]
        entries[t] = total
    F = SiegelTable(weight, entries)
    assert len(F.entries) == 223 and classical_maass_check(F)
    c = HalfIntegralTable(weight, {D: F.a(_principal(D)) for D in principal})
    assert classical_maass_lift(c, weight, 144).entries == F.entries
    # one non-principal key off by 1, and the check names it
    t = min(t for t in F.entries if t.a > 1)
    report = classical_maass_check(SiegelTable(weight,
                                               {**entries, t: entries[t] + 1}))
    assert not report and str(t) in report.detail


def test_jacobi_coeffs_symmetry():
    c = _random_half_table(3, 60)
    jc = jacobi_coeffs(c, 10)
    for (n, r), v in jc.items():
        assert 4 * n - r * r >= 0
        assert jc[(n, -r)] == v
        assert v == c.c(4 * n - r * r)


def test_spezialschar_keys_cover_their_closure():
    keys = set(spezialschar_keys(6))
    from octolift.coset import divisor_cosets
    for lam in keys:
        assert gram(lam).is_positive_definite()
        for _r, mu in divisor_cosets(lam):
            assert breve(gram(mu)) in keys


def test_theta_star_table_is_in_the_spezialschar():
    F = _random_siegel_table(4, 4 * 12, weight=4)
    phi = theta_star_table(F, 12)
    assert maass_membership(phi)


def test_theta_star_table_builds_each_keys_divisor_grams_once(monkeypatch):
    """divisor_grams runs once on each base pair whose grams are not given
    in closed form, the multiples d*breve(t) and the extra pairs, in base
    order, and never on breve(t), fj_pair(t) or a key that only the
    breve-closure adds: those are strongly primitive with gram t, so
    ((1, t),) are their divisor grams."""
    F = _random_siegel_table(4, 4 * 12, weight=4)
    lam = breve(GramTriple(1, 1, 2))
    extra = [pair_act(lam, g) for g in hnf_right_cosets(2)]
    want = theta_star_table(F, 12, extra)
    calls = []
    build = lifts.divisor_grams
    monkeypatch.setattr(lifts, "divisor_grams",
                        lambda lam: calls.append(lam) or build(lam))
    phi = theta_star_table(F, 12, extra)
    assert phi == want
    multiples = [(mat2_scale(d, breve(t)[0]), mat2_scale(d, breve(t)[1]))
                 for t in reduced_triples(4 * 12) for d in (2, 3)
                 if d ** 4 * t.disc() <= 4 * 12]
    assert len(multiples) == 1 and len(extra) == 3
    assert calls == multiples + extra
    closed = {f(gram(mu)) for mu in phi.entries for f in (breve, fj_pair)}
    assert closed.isdisjoint(calls)
    assert len(phi.entries) > len(calls)


@pytest.mark.parametrize("detbound", range(1, 13))
def test_closed_form_base_grams_are_the_enumerated_ones(detbound):
    """breve(t) and fj_pair(t) enter the family with divisor grams
    ((1, t),), and those are what divisor_grams and the coset enumeration
    give."""
    given = [(lam, grams) for lam, grams in lifts._base_pairs(detbound, ())
             if grams is not None]
    assert len(given) == 2 * len(reduced_triples(4 * detbound))
    for lam, ((n, t),) in given:
        assert (n, gram(lam)) == (1, t)
        assert divisor_grams(lam) == [(1, t)]
        assert [(abs(mat2_det(r)), gram(mu))
                for r, mu in oracles.divisor_cosets(lam)] == [(1, t)]


@pytest.mark.parametrize("detbound", range(1, 13))
def test_spezialschar_keys_match_the_closure_over_divisor_cosets(detbound):
    assert spezialschar_keys(detbound) == \
        oracles.spezialschar_keys_by_cosets(detbound)


def test_spezialschar_keys_with_the_dirichlet_orbit_as_extras():
    """The keys theta_star_table tabulates with the extra pairs of
    `dirichlet --bound 12 --count 5` on a Siegel table: the orbits
    lambda.g, |det g| <= 12, of its five strongly primitive pairs."""
    triples = sorted(reduced_triples(8), key=lambda t: (t.disc(), t))
    lams = list(dict.fromkeys(f(t) for t in triples
                              for f in (breve, fj_pair)))[:5]
    extra = [pair_act(lam, g) for lam in lams for n in range(1, 13)
             for g in hnf_right_cosets(n)]
    F = _random_siegel_table(3, max(gram(mu).disc() for mu in extra))
    keys = sorted(theta_star_table(F, 1, extra_pairs=extra).entries)
    assert keys == oracles.spezialschar_keys_by_cosets(1, extra)
    assert len(keys) > len(set(extra))


def test_siegel_table_max_disc():
    F = _random_siegel_table(4, 4 * 12, weight=4)
    assert F.max_disc == max(t.disc() for t in F.entries) == 48
    assert SiegelTable(4, {}).max_disc == 0


def test_maass_membership_detects_corruption():
    # det bound 12 covers the imprimitive key 2 * breve((1,1,1)), whose
    # condition (ii) pins the primitive value it is corrupted against
    F = _random_siegel_table(5, 4 * 12, weight=4)
    phi = theta_star_table(F, 12)
    entries = dict(phi.entries)
    lam = breve(GramTriple(1, 1, 1))
    key = (tuple(tuple(2 * e for e in row) for row in lam[0]),
           tuple(tuple(2 * e for e in row) for row in lam[1]))
    assert key in entries
    entries[key] = entries[key] + 1
    assert not maass_membership(QuatTable(phi.weight, entries))


@pytest.mark.parametrize("weight", [4, 10, 16])
def test_divisor_gram_sums_match_the_coset_oracles(weight):
    # theta* and membership read S(mu) from divisor_grams; the oracles
    # build every mu = lambda . r^-1 and take its gram
    F = _random_siegel_table(30 + weight, 4 * 12, weight=weight)
    phi = theta_star_table(F, 12)
    imprimitive = sorted(lam for lam in phi.entries
                         if not is_strongly_primitive(lam))
    assert any(len(oracles.divisor_cosets(lam)) > 2 for lam in imprimitive)
    for lam, value in phi.entries.items():
        assert value == oracles.theta_star_by_cosets(F, lam)
    rng = random.Random(weight)
    tables = [phi]
    for _ in range(3):
        # condition (ii) pins an imprimitive key against breve(S(lambda))
        entries = dict(phi.entries)
        lam = rng.choice(imprimitive)
        entries[lam] = entries[lam] + GaussRational.make(0, 1)
        tables.append(QuatTable(weight, entries))
    # condition (i) broken: random values on every key
    tables.append(QuatTable(weight, {
        lam: GaussRational.make(rng.randint(-3, 3), rng.randint(-3, 3))
        for lam in phi.entries}))
    # condition (i) broken on two strongly primitive keys of one gram t:
    # breve(t) and fj_pair(t) (distinct, as t.a > 1), then fj_pair(t) and
    # the key -fj_pair(t) of gram t, added with another coefficient
    t = rng.choice([t for t in reduced_triples(4 * 12) if t.a > 1])
    entries = dict(phi.entries)
    entries[breve(t)] += GaussRational.make(0, 1)
    tables.append(QuatTable(weight, entries))
    neg = tuple(tuple(tuple(-e for e in row) for row in T)
                for T in fj_pair(t))
    assert gram(neg) == t and is_strongly_primitive(neg)
    assert neg not in phi.entries
    entries = {**phi.entries, neg: phi.entries[fj_pair(t)] + 1}
    tables.append(QuatTable(weight, entries))
    for table in tables:
        assert maass_membership(table) == \
            oracles.maass_membership_by_cosets(table)
        assert maass_membership(table).ok == \
            oracles.maass_membership_two_conditions(table)
    assert maass_membership(phi).ok
    assert not any(maass_membership(t).ok for t in tables[1:])


def test_membership_names_the_first_broken_gram_and_key():
    """Broken at two grams for condition (i), the report names the gram of
    the first broken key in table order, even when the other gram's
    strongly primitive keys start earlier; broken at two keys for
    condition (ii), it names the first broken key.  The table is in the
    sorted order of a table file."""
    F = _random_siegel_table(9, 4 * 36, weight=4)
    phi = theta_star_table(F, 36)
    phi = QuatTable(phi.weight, dict(sorted(phi.entries.items())))
    keys = list(phi.entries)
    spans = {}     # gram -> (first, last) index of its strongly primitive keys
    for i, lam in enumerate(keys):
        if is_strongly_primitive(lam):
            first, _last = spans.get(gram(lam), (i, i))
            spans[gram(lam)] = (first, i)
    crossed = [(s, t) for s in spans for t in spans
               if spans[s][0] < spans[t][0] < spans[t][1] < spans[s][1]]
    assert crossed
    one = GaussRational.make(1)
    for s, t in crossed[:20]:
        entries = dict(phi.entries)
        for u in (t, s):    # the last key of t comes before the last of s
            # the last key is fj_pair(u), which no other key's condition
            # reads
            assert keys[spans[u][1]] == fj_pair(u) != breve(u)
            entries[keys[spans[u][1]]] += one
        table = QuatTable(phi.weight, entries)
        rep = maass_membership(table)
        assert rep.detail == f"condition (i) fails at gram {t}"
        assert rep == oracles.maass_membership_by_cosets(table)
    imprimitive = [lam for lam in keys if not is_strongly_primitive(lam)]
    rng = random.Random(9)
    for _ in range(20):
        a, b = sorted(rng.sample(range(len(imprimitive)), 2))
        entries = dict(phi.entries)
        for lam in (imprimitive[b], imprimitive[a]):
            entries[lam] += one
        table = QuatTable(phi.weight, entries)
        rep = maass_membership(table)
        assert rep.detail == f"condition (ii) fails at {imprimitive[a]}"
        assert rep == oracles.maass_membership_by_cosets(table)


def test_fj_pair_has_gram_t():
    for a, b, c in product(range(-4, 5), repeat=3):
        t = GramTriple(a, b, c)
        assert gram(fj_pair(t)) == t


def test_fj_round_trip():
    F = _random_siegel_table(6, 4 * 10, weight=6)
    phi = theta_star_table(F, 10)
    for t in reduced_triples(4 * 10):
        if fj_pair(t) in phi.entries:
            assert fj_extract(phi, t) == F.a(t)


def test_theta_star_table_on_a_primitive_pair_is_a_conjugate():
    F = _random_siegel_table(7, 4 * 6, weight=4)
    t = GramTriple(1, 1, 2)
    assert theta_star_table(F, 6).a(breve(t)) == F.a(t).conj()


def test_theta_star_table_rejects_a_degenerate_extra_pair():
    F = _random_siegel_table(8, 16, weight=4)
    with pytest.raises(ValueError):
        theta_star_table(F, 1,
                         extra_pairs=[(((1, 0), (0, 0)), ((0, 0), (0, 0)))])


def test_dirichlet_poly_convolution():
    one = DirichletPoly({1: GaussRational.make(1)}, 10)
    zeta = DirichletPoly({n: GaussRational.make(1)
                          for n in range(1, 11)}, 10)
    assert all(zeta.convolve(one)[n] == zeta[n] for n in range(1, 11))
    sq = zeta.convolve(zeta)
    for n in range(1, 11):
        divs = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert sq[n] == GaussRational.make(divs)


def _spezialschar_table_for(lam, bound, seed=9, weight=4):
    """theta* table covering the whole lam . g orbit needed to bound."""
    extra = [pair_act(lam, g) for n in range(1, bound + 1)
             for g in hnf_right_cosets(n)]
    disc_needed = max(gram(mu).disc() for mu in extra)
    F = _random_siegel_table(seed, disc_needed, weight)
    return F, theta_star_table(F, 1, extra_pairs=extra)


def test_dirichlet_factorization():
    lam = breve(GramTriple(1, 1, 1))
    _F, phi = _spezialschar_table_for(lam, 6)
    assert is_strongly_primitive(lam)
    assert dirichlet_factor_check(phi, lam, 6)


def test_dirichlet_factorization_fails_off_spezialschar():
    lam = breve(GramTriple(1, 1, 1))
    _F, phi = _spezialschar_table_for(lam, 4, seed=10)
    entries = dict(phi.entries)
    # corrupt one non-primitive orbit value so condition (ii) breaks
    g = hnf_right_cosets(2)[0]
    key = pair_act(lam, g)
    entries[key] = entries[key] + 1
    bad = QuatTable(phi.weight, entries)
    assert not dirichlet_factor_check(bad, lam, 4)


def test_dirichlet_series_requires_strong_primitivity():
    _F, phi = _spezialschar_table_for(breve(GramTriple(1, 1, 1)), 2, seed=12)
    lam2 = tuple(tuple(tuple(2 * e for e in row) for row in T)
                 for T in breve(GramTriple(1, 1, 1)))
    with pytest.raises(ValueError):
        dirichlet_series(phi, lam2, 2)
    with pytest.raises(ValueError):
        dirichlet_factor_check(phi, lam2, 2)


def test_dirichlet_check_matches_the_three_series_oracle():
    """The one-pass check gives the same Report as the three-series oracle
    on lambda = breve(t) and fj_pair(t) for four t, six seeds and weights 4
    and 10, to bound 8; on odd seeds one orbit value of the theta* table
    is corrupted, and both reports fail."""
    bound = 8
    cosets = [g for n in range(1, bound + 1) for g in hnf_right_cosets(n)]
    for weight in (4, 10):
        for seed in range(6):
            # disc S(lambda.g) = disc(t) |det g|^2 <= 15 * 8^2
            F = _random_siegel_table(seed, 15 * bound ** 2, weight)
            for abc in ((1, 1, 1), (1, 0, 1), (1, 1, 2), (2, 1, 2)):
                for make in (breve, fj_pair):
                    lam = make(GramTriple(*abc))
                    phi = theta_star_table(F, 1, extra_pairs=[
                        pair_act(lam, g) for g in cosets])
                    if seed % 2:
                        entries = dict(phi.entries)
                        g = random.Random(seed).choice(cosets[1:])
                        key = pair_act(lam, g)
                        entries[key] = entries[key] + 1
                        phi = QuatTable(weight, entries)
                    rep = dirichlet_factor_check(phi, lam, bound)
                    assert rep.ok != bool(seed % 2), (lam, seed, rep)
                    assert rep == dirichlet_factor_check_by_series(
                        phi, lam, bound), (lam, seed, weight)


def _dirichlet_candidates():
    """The strongly primitive pairs `dirichlet` draws on a Siegel table:
    breve(t) and fj_pair(t) over the reduced triples of disc <= 8."""
    return sorted({make(t) for t in reduced_triples(8)
                   for make in (breve, fj_pair)})


@pytest.mark.parametrize("weight", [4, 10])
def test_dirichlet_on_a_siegel_table_is_the_check_on_its_theta_star_table(
        weight):
    """dirichlet_factor_check on F reads theta*(F) along the orbit; it gives
    the Report of the check on the theta* table of that orbit, for every
    candidate pair and every bound to 10 (theta*(F) always factors, so
    each passes)."""
    bound = 10
    F = _random_siegel_table(weight, 8 * bound ** 2, weight)
    lams = _dirichlet_candidates()
    assert len(lams) == 4
    for lam in lams:
        phi = theta_star_table(F, 1, extra_pairs=[
            pair_act(lam, g) for n in range(1, bound + 1)
            for g in hnf_right_cosets(n)])
        for b in range(1, bound + 1):
            rep = dirichlet_factor_check(F, lam, b)
            assert rep.ok, (lam, b, rep)
            assert rep == dirichlet_factor_check(phi, lam, b), (lam, b)


def test_dirichlet_on_a_siegel_table_requires_strong_primitivity():
    F = _random_siegel_table(3, 64)
    lam2 = tuple(mat2_scale(2, T) for T in breve(GramTriple(1, 1, 1)))
    with pytest.raises(ValueError):
        dirichlet_factor_check(F, lam2, 2)


def test_primitive_series_agrees_on_primitive_part():
    lam = breve(GramTriple(1, 0, 1))
    _F, phi = _spezialschar_table_for(lam, 4, seed=13)
    prim = primitive_dirichlet_series(phi, lam, 4)
    full = dirichlet_series(phi, lam, 4)
    # n = 1 term of both series is a_phi(lam) / 1
    assert prim[1] == a_prim(phi, lam) == phi.a(lam) == full[1]
