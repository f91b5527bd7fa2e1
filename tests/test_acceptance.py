"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from contextlib import contextmanager

from toric_linsys import (
    LinearSystem,
    PolytopeSystem,
    RankConfig,
    analyze,
    analyze_polytope_system,
    build_presentation,
    certificate_from_json,
    certificate_to_json,
    certify,
    demazure_roots,
    generic_rank,
    move_torus_point_to_invariant,
    normal_fan,
    section_polytope,
    to_standard_form,
    transitive_cones,
    validate_fan,
    verify_certificate,
    vertex_capsule,
)
from toric_linsys.catalog import (
    bl3p2_fan,
    box_polytope,
    hexagon_polytope,
    hirzebruch_fan,
    p1_power_fan,
    projective_space_fan,
    simplex_polytope,
    trapezoid_polytope,
    unit_square_polytope,
)
from toric_linsys.linalg import dot

from references import polygon_is_smooth, random_smooth_polygon


@contextmanager
def criterion(num, desc):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {desc}", flush=True)
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc} ({time.time() - t0:.2f}s)",
          flush=True)


def presentation(fan):
    return build_presentation(transitive_cones(fan))


def test_criterion_1_quasi_transitivity_verdicts():
    with criterion(1, "quasi-transitivity verdicts"):
        t0 = time.time()
        assert transitive_cones(bl3p2_fan()).transitive_cone_indices == ()
        f1 = hirzebruch_fan(1)
        v = transitive_cones(f1)
        assert len(v.transitive_cone_indices) == 2
        assert all(1 in f1.max_cones[ci] for ci in v.transitive_cone_indices)
        for n in range(1, 5):
            fan = projective_space_fan(n)
            assert validate_fan(fan).valid
            v = transitive_cones(fan)
            assert len(v.transitive_cone_indices) == len(fan.max_cones)
        for n in range(1, 5):
            fan = p1_power_fan(n)
            assert validate_fan(fan).valid
            v = transitive_cones(fan)
            assert len(v.transitive_cone_indices) == 2 ** n
        assert time.time() - t0 < 1.0


def test_criterion_2_capsule_fan_agreement():
    with criterion(2, "capsule/fan agreement for n = 2"):
        t0 = time.time()
        polys = [hexagon_polytope(), trapezoid_polytope(2, 1),
                 unit_square_polytope()]
        rng = random.Random(90210)
        while len(polys) < 23:
            polys.append(random_smooth_polygon(rng))
        checked = 0
        for poly in polys:
            assert polygon_is_smooth(poly)
            fan, verts = normal_fan(poly)
            verdict = transitive_cones(fan)
            for j, vert in enumerate(verts):
                capsule = vertex_capsule(poly, tuple(int(x) for x in vert))
                assert capsule.certified
                fan_says = j in verdict.transitive_cone_indices
                assert capsule.contains_polytope == fan_says
                checked += 1
        assert checked >= 4 * len(polys)
        assert time.time() - t0 < 5.0


def test_criterion_3_demazure_root_counts():
    with criterion(3, "Demazure root counts and Aut dimensions"):
        cases = [
            (projective_space_fan(2), 6, None, 8),
            (hirzebruch_fan(1), 4, (1, 2, 1, 0), 6),
            (p1_power_fan(2), 4, (1, 1, 1, 1), 6),
        ]
        for fan, total, per_ray, aut_dim in cases:
            roots = demazure_roots(fan)
            assert len(roots) == total
            if per_ray is not None:
                counts = [0] * len(fan.rays)
                for r in roots:
                    counts[r.ray_index] += 1
                assert tuple(counts) == per_ray
            assert fan.rank + len(roots) == aut_dim


def test_criterion_4_p1_power_7_toric_special():
    with criterion(4, "(P1)^7 multidegree (1,..,1) with three triple points"):
        t0 = time.time()
        cp = presentation(p1_power_fan(7))
        L = LinearSystem(cp, (1,) * 7, (3, 3, 3))
        sec = L.section()
        assert sec.h0 == 128
        rep = analyze(L, RankConfig(trials=5, seed=2026))
        assert rep.tvdim == 128 - 3 * 29 - 1 == 40
        assert rep.tedim == 40
        assert rep.dim == 41
        assert rep.dim - rep.tedim == 1
        assert rep.rank == 86
        assert rep.toric_special
        assert len(rep.samples) == 5
        assert time.time() - t0 < 30.0


def test_criterion_5_projective_space_coincidence():
    with criterion(5, "on P^n toric speciality coincides with speciality"):
        rng = random.Random(5150)
        fans = {2: presentation(projective_space_fan(2)),
                3: presentation(projective_space_fan(3))}
        for i in range(50):
            n = 2 if i % 2 == 0 else 3
            cp = fans[n]
            d = rng.randint(1, 5 if n == 2 else 3)
            k = rng.randint(1, 4)
            mults = tuple(rng.randint(1, 4) for _ in range(k))
            rep = analyze(LinearSystem(cp, (d,), mults),
                          RankConfig(seed=rng.randint(0, 10 ** 6)))
            assert rep.tedim == rep.edim
            assert rep.special == rep.toric_special
            if d >= max(mults) - 1:
                assert rep.tvdim == rep.vdim
        # classical cross-checks
        cp2 = fans[2]
        rep = analyze(LinearSystem(cp2, (2,), (2, 2)), RankConfig(seed=1))
        assert rep.dim == 0 and rep.special
        rep = analyze(LinearSystem(cp2, (1,), (2,)), RankConfig(seed=1))
        assert rep.dim == -1 and not rep.special


def test_criterion_6_hirzebruch_family():
    with criterion(6, "F1 family (n, m): toric non-special throughout"):
        t0 = time.time()
        cp = presentation(hirzebruch_fan(1))
        gaps = {}
        for n in range(2, 7):
            for m in (1, 2):
                k = n // (m + 1)
                L = LinearSystem(cp, (n, m), (m + 1,) * k)
                rep = analyze(L, RankConfig(seed=100 * n + m))
                assert rep.dim == rep.tedim, (n, m)
                gaps[(n, m)] = rep.dim - rep.edim
        print(f"  F1 family dim-edim gaps (reported, not asserted): {gaps}")
        assert time.time() - t0 < 10.0


def test_criterion_7_degeneration_soundness():
    with criterion(7, "degeneration certificate soundness and verification"):
        rng = random.Random(7007)
        systems = []
        for a, b in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 2)):
            systems.append((box_polytope((a, b)), (1, 1)))
            systems.append((box_polytope((a, b)), (2, 1)))
        for d in (2, 3, 4):
            systems.append((simplex_polytope(2, d), (1, 1)))
            systems.append((simplex_polytope(2, d), (d, 1)))
        for n, m in ((2, 1), (3, 1), (4, 1), (4, 2), (5, 2)):
            systems.append((trapezoid_polytope(n, m), (m + 1, 1)))
            systems.append((trapezoid_polytope(n, m), (1, 1)))
        systems.append((box_polytope((2, 2, 2)), (1, 1)))
        systems.append((box_polytope((2, 1, 1)), (2, 1)))
        systems.append((simplex_polytope(2, 3), (2,)))
        systems.append((trapezoid_polytope(2, 1), (2,)))
        assert len(systems) == 30
        certified = []
        for poly, mults in systems:
            cert = certify(PolytopeSystem(poly, mults), max_depth=5,
                           cfg=RankConfig(seed=rng.randint(0, 10 ** 6)))
            if cert is None:
                continue
            certified.append((poly, mults, cert))
        assert len(certified) >= 20
        for poly, mults, cert in certified:
            rep = analyze_polytope_system(poly, mults,
                                          RankConfig(seed=rng.randint(0, 10 ** 6)))
            assert rep.dim == rep.tedim, (poly, mults)
            assert verify_certificate(cert, RankConfig(seed=rng.randint(0, 10 ** 6)))
        # ten mutated certificates must all be rejected
        split_cert = next(c for _, _, c in certified if c.kind == "split")
        leaf_cert = next(c for _, _, c in certified if c.kind == "leaf")
        sdoc = certificate_to_json(split_cert)
        ldoc = certificate_to_json(leaf_cert)
        mutations = [
            (sdoc, lambda d: d.update(tvdim=d["tvdim"] + 1)),
            (sdoc, lambda d: d.update(h0=d["h0"] - 1)),
            (sdoc, lambda d: d["split"].update(level=d["split"]["level"] + 1)),
            (sdoc, lambda d: d["split"].update(axis=1 - d["split"]["axis"])),
            (sdoc, lambda d: d["children"][0].update(
                tvdim=d["children"][0]["tvdim"] - 2)),
            (sdoc, lambda d: d.update(mults=[m + 1 for m in d["mults"]])),
            (sdoc, lambda d: d["polytope"]["offsets"].__setitem__(-1, 99)),
            (ldoc, lambda d: d["report"].update(dim=d["report"]["dim"] + 1)),
            (ldoc, lambda d: d.update(truncations=[t + 1 for t in d["truncations"]])),
            (ldoc, lambda d: d["report"].update(
                rank=d["report"]["rank"] - 1, dim=d["report"]["dim"] + 1,
                tedim=d["report"]["tedim"] + 1)),
        ]
        rejected = 0
        for base, fn in mutations:
            bad = json.loads(json.dumps(base))
            fn(bad)
            if not verify_certificate(certificate_from_json(bad),
                                      RankConfig(seed=rng.randint(0, 10 ** 6))):
                rejected += 1
        assert rejected == 10


def test_criterion_8_rank_engine_oracle_equivalence():
    with criterion(8, "modular rank equals exact rank; prime invariance"):
        patterns = [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]
        systems = []
        cp2 = presentation(projective_space_fan(2))
        for d in range(1, 8):
            for mu in patterns:
                systems.append((cp2, (d,), mu))
        cp3 = presentation(projective_space_fan(3))
        for d in range(1, 4):
            for mu in patterns:
                systems.append((cp3, (d,), mu))
        cpf = presentation(hirzebruch_fan(1))
        for n, m in ((1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2),
                     (5, 2)):
            for mu in patterns[:4]:
                systems.append((cpf, (n, m), mu))
        cpp = presentation(p1_power_fan(2))
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                for mu in patterns[:3]:
                    systems.append((cpp, (a, b), mu))
        checked = 0
        for i, (cp, dclass, mults) in enumerate(systems):
            L = LinearSystem(cp, dclass, mults)
            if L.section().h0 > 40:
                continue
            rk_mod, ev = generic_rank(L, RankConfig(trials=5, seed=800 + i))
            rk_ex, _ = generic_rank(L, RankConfig(trials=2, seed=900 + i,
                                                  exact=True))
            assert rk_mod == rk_ex, (dclass, mults)
            # invariant across 5 distinct 61-bit primes
            primes = [e.prime for e in ev]
            assert len(set(primes)) == 5
            assert all(2 ** 60 <= p < 2 ** 61 for p in primes)
            assert len({e.rank for e in ev}) == 1
            checked += 1
        assert checked >= 100


def test_criterion_9_structural_invariants():
    with criterion(9, "structural invariants"):
        rng = random.Random(909)
        quasi = [projective_space_fan(2), projective_space_fan(3),
                 projective_space_fan(4), p1_power_fan(2), p1_power_fan(3),
                 hirzebruch_fan(0), hirzebruch_fan(1), hirzebruch_fan(2)]
        for fan in quasi:
            cp = presentation(fan)
            # exactness of the presentation
            for grow in cp.grading_matrix:
                for prow in cp.ray_matrix:
                    assert dot(grow, prow) == 0
            # h0 invariance under 10 random linearly equivalent representatives
            r, n = cp.num_rays, cp.rank
            for _ in range(3):
                coeffs = tuple(rng.randint(0, 2) for _ in range(r))
                std = to_standard_form(cp, coeffs)
                h0 = section_polytope(cp, std).h0
                for _ in range(10):
                    e = tuple(rng.randint(-2, 2) for _ in range(n))
                    twisted = tuple(c + dot(e, ray)
                                    for c, ray in zip(coeffs, cp.fan.rays))
                    assert section_polytope(cp, to_standard_form(cp, twisted)).h0 == h0
            # torus points move to the invariant point: first n coords zeroed
            for _ in range(100):
                p = tuple(rng.choice((1, -1)) * rng.randint(1, 9)
                          for _ in range(r))
                steps, image = move_torus_point_to_invariant(cp, p)
                assert all(x == 0 for x in image[:n])
                assert image[n:] == tuple(map(lambda v: v * 1, p[n:]))
            # the dimension chain on random systems (analyze raises otherwise)
            for _ in range(5):
                d = tuple(rng.randint(0, 2) for _ in range(cp.class_rank))
                mults = tuple(rng.randint(1, 3)
                              for _ in range(rng.randint(0, 2)))
                rep = analyze(LinearSystem(cp, d, mults),
                              RankConfig(seed=rng.randint(0, 10 ** 6)))
                assert rep.dim >= rep.tedim >= rep.edim
