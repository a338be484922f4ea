import itertools
import math

import numpy as np
import pytest

from qpwave import (
    Band,
    DispersionSymbol,
    TrigPoly,
    averaged_norm_check,
    bilinear_scan,
    biorthogonality_check,
    extremizer,
    picard_blowup_scan,
    strichartz_scan,
)
from qpwave.meannorms import windowed_product_norm_sq
from qpwave.verify import random_shell_poly
from conftest import random_poly

SCHROD = DispersionSymbol.schrodinger()


# -- biorthogonality ---------------------------------------------------------------


def brute_biortho(delta, grid_step):
    """Direct quadruple enumeration on a coarse grid (oracle)."""
    G = int(round(1 / grid_step))
    xs = [i * grid_step for i in range(G + 1)]
    best = 0.0
    count = 0
    cbrt = delta ** (1 / 3)
    for x1, x2, x3, x4 in itertools.product(xs, repeat=4):
        if abs((x1 + x2) - (x3 + x4)) > 1e-12:
            continue
        if x1 + x2 < cbrt - 1e-12:
            continue
        if abs(x1**3 + x2**3 - x3**3 - x4**3) > delta + 1e-12:
            continue
        count += 1
        best = max(best, min(abs(x1 - x3), abs(x1 - x4)))
    return best / cbrt, count


def test_biortho_matches_brute_force_oracle():
    delta, step = 0.01, 0.05
    rep = biorthogonality_check(delta, step)
    oracle_dist, oracle_count = brute_biortho(delta, step)
    assert rep.max_normalized_distance == pytest.approx(oracle_dist, abs=1e-12)
    # oracle counts ordered (xi1,xi2) x (xi3,xi4); the class scan counts
    # unordered pair representatives, so compare the distances only and check
    # both saw a nonempty family
    assert rep.n_quadruples > 0 and oracle_count > 0


def test_biortho_desk_scale_bound():
    for delta in (1e-3, 1e-4):
        rep = biorthogonality_check(delta, 1e-3)
        assert rep.ok
        assert rep.max_normalized_distance <= 1.0  # far below the K = 10 bound
        assert rep.n_quadruples > 0
        x1, x2, _, _ = rep.worst_quadruple
        assert x1 + x2 >= delta ** (1 / 3) - 1e-12


def test_biortho_validation():
    with pytest.raises(ValueError):
        biorthogonality_check(2.0)


# -- scan harnesses -------------------------------------------------------------------


def test_strichartz_scan_deterministic(sqrt2_spec):
    kw = dict(T=0.1, trials=2, seed=11, max_support=64)
    r1 = strichartz_scan(sqrt2_spec, [4, 8, 16], **kw)
    r2 = strichartz_scan(sqrt2_spec, [4, 8, 16], **kw)
    assert r1.rows == r2.rows
    assert r1.fit == r2.fit
    assert r1.hash == r2.hash
    r3 = strichartz_scan(sqrt2_spec, [4, 8, 16], T=0.1, trials=2, seed=12, max_support=64)
    assert r3.hash != r1.hash  # the seed is part of the resolved config


def test_strichartz_single_mode_floor(sqrt2_spec):
    # a single mode contributes T^{1/4}/T^{1/8} independent of C, so every
    # per-C max ratio is at least that
    T = 0.1
    rep = strichartz_scan(sqrt2_spec, [4, 8, 16], T=T, trials=1, seed=0, max_support=32)
    floor = T**0.25 / T**0.125
    assert all(row.value >= floor - 1e-12 for row in rep.rows)
    assert all(row.lo >= floor - 1e-12 for row in rep.rows)


def test_bilinear_single_mode_reduces_to_modulus(sqrt2_spec):
    # second factor of modulus one: the product norm collapses to the first
    # factor's L^2-in-time norm, ratio exactly T^{1/4}
    T = 0.2
    f1 = random_poly(sqrt2_spec, 6, np.random.default_rng(80), box=3)
    f2 = TrigPoly.single(sqrt2_spec, (9, -6), 1.0)
    energy = windowed_product_norm_sq([f1, f2], SCHROD, T)
    ratio = math.sqrt(energy) / (T**0.25 * f1.l2_norm() * f2.l2_norm())
    assert ratio == pytest.approx(T**0.25, rel=1e-10)


def test_bilinear_small_first_height_is_flat(sqrt2_spec):
    # C1 = 1 data: ratio stays O(1) as the big shell grows
    T = 0.1
    f1 = extremizer(sqrt2_spec, 1)
    vals = []
    for C2 in (16, 32, 64):
        f2 = extremizer(sqrt2_spec, C2)
        energy = windowed_product_norm_sq([f1, f2], SCHROD, T)
        vals.append(math.sqrt(energy) / (T**0.25 * f1.l2_norm() * f2.l2_norm()))
    assert max(vals) <= 3.0
    assert max(vals) / min(vals) <= 1.5


def test_bilinear_scan_slope_band(sqrt2_spec):
    rep = bilinear_scan(
        sqrt2_spec, [4, 8, 16], 64, T=0.1, trials=2, seed=3, max_support=128
    )
    assert -0.5 <= rep.slope <= 0.5 + 0.15
    assert rep.bands == (Band("bilinear slope", rep.slope, -0.5, 0.5 + 0.15),)
    with pytest.raises(ValueError):
        bilinear_scan(sqrt2_spec, [32], 16, T=0.1)


def test_averaged_check_flat_and_bounded(sqrt2_spec):
    rep = averaged_norm_check(sqrt2_spec, [8, 16, 32], trials=1, seed=2, max_support=64)
    assert abs(rep.slope) <= 0.1
    assert rep.extra["max_ratio"] <= 2.0**0.25 + 0.2


def test_averaged_check_periodic_matches_torus(int_spec):
    # rank-1 integer lattice: the evolved product is doubly periodic and the
    # global mean is the torus average (itself checked against quadrature in
    # the norm tests); here the scan relays exactly that number
    rep = averaged_norm_check(int_spec, [2, 4, 8], trials=1, seed=9)
    from qpwave import MixedNormSpec, mixed_norm_free
    from qpwave.verify import _scan_family

    g = MixedNormSpec(p=4, time_mode="global")
    for row in rep.rows:
        fam = _scan_family(int_spec, int(row.param))
        expect = mixed_norm_free(fam, SCHROD, g) / fam.l2_norm()
        assert row.value == pytest.approx(expect, rel=1e-12)


def test_random_shell_poly_subsampling(sqrt2_spec):
    rng = np.random.default_rng(1)
    f = random_shell_poly(sqrt2_spec, 32, rng, max_support=40)
    assert len(f) == 40
    assert f.l2_norm() == pytest.approx(1.0, rel=1e-12)
    # all modes really sit in the shell
    assert all(16 * 16 < sum(x * x for x in n) <= 32 * 32 for n in f.support)


def test_scan_report_files(tmp_path, sqrt2_spec):
    rep = strichartz_scan(sqrt2_spec, [4, 8, 16], T=0.1, trials=1, seed=0, max_support=32)
    csv = tmp_path / "scan.csv"
    js = tmp_path / "scan.json"
    rep.write_csv(csv)
    rep.write_json(js)
    text = csv.read_text().splitlines()
    assert text[2] == "param,value,lo_ci,hi_ci"
    assert str(rep.hash) in text[0]
    import json

    payload = json.loads(js.read_text())
    assert payload["config_hash"] == rep.hash
    assert payload["fit"]["slope"] == rep.slope
    assert payload["config"]["lattice"] == sqrt2_spec.to_dict()


def test_scan_config_records_the_budget_it_ran_under(sqrt2_spec, work_budget):
    default = strichartz_scan(sqrt2_spec, [2, 4, 8], trials=0, seed=0)
    work_budget(123456789)
    rep = strichartz_scan(sqrt2_spec, [2, 4, 8], trials=0, seed=0)
    assert rep.config["budget"] == 123456789
    assert rep.hash != default.hash
    assert rep.rows == default.rows
    work_budget(98765432)
    rep = picard_blowup_scan(sqrt2_spec, [2, 4, 8])
    assert rep.config["budget"] == 98765432


def test_picard_band_is_declared_for_the_cubic_iterate_only(sqrt2_spec):
    cubic = picard_blowup_scan(sqrt2_spec, [2, 4, 8])
    assert [b.label for b in cubic.bands] == ["picard slope"]
    assert picard_blowup_scan(sqrt2_spec, [2, 4, 8], power=3).bands == ()


def test_strichartz_rank_one_is_flat(int_spec):
    # periodic case: the windowed estimate carries no height loss
    rep = strichartz_scan(int_spec, [8, 16, 32, 64], T=0.1, trials=2, seed=5)
    assert abs(rep.slope) <= 0.15
    assert abs(rep.extra["extremizer_slope"]) <= 0.15


def test_averaged_single_mode_ratio_is_one(sqrt2_spec):
    rep = averaged_norm_check(sqrt2_spec, [8, 16, 32], trials=0, seed=0)
    # the single-mode sample pins the per-shell minimum at exactly 1
    assert all(row.lo == pytest.approx(1.0, rel=1e-12) for row in rep.rows)
