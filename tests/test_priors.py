"""Prior construction, moments, catalog, and serialization."""

import math

import numpy as np
import pytest

from replica_lab import (
    InvalidPriorError,
    make_prior,
    mean,
    parse_prior_spec,
    prior_from_json,
    prior_to_json,
    second_moment,
    standard_priors,
    support_bound,
)
from replica_lab.priors import (
    asymmetric_binary_prior,
    point_mass_prior,
    rademacher_prior,
    sparse_rademacher_prior,
    uniform_prior,
)


def test_rademacher_basics():
    p = make_prior([(1.0, 0.5), (-1.0, 0.5)])
    assert support_bound(p) == 1.0
    assert second_moment(p) == 1.0


def test_asymmetric_mean():
    p = make_prior([(1.0, 0.7), (-1.0, 0.3)])
    assert mean(p) == pytest.approx(0.4, abs=1e-15)


def test_three_atom_second_moment():
    p = make_prior([(2.0, 0.25), (0.0, 0.5), (-2.0, 0.25)])
    assert second_moment(p) == pytest.approx(2.0, abs=1e-15)
    assert support_bound(p) == 2.0


def test_point_mass():
    p = point_mass_prior(0.3)
    assert second_moment(p) == pytest.approx(0.09, abs=1e-15)
    assert support_bound(p) == pytest.approx(0.3)
    assert second_moment(point_mass_prior(0.0)) == 0.0


def test_invalid_priors_rejected():
    with pytest.raises(InvalidPriorError):
        make_prior([])
    with pytest.raises(InvalidPriorError):
        make_prior([(float("inf"), 1.0)])
    with pytest.raises(InvalidPriorError):
        make_prior([(1.0, 0.0), (2.0, 1.0)])
    with pytest.raises(InvalidPriorError):
        make_prior([(1.0, -0.5), (2.0, 1.5)])
    with pytest.raises(InvalidPriorError):
        make_prior([(1.0, 0.5), (1.0, 0.5)])  # duplicate values


def test_weight_renormalization_window():
    # within 1e-9 of 1: renormalized
    p = make_prior([(1.0, 0.5 + 2e-10), (-1.0, 0.5)])
    assert abs(p.weights.sum() - 1.0) <= 1e-15
    # beyond: rejected, a silent fix would hide caller bugs
    with pytest.raises(InvalidPriorError):
        make_prior([(1.0, 0.6), (-1.0, 0.5)])


def test_catalog_contents_and_moments():
    cat = standard_priors()
    for name in ("rademacher", "sparse:0.25", "asym:0.7", "uniform:21"):
        assert name in cat
        p = cat[name]
        assert abs(p.weights.sum() - 1.0) <= 1e-12
    assert second_moment(cat["rademacher"]) == pytest.approx(1.0, abs=1e-12)
    assert second_moment(cat["sparse:0.25"]) == pytest.approx(1.0, abs=1e-12)
    assert second_moment(cat["asym:0.7"]) == pytest.approx(1.0, abs=1e-12)
    assert abs(second_moment(cat["uniform:21"]) - 1.0) <= 1e-3
    assert len(cat["uniform:21"].atoms) >= 21
    assert abs(mean(cat["uniform:21"])) <= 1e-12


def test_sparse_rademacher_structure():
    p = sparse_rademacher_prior(0.25)
    atoms = dict(p.atoms)
    assert atoms[2.0] == pytest.approx(0.125)
    assert atoms[0.0] == pytest.approx(0.75)
    assert second_moment(p) == pytest.approx(1.0, abs=1e-12)


def test_sparse_rho_one_degenerates_to_rademacher():
    p = sparse_rademacher_prior(1.0)
    assert sorted(v for v, _ in p.atoms) == [-1.0, 1.0]
    assert all(w == 0.5 for _, w in p.atoms)


def test_sparse_unit_second_moment_over_rho():
    rng = np.random.default_rng(123)
    for rho in list(rng.uniform(0.01, 1.0, 25)) + [0.05, 0.25, 0.5, 1.0]:
        assert abs(second_moment(sparse_rademacher_prior(float(rho))) - 1.0) <= 1e-12


def test_uniform_prior_shape():
    p = uniform_prior(21)
    assert len(p.atoms) == 21
    assert abs(mean(p)) <= 1e-12
    assert second_moment(p) == pytest.approx(1.0, abs=1e-12)
    assert support_bound(p) <= math.sqrt(3.0) * 1.01
    raw = uniform_prior(21, unit_second_moment=False)
    assert support_bound(raw) < math.sqrt(3.0)
    # midpoint rule bias h^2/12 before rescaling
    h = 2.0 * math.sqrt(3.0) / 21
    assert second_moment(raw) == pytest.approx(1.0 - h * h / 12.0, abs=1e-12)


@pytest.mark.parametrize("unit", [True, False])
def test_uniform_prior_exact_mirror_images(unit):
    for n in range(2, 201):
        p = uniform_prior(n, unit_second_moment=unit)
        assert np.array_equal(p.values, -p.values[::-1]), n
        if n % 2:
            assert p.values[n // 2] == 0.0, n
        if unit:
            assert abs(second_moment(p) - 1.0) <= 1e-12, n


def test_parse_prior_spec():
    assert parse_prior_spec("rademacher").atoms == rademacher_prior().atoms
    assert parse_prior_spec("sparse:0.25").atoms == sparse_rademacher_prior(0.25).atoms
    assert parse_prior_spec("asym:0.7").atoms == asymmetric_binary_prior(0.7).atoms
    assert parse_prior_spec("uniform:21").atoms == uniform_prior(21).atoms
    assert parse_prior_spec("point:0.5").atoms == point_mass_prior(0.5).atoms
    for bad in ("nosuch", "sparse:2", "sparse:", "uniform:one", "asym:1.5"):
        with pytest.raises(InvalidPriorError):
            parse_prior_spec(bad)


def test_json_round_trip():
    for p in standard_priors().values():
        d = prior_to_json(p)
        assert set(d) == {"name", "atoms"}
        q = prior_from_json(d)
        assert q.atoms == p.atoms
        assert q.name == p.name
