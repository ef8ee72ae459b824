"""Bounded-support priors represented as finite mixtures of point atoms.

Every prior handled by this package is a probability law sum_i w_i * delta(v_i)
with strictly positive weights and finite, pairwise distinct atom values.
Continuous bounded laws enter through deterministic midpoint discretizations,
so all downstream expectations reduce to finite weighted sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidPriorError, _check_integer

# Renormalize silently only when the weight sum is this close to 1; a larger
# discrepancy is treated as a caller bug.
_WEIGHT_SUM_SLACK = 1e-9


@dataclass(frozen=True, eq=True)
class Prior:
    """A finite-atom probability law on the reals.

    atoms: tuple of (value, weight) with weights summing to 1.
    name:  short label used in reports and CLI output.
    """

    atoms: tuple[tuple[float, float], ...]
    name: str = ""

    @cached_property
    def values(self) -> np.ndarray:
        v = np.array([a[0] for a in self.atoms], dtype=np.float64)
        v.setflags(write=False)
        return v

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.array([a[1] for a in self.atoms], dtype=np.float64)
        w.setflags(write=False)
        return w

    @cached_property
    def log_weights(self) -> np.ndarray:
        lw = np.log(self.weights)
        lw.setflags(write=False)
        return lw

    @cached_property
    def mirror(self) -> tuple[np.ndarray | slice, np.ndarray, np.ndarray] | None:
        """(order, tilts, flips) for a sign-symmetric prior, None for any other.

        order indexes each atom's mirror image (-v, w): a reversing slice when
        that is the map (as for every catalog prior), which spares
        channel._node_tables' mirrored sum an index copy of each block (with
        the copy, a psi_bar_array call of uniform:21 at 7 points took 1.76
        times as long, 2-CPU Intel Xeon), else an index array.  tilts
        are the atoms v >= 0, those v > 0 in storage order and then v = 0
        (its own mirror), and flips the mirrors of the tilts v > 0.
        channel.psi_hat_array's mirrored route prices the tilts and builds
        the rows of the flips from them.
        """
        index = {v: i for i, (v, _) in enumerate(self.atoms)}
        order = [index.get(-v) for v, _ in self.atoms]
        if any(j is None or self.atoms[j][1] != w for j, (_, w) in zip(order, self.atoms)):
            return None
        order = np.array(order)
        positive = np.flatnonzero(self.values > 0.0)
        tilts = np.concatenate([positive, np.flatnonzero(self.values == 0.0)])
        flips = order[positive]
        for a in (order, tilts, flips):
            a.setflags(write=False)
        reverse = np.array_equal(order, np.arange(order.size)[::-1])
        return (slice(None, None, -1) if reverse else order), tilts, flips

    @cached_property
    def bound(self) -> float:
        """The support bound K = max_i |v_i|."""
        return float(np.max(np.abs(self.values)))

    def __repr__(self):
        return f"Prior({self.name or self.atoms!r})"


def make_prior(atoms, name: str = "") -> Prior:
    """Build a Prior from (value, weight) pairs.

    Weights are renormalized when their sum is within 1e-9 of 1 and rejected
    beyond that; a silent large renormalization would hide caller bugs.
    Duplicate atom values are an error rather than merged, for the same reason.
    """
    atoms = list(atoms)
    if not atoms:
        raise InvalidPriorError("prior needs at least one atom")
    values = [float(v) for v, _ in atoms]
    weights = [float(w) for _, w in atoms]
    if any(not math.isfinite(v) for v in values):
        raise InvalidPriorError(f"non-finite atom value in {values}")
    if any(not math.isfinite(w) or w <= 0.0 for w in weights):
        raise InvalidPriorError(f"weights must be finite and > 0, got {weights}")
    if len(set(values)) != len(values):
        raise InvalidPriorError(f"duplicate atom values in {values}")
    total = math.fsum(weights)
    if abs(total - 1.0) > _WEIGHT_SUM_SLACK:
        raise InvalidPriorError(
            f"weights sum to {total!r}, further than {_WEIGHT_SUM_SLACK} from 1"
        )
    weights = [w / total for w in weights]
    return Prior(tuple(zip(values, weights)), name=name)


def second_moment(p: Prior) -> float:
    """E[X^2] = sum_i w_i v_i^2; inf when an atom's square overflows, which every scale check refuses."""
    if p.bound * p.bound == math.inf:
        return math.inf
    return float(np.dot(p.weights, p.values**2))


def mean(p: Prior) -> float:
    """E[X] = sum_i w_i v_i."""
    return float(np.dot(p.weights, p.values))


def _sign_symmetric(p: Prior) -> bool:
    """Whether the multiset of p's (v, w) atoms equals that of (-v, w), that is, whether p.mirror exists.

    Every sign-symmetry decision reads this name: the solvers' folds, the
    finite layer's paired configurations and channel's mirrored route.
    """
    return p.mirror is not None


def rademacher_prior() -> Prior:
    """Atoms +-1 with weight 1/2 each."""
    return make_prior([(1.0, 0.5), (-1.0, 0.5)], name="rademacher")


def sparse_rademacher_prior(rho: float) -> Prior:
    """Atoms +-1/sqrt(rho) with weight rho/2 each and 0 with weight 1-rho.

    Unit second moment for every rho in (0, 1]; rho = 1 degenerates to the
    plain Rademacher prior (the zero atom would carry weight 0).
    """
    if not 0.0 < rho <= 1.0:
        raise InvalidPriorError(f"sparsity must lie in (0, 1], got {rho}")
    v = 1.0 / math.sqrt(rho)
    if rho == 1.0:
        atoms = [(v, 0.5), (-v, 0.5)]
    else:
        atoms = [(v, rho / 2.0), (0.0, 1.0 - rho), (-v, rho / 2.0)]
    return make_prior(atoms, name=f"sparse:{rho:g}")


def asymmetric_binary_prior(p_plus: float = 0.7) -> Prior:
    """Atoms +1 with weight p_plus and -1 with weight 1-p_plus."""
    if not 0.0 < p_plus < 1.0:
        raise InvalidPriorError(f"weight must lie in (0, 1), got {p_plus}")
    return make_prior([(1.0, p_plus), (-1.0, 1.0 - p_plus)], name=f"asym:{p_plus:g}")


def uniform_prior(n_atoms: int = 21) -> Prior:
    """Centered uniform law on [-sqrt(3), sqrt(3)] discretized by the midpoint rule.

    The raw midpoint discretization has second moment 1 - h^2/12 (h the cell
    width); the atom values are rescaled by the exact factor that restores
    E[X^2] = 1, which keeps the law centered, symmetric and bounded while
    removing the O(h^2) bias from every moment-sensitive downstream formula.

    The k-th midpoint is built as (k - (n-1)/2) h, whose half-integer factor
    is exact, so the atoms are exact mirror images (values == -values[::-1])
    and the center atom of an odd count is exactly 0.  n_atoms is an integer >= 2.
    """
    _check_integer("n_atoms", n_atoms)
    if n_atoms < 2:
        raise InvalidPriorError(f"need at least 2 atoms, got {n_atoms}")
    h = 2.0 * math.sqrt(3.0) / n_atoms
    mids = (np.arange(n_atoms) - (n_atoms - 1) / 2.0) * h
    mids = mids / math.sqrt(float(np.mean(mids**2)))
    w = 1.0 / n_atoms
    return make_prior([(float(v), w) for v in mids], name=f"uniform:{n_atoms}")


def point_mass_prior(c: float) -> Prior:
    """A single atom at c."""
    return make_prior([(float(c), 1.0)], name=f"point:{c:g}")


def standard_priors() -> dict[str, Prior]:
    """The catalog of priors exercised throughout the verification suite."""
    return {
        "rademacher": rademacher_prior(),
        "sparse:0.25": sparse_rademacher_prior(0.25),
        "asym:0.7": asymmetric_binary_prior(0.7),
        "uniform:21": uniform_prior(21),
    }


def parse_prior_spec(spec: str) -> Prior:
    """Parse a prior named on the command line.

    Accepted forms: "rademacher", "sparse:RHO", "asym:P", "uniform:N",
    "point:C".
    """
    spec = spec.strip()
    head, _, arg = spec.partition(":")
    try:
        if head == "rademacher" and not arg:
            return rademacher_prior()
        if head == "sparse":
            return sparse_rademacher_prior(float(arg))
        if head == "asym":
            return asymmetric_binary_prior(float(arg))
        if head == "uniform":
            return uniform_prior(int(arg))
        if head == "point":
            return point_mass_prior(float(arg))
    except (ValueError, InvalidPriorError) as e:
        raise InvalidPriorError(f"bad prior spec {spec!r}: {e}") from e
    raise InvalidPriorError(f"unknown prior spec {spec!r}")


def prior_to_json(p: Prior) -> dict:
    """JSON-ready form {name, atoms: [[v, w], ...]}."""
    return {"name": p.name, "atoms": [[v, w] for v, w in p.atoms]}


def prior_from_json(d: dict) -> Prior:
    return make_prior([(v, w) for v, w in d["atoms"]], name=d.get("name", ""))
