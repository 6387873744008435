"""Seeded inputs for the workloads, and the reference law the checks use.

Everything here is plain numpy over the controller's stored halfspaces
and gains and the plant matrices; nothing calls encmpc's own point
location, law evaluation or steady-state solver.  So the states a
workload feeds the program, and the values its outputs are checked
against, are computed apart from the code under test (beyond the
synthesized partition itself, which the oracle checks certify).
"""
from dataclasses import dataclass

import numpy as np

# slack per halfspace row, the same one PwaController.locate applies
MEMBER_TOL = 1e-9

# one SeedSequence branch per input stream, so streams never share draws
STREAMS = {"offline": 1, "loop": 2, "scattered": 3, "keys": 4}

# inputs that must not depend on --seed use this seed instead
FIXED_SEED = 0

SAMPLE_BATCH = 1000  # box draws per membership test in Partition.sample


def stream_rng(seed, name):
    """Generator for one named input stream of one benchmark seed."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), STREAMS[name]]))


class Partition:
    """A controller's regions, stacked for vectorized membership tests."""

    def __init__(self, controller):
        regions = controller.regions
        self.A = [np.asarray(r.poly.A, dtype=float) for r in regions]
        self.b = [np.asarray(r.poly.b, dtype=float) for r in regions]
        self.K = [np.atleast_2d(np.asarray(r.K, dtype=float)) for r in regions]
        self.off = [np.asarray(r.b, dtype=float).ravel() for r in regions]
        self.n = controller.n
        # all rows in one matrix; region i owns rows starts[i]:starts[i+1]
        self._A = np.vstack(self.A)
        self._b = np.concatenate(self.b)
        self._starts = np.cumsum([0] + [len(b) for b in self.b[:-1]])

    def __len__(self):
        return len(self.A)

    def contains(self, sigma, x, tol=MEMBER_TOL):
        """Whether x satisfies every inequality of region sigma."""
        return bool(np.all(self.A[sigma] @ x - self.b[sigma] <= tol))

    def membership(self, X):
        """(points, regions) mask: row i of X satisfies region j."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ok = X @ self._A.T - self._b <= MEMBER_TOL
        return np.logical_and.reduceat(ok, self._starts, axis=1)

    def region_of(self, x):
        """Lowest index of a region containing x, or -1."""
        hit = np.flatnonzero(self.membership(x)[0])
        return int(hit[0]) if hit.size else -1

    def covered(self, X):
        """Boolean mask over the rows of X: inside some region."""
        return self.membership(X).any(axis=1)

    def law(self, sigma, x):
        """u = K_sigma x + b_sigma."""
        return self.K[sigma] @ np.asarray(x, dtype=float).ravel() + self.off[sigma]

    def sample(self, rng, count, lo, hi):
        """count states uniform over the union of regions.

        Rejection sampling from the box [lo, hi], which must contain
        the partition: a uniform box draw conditioned on landing in the
        union is uniform over the union.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        out = []
        have = 0
        while have < count:
            # batches stay small: the membership test holds a
            # (batch x all rows) matrix, which would otherwise show in
            # the program's peak_rss_mb
            batch = min(4 * (count - have) + 16, SAMPLE_BATCH)
            X = rng.uniform(lo, hi, size=(batch, lo.size))
            X = X[self.covered(X)]
            out.append(X)
            have += len(X)
        return np.concatenate(out)[:count]

    def locate_with_margin(self, x, margin):
        """Region of x, or -1 unless x and its 2n axis neighbours at
        distance margin all lie in the partition."""
        x = np.asarray(x, dtype=float).ravel()
        probes = np.vstack([x, x + margin * np.eye(self.n), x - margin * np.eye(self.n)])
        member = self.membership(probes)
        if not member.any(axis=1).all():
            return -1
        return int(np.flatnonzero(member[0])[0])


def steady_state(A, B, C, r):
    """(x_ss, u_ss) with x_ss = A x_ss + B u_ss and C x_ss = r (square case)."""
    n, m = B.shape
    M = np.block([[A - np.eye(n), B], [C, np.zeros((C.shape[0], m))]])
    sol = np.linalg.solve(M, np.concatenate([np.zeros(n), np.atleast_1d(r)]))
    return sol[:n], sol[n:]


@dataclass(frozen=True)
class Episode:
    """One tracking episode: initial state, stepped reference, key seeds."""

    x0: tuple
    r_steps: tuple
    seed_keys: int
    seed_quant: int


EPISODE_STEPS = 60
REFERENCE_STEPS = (20, 40)  # the reference changes at these steps
REFERENCE_RANGE = 2.0       # each new reference value is uniform in +-this
EPISODE_MARGIN = 0.05       # exact trajectory keeps this far from the edge


def exact_trajectory(partition, A, B, C, x0, r_steps, T=EPISODE_STEPS):
    """Shifted states of the closed loop under the exact law, or None.

    Mirrors the regulation-form tracking of encmpc.simulation: at step
    k the law acts on x - x_ss(r_k) and u_ss(r_k) is added back.
    Returns None when a shifted state leaves the partition by less
    than EPISODE_MARGIN.
    """
    x = np.asarray(x0, dtype=float)
    states = []
    for k in range(T):
        r = [v for start, v in r_steps if k >= start][-1]
        x_ss, u_ss = steady_state(A, B, C, r)
        xs = x - x_ss
        sigma = partition.locate_with_margin(xs, EPISODE_MARGIN)
        if sigma < 0:
            return None
        states.append(xs)
        x = A @ x + B @ (partition.law(sigma, xs) + u_ss)
    return np.array(states)


def episodes(rng, partition, scenario, count):
    """count seeded episodes whose exact trajectory stays inside.

    x0 is uniform over the partition; the reference starts at 0 and
    steps to two values uniform in +-REFERENCE_RANGE.  A draw whose
    exact closed loop would leave the controller's domain is drawn
    again: such an input is outside what the controller serves, and
    the exact law is the one every backend approximates.
    """
    A, B, C = scenario.A, scenario.B, scenario.C_out
    out = []
    while len(out) < count:
        x0 = partition.sample(rng, 1, scenario.x_lo, scenario.x_hi)[0]
        r1, r2 = rng.uniform(-REFERENCE_RANGE, REFERENCE_RANGE, size=2)
        r_steps = ((0, 0.0), (REFERENCE_STEPS[0], float(r1)),
                   (REFERENCE_STEPS[1], float(r2)))
        seeds = rng.integers(0, 2**32, size=2)
        if exact_trajectory(partition, A, B, C, x0, r_steps) is None:
            continue
        out.append(Episode(tuple(float(v) for v in x0), r_steps,
                           int(seeds[0]), int(seeds[1])))
    return out
