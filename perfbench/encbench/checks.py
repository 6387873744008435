"""Output checks, computed apart from the program under test.

Every check takes the program's output and the data to judge it by,
recomputes what the output must be (or a property it must have) with
numpy, and raises CheckFailed naming the first violation.  None of them
accepts an empty input: a check that saw nothing has certified nothing.
The bounds and their derivations are written out in the README.
"""
import math

import numpy as np

KKT_TOL = 1e-8           # stationarity, primal, dual sign, complementarity
PWA_VS_ORACLE_TOL = 1e-6  # explicit law against the oracle's z[:m]
ATTACK_RATIO = 5.0        # encrypted score over plaintext score, per setting
NOISE_FREE_MAX = 1e-6     # plaintext adversary without observation noise
U_TOL = {"plaintext": 1e-12, "qe": 1e-9}
ROUNDOFF = 1e-9           # float slack added to the analytic bounds


class CheckFailed(AssertionError):
    """A program output disagrees with what the benchmark computed."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def require_nonempty(items, what):
    require(len(items) > 0, f"{what}: nothing to check")


def kkt_residuals(H, F, G, E, h, x, z, lam):
    """(stationarity, primal, dual, complementarity) of (z, lam) at x.

    For min 1/2 z'Hz + x'F'z s.t. Gz <= h + Ex the KKT conditions are
    Hz + Fx + G'lam = 0, Gz <= h + Ex, lam >= 0, lam_i (h + Ex - Gz)_i = 0.
    """
    slack = h + E @ x - G @ z
    stat = float(np.abs(H @ z + F @ x + G.T @ lam).max())
    primal = float(max(0.0, -slack.min()))
    dual = float(max(0.0, -lam.min()))
    comp = float(np.abs(lam * slack).max())
    return stat, primal, dual, comp


def check_oracle_point(qp, x, z, lam, u_pwa):
    """KKT certificate of the oracle's (z, lam), and the explicit law
    u_pwa against its first input z[:m]."""
    res = kkt_residuals(qp.H, qp.F, qp.G, qp.E, qp.h, x, z, lam)
    for name, value in zip(("stationarity", "primal", "dual", "complementarity"), res):
        require(value <= KKT_TOL,
                f"oracle at x={x.tolist()}: {name} residual {value:.3e} > {KKT_TOL}")
    gap = float(np.abs(np.asarray(u_pwa) - z[:qp.m]).max())
    require(gap <= PWA_VS_ORACLE_TOL,
            f"explicit law at x={x.tolist()} misses the oracle by {gap:.3e}")


def check_coverage(states, oracle_feasible, covered):
    """The partition covers exactly the states the oracle calls feasible."""
    require_nonempty(states, "partition coverage")
    require(any(oracle_feasible), "partition coverage: no feasible sample")
    require(not all(oracle_feasible), "partition coverage: no infeasible sample")
    for x, feas, cov in zip(states, oracle_feasible, covered):
        require(bool(feas) == bool(cov),
                f"x={np.asarray(x).tolist()}: oracle feasible={bool(feas)} "
                f"but covered by the partition={bool(cov)}")


def check_chebyshev_centers(controller):
    """Each region's stored Chebyshev center lies strictly inside it."""
    require_nonempty(controller.regions, "Chebyshev centers")
    for i, reg in enumerate(controller.regions):
        require(reg.cheb_radius > 0, f"region {i}: radius {reg.cheb_radius}")
        worst = float((reg.poly.A @ reg.cheb_center - reg.poly.b).max())
        require(worst < 0, f"region {i}: center violates a facet by {worst:.3e}")


def check_attack_table(table, plaintext="plaintext"):
    """Every encrypted score is >= ATTACK_RATIO x the plaintext score in
    its noise setting; the noise-free plaintext adversary is exact."""
    require_nonempty(table, "attack table")
    kinds = sorted({kind for kind, _ in table})
    encrypted = sorted({b for _, b in table if b != plaintext})
    require_nonempty(encrypted, "attack table encrypted backends")
    for kind in kinds:
        base = table[(kind, plaintext)]
        require(math.isfinite(base), f"{kind}: plaintext score {base}")
        for backend in encrypted:
            score = table[(kind, backend)]
            require(math.isfinite(score) and score >= ATTACK_RATIO * base,
                    f"{kind}/{backend}: score {score:.4g} < {ATTACK_RATIO} x "
                    f"plaintext {base:.4g}")
    free = table[("none", plaintext)]
    require(free <= NOISE_FREE_MAX,
            f"noise-free plaintext adversary scores {free:.3e} > {NOISE_FREE_MAX}")


def quantized_bound(K, n, w_b, w):
    """Per-input bound on |u - u_ref| for qe_quantized (README, bound 3)."""
    K = np.atleast_2d(K)
    return 2.0 ** (w_b - 1) * 2.0 ** (1 - w) * (np.abs(K).sum(axis=1) + n + 1) + ROUNDOFF


def paillier_bound(K, x, rho, delta):
    """Per-input bound on |u - u_ref| for paillier (README, bound 4)."""
    K = np.atleast_2d(K)
    n = K.shape[1]
    step = float(rho) ** -delta
    return (0.5 * step * (np.abs(K).sum(axis=1) + np.abs(x).sum())
            + (n / 4 + 0.5) * step**2 + ROUNDOFF)


def expected_bits(backend, n, m, w, L):
    """Closed-form payload bits (s_to_c, c_to_a) of one cycle."""
    if backend == "plaintext":
        return 32 + 64 * n, 64 * m
    if backend == "qe":
        return 32 + 64 * (n + m), 64 * (m * n + m)
    if backend == "qe_quantized":
        return 32 + w * (n + m), w * (m * n + m)
    return 32 + 2 * L * (n + m), 2 * L * m


def expected_counts(backend, n, m):
    """Closed-form primitive counters of one cycle (zeros elsewhere)."""
    counts = dict.fromkeys(("enc", "con", "dec", "sums", "he_enc", "he_dec",
                            "he_add", "he_mul"), 0)
    if backend in ("qe", "qe_quantized"):
        counts.update(enc=n + m, con=m * n, dec=m * n + m, sums=m * n)
    elif backend == "paillier":
        counts.update(he_enc=n + m, he_mul=m * n, he_add=m * n, he_dec=m)
    return counts


def check_cycle(partition, backend, x, u, metrics, params):
    """One S->C->A cycle: region, input, payload bits and counters.

    params holds n, m, w_b, w, L, rho, delta of the run.  The state must
    satisfy the inequalities of the region sigma the sensor sent, and
    u must match K_sigma x + b_sigma within the backend's bound.
    """
    n, m = params["n"], params["m"]
    sigma = metrics.sigma
    require(0 <= sigma < len(partition), f"{backend}: region index {sigma}")
    require(partition.contains(sigma, x),
            f"{backend}: x={np.asarray(x).tolist()} is outside the region "
            f"{sigma} the sensor sent")
    u_ref = partition.law(sigma, x)
    K = partition.K[sigma]
    if backend in U_TOL:
        bound = np.full(m, U_TOL[backend])
    elif backend == "qe_quantized":
        bound = quantized_bound(K, n, params["w_b"], params["w"])
    else:
        bound = paillier_bound(K, x, params["rho"], params["delta"])
    gap = np.abs(np.asarray(u, dtype=float).ravel() - u_ref)
    require(gap.shape == (m,) and bool(np.all(gap <= bound)),
            f"{backend}: u={np.asarray(u).tolist()} vs K x + b = {u_ref.tolist()} "
            f"(gap {gap.tolist()}, bound {np.asarray(bound).tolist()})")
    s_to_c, c_to_a = expected_bits(backend, n, m, params["w"], params["L"])
    got = metrics.payload_bits
    require((got["s_to_c"], got["c_to_a"], got["total"]) == (s_to_c, c_to_a, s_to_c + c_to_a),
            f"{backend}: payload bits {got} vs closed form "
            f"({s_to_c}, {c_to_a}, {s_to_c + c_to_a})")
    want = expected_counts(backend, n, m)
    require(metrics.counts == want,
            f"{backend}: counters {metrics.counts} vs closed form {want}")
