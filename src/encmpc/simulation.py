"""Closed-loop simulation of an LTI plant under any protocol backend.

A scenario bundles the plant, the MPC design, an initial state, and a
piecewise-constant output reference.  Tracking is realized in regulation
form: for each reference value r the steady-state pair (x_ss, u_ss) with
C_out x_ss = r is computed from the square system [[A-I, B], [C_out, 0]],
the controller runs on the shifted state x - x_ss, and u_ss is added back
to the applied input.

Every step also evaluates the plaintext PWA law on the same shifted
state, so trajectories carry a per-step input-mismatch column against
the exact law.  A failed point location or a ciphertext leaving its
representable range stops the loop and records the fault instead of
raising.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .config import ConfigError, from_dict, is_int, load_json
from .mpqp import (
    LtiSystem,
    MpcSpec,
    StateNotCovered,
    fmt_17g,
    synthesize,
)
from .paillier import FixedPointOverflow
from .polyhedra import box
from .protocol import CycleMetrics, make_parties, run_cycle
from .qe_cipher import CiphertextError, MagnitudeError, RangeError


def step_plant(sys, x, u):
    """One plant update x+ = A x + B u."""
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    return sys.A @ x + sys.B @ u


@dataclass(frozen=True)
class Scenario:
    """Plant, MPC design, and reference program for one experiment.

    The file form is a JSON object with one key per field (config.from_dict);
    T and r_steps, [start step, value] pairs, may be left out.  However a
    scenario is built (built-in, file or dataclasses.replace), construction
    raises ConfigError unless, with n = rows of A and m = columns of B:
    A, Q are n x n, B is n x m, R is m x m, C_out is one row of n (each
    reference value is one number), u_lo, u_hi have m entries and x_lo,
    x_hi, x0 have n; no array holds a NaN, and only the bounds u_lo, u_hi,
    x_lo, x_hi hold an inf (an open side, as polyhedra.box reads it);
    u_lo <= u_hi and x_lo <= x_hi; horizon, T and the start steps are
    integers (is_int); T >= 1; r_steps starts at step 0 with strictly
    increasing start steps and finite values; system() and mpc_spec()
    accept it (horizon >= 1, Q, R symmetric, R PD, Q PSD), so every
    command that reads a scenario judges it by synthesis's rules; and
    every reference value has a steady state (steady_state).
    """

    name: str
    A: np.ndarray
    B: np.ndarray
    C_out: np.ndarray
    horizon: int
    Q: np.ndarray
    R: np.ndarray
    u_lo: np.ndarray
    u_hi: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    x0: np.ndarray
    T: int = 60
    r_steps: tuple = ((0, 0.0),)  # (start step, reference value) pairs

    def __post_init__(self):
        # the scenario's own read-only copies: a caller's array stays writable
        matrices = ("A", "B", "C_out", "Q", "R")
        for name in matrices + ("u_lo", "u_hi", "x_lo", "x_hi", "x0"):
            val = np.array(getattr(self, name), dtype=float)
            val = np.atleast_2d(val) if name in matrices else val.ravel()
            val.flags.writeable = False
            object.__setattr__(self, name, val)
        n, m = self.A.shape[0], self.B.shape[1]
        shapes = {"A": (n, n), "B": (n, m), "C_out": (len(self.C_out), n),
                  "Q": (n, n), "R": (m, m), "u_lo": (m,), "u_hi": (m,),
                  "x_lo": (n,), "x_hi": (n,), "x0": (n,)}
        for name, shape in shapes.items():
            val = getattr(self, name)
            if val.shape != shape:
                raise ConfigError(
                    f"{name} has shape {val.shape}, expected "
                    f"{shape} for n = {n} states and m = {m} inputs")
            # +-inf in a bound is an open side, as polyhedra.box reads it
            bound = name in ("u_lo", "u_hi", "x_lo", "x_hi")
            if np.isnan(val).any() or not bound and np.isinf(val).any():
                raise ConfigError(f"{name} must be {'free of NaN' if bound else 'finite'}, "
                                  f"got {val.tolist()}")
        for lo, hi in (("u_lo", "u_hi"), ("x_lo", "x_hi")):
            if np.any(getattr(self, lo) > getattr(self, hi)):
                raise ConfigError(f"{lo} {getattr(self, lo).tolist()} exceeds "
                                  f"{hi} {getattr(self, hi).tolist()}")
        if len(self.C_out) != 1:
            raise ConfigError(
                f"C_out has {len(self.C_out)} rows, but r_steps gives one "
                "reference value per step, so a scenario has one output")
        for name, value in (("horizon", self.horizon), ("T", self.T),
                            *(("r_steps start step", k) for k, _ in self.r_steps)):
            if not is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "T", int(self.T))
        object.__setattr__(self, "r_steps",
                           tuple((int(k), float(v)) for k, v in self.r_steps))
        starts = [k for k, _ in self.r_steps]
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if starts[:1] != [0] or any(a >= b for a, b in zip(starts, starts[1:])):
            raise ConfigError(f"r_steps start steps {starts} must begin at 0 "
                              "and strictly increase")
        values = [v for _, v in self.r_steps]
        if not np.isfinite(values).all():
            raise ConfigError(f"r_steps reference values {values} must be finite")
        # synthesis's own checks and the reference program's, for every
        # command; no result is kept
        self.system()
        self.mpc_spec()
        for start in starts:
            self.steady_state(self.reference(start))

    def system(self):
        return LtiSystem(self.A, self.B)

    def mpc_spec(self):
        return MpcSpec(
            horizon=self.horizon,
            Q=self.Q,
            R=self.R,
            U=box(self.u_lo, self.u_hi),
            X=box(self.x_lo, self.x_hi),
        )

    def synthesize_controller(self, stats=None):
        return synthesize(self.system(), self.mpc_spec(), stats=stats)

    def reference(self, k):
        """Reference output value active at step k >= 0."""
        r = next(val for start, val in reversed(self.r_steps) if k >= start)
        return np.atleast_1d(np.asarray(r, dtype=float))

    def steady_state(self, r):
        """(x_ss, u_ss) with x_ss = A x_ss + B u_ss and C_out x_ss = r."""
        n = self.A.shape[0]
        m = self.B.shape[1]
        p = self.C_out.shape[0]
        M = np.zeros((n + p, n + m))
        M[:n, :n] = self.A - np.eye(n)
        M[:n, n:] = self.B
        M[n:, :n] = self.C_out
        rhs = np.concatenate([np.zeros(n), np.atleast_1d(r)])
        sol, res, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.linalg.norm(M @ sol - rhs) > 1e-9:
            raise ConfigError(f"no steady state for reference {r}")
        return sol[:n], sol[n:]


def benchmark_scenario():
    """Double-integrator regulation benchmark with a stepped reference."""
    return Scenario(
        name="double-integrator",
        A=[[1.0, 1.0], [0.0, 1.0]],
        B=[[0.5], [1.0]],
        C_out=[[1.0, 0.0]],
        horizon=5,
        Q=np.diag([1.0, 0.1]),
        R=[[0.5]],
        u_lo=[-1.0],
        u_hi=[1.0],
        x_lo=[-5.0, -5.0],
        x_hi=[5.0, 5.0],
        x0=[-3.0, 0.5],
        T=60,
        r_steps=((0, 0.0), (20, 1.5), (40, -1.0)),
    )


def attack_scenario():
    """Strictly stable plant used for the eavesdropping experiment.

    Identification rollouts re-inject the recorded inputs open loop, so
    a marginally stable plant (the double integrator) amplifies any fit
    error exponentially and even the plaintext adversary diverges once
    its observations carry noise.  A contractive plant keeps the honest
    baseline meaningful: the plaintext adversary stays accurate under
    every noise setting and the confidentiality gap measures the
    encryption, not the plant's instability.
    """
    return Scenario(
        name="attack-probe",
        A=[[0.9, 0.2], [-0.15, 0.8]],
        B=[[0.1], [0.7]],
        C_out=[[1.0, 0.0]],
        horizon=5,
        Q=np.diag([1.0, 1.0]),
        R=[[0.5]],
        u_lo=[-1.0],
        u_hi=[1.0],
        x_lo=[-5.0, -5.0],
        x_hi=[5.0, 5.0],
        x0=[2.5, -1.0],
        T=60,
        r_steps=((0, 0.0),),
    )


def scenario_to_dict(sc):
    """The JSON object form of a scenario: one key per Scenario field."""
    out = {}
    for f in fields(sc):
        val = getattr(sc, f.name)
        out[f.name] = val.tolist() if isinstance(val, np.ndarray) else val
    return out


def load_scenario(path):
    """Scenario from a JSON file; malformed JSON is a ConfigError."""
    return from_dict(Scenario, load_json(path), path)


@dataclass
class StepRecord:
    """One completed step; cycle is the CycleMetrics run_cycle returned."""
    k: int
    x: np.ndarray
    u: np.ndarray
    u_plain: np.ndarray
    y: np.ndarray
    r: np.ndarray
    cycle: CycleMetrics


@dataclass
class Trajectory:
    backend: str
    records: list = field(default_factory=list)
    fault: str = ""
    fault_k: int = -1

    def __len__(self):
        return len(self.records)


def episode_steps(scenario, cfg):
    """Steps in one episode: cfg.steps when set, else the scenario's T."""
    return cfg.steps or scenario.T


def run_closed_loop(scenario, cfg, controller, log=None, dither=None):
    """Simulate the plant under cfg.backend; returns a Trajectory.

    Before the first cycle it builds the parties from cfg (make_parties)
    and each reference value's steady state, and refuses a controller
    for other dimensions than the scenario's (ConfigError).  The
    plaintext law of the region the sensor located is evaluated in
    parallel each step for the mismatch column.  Faults (state outside
    the partition, ciphertext or fixed-point value out of representable
    range) stop the loop and are recorded.

    dither, if given, is a (T, m) probing sequence added to the applied
    input at the plant (identification experiments need the input to
    carry excitation that is not a function of the state).  It shifts
    the encrypted and plaintext laws identically, so the mismatch
    column is unaffected.
    """
    n, m = scenario.B.shape
    if (controller.n, controller.m) != (n, m):
        raise ConfigError(f"the controller is for n = {controller.n} states and "
                          f"m = {controller.m} inputs, scenario {scenario.name!r} "
                          f"has n = {n} and m = {m}")
    sensor, cloud, actuator = make_parties(controller, cfg.backend, cfg)
    steady = {r.tobytes(): scenario.steady_state(r)  # one per reference value
              for r in (scenario.reference(start) for start, _ in scenario.r_steps)}
    traj = Trajectory(backend=cfg.backend)
    x = np.asarray(scenario.x0, dtype=float).ravel()
    for k in range(episode_steps(scenario, cfg)):
        r = scenario.reference(k)
        x_ss, u_ss = steady[r.tobytes()]
        x_shift = x - x_ss
        try:
            u_tilde, metrics = run_cycle(x_shift, sensor, cloud, actuator,
                                         k, log=log)
            u_plain_tilde = controller.eval_region(metrics.sigma, x_shift)
        except (StateNotCovered, RangeError, MagnitudeError,
                CiphertextError, FixedPointOverflow) as exc:
            traj.fault = f"{type(exc).__name__}: {exc}"
            traj.fault_k = k
            break
        u = u_tilde + u_ss
        u_plain = u_plain_tilde + u_ss
        if dither is not None:
            u = u + dither[k]
            u_plain = u_plain + dither[k]
        y = scenario.C_out @ x
        traj.records.append(StepRecord(k=k, x=x.copy(), u=u, u_plain=u_plain,
                                       y=y, r=r, cycle=metrics))
        x = step_plant(scenario, x, u)
    return traj


def tracking_rmse(traj):
    """RMSE of the tracking error y - r over recorded steps.

    A faulted trajectory scores +inf: dying early must not look like
    good tracking.
    """
    if not traj.records:
        return float("inf")
    if traj.fault:
        return float("inf")
    err = np.array([rec.y - rec.r for rec in traj.records])
    return float(np.sqrt(np.mean(err**2)))


def input_mismatch(traj):
    """(mean, max) over steps of the max-abs gap to the plaintext law."""
    if not traj.records:
        raise ValueError("empty trajectory")
    gaps = np.array([np.abs(rec.u - rec.u_plain).max() for rec in traj.records])
    return float(gaps.mean()), float(gaps.max())


def _csv_quote(text):
    return '"' + str(text).replace('"', '""') + '"'


def trajectory_csv(traj):
    """Deterministic CSV text (%.17g floats, RFC-4180 line ends).

    A faulted run ends with one extra row recording the fault step and
    the quoted diagnostic.
    """
    if not traj.records:
        lines = ["k"]
        if traj.fault:
            lines.append(f"{traj.fault_k},{_csv_quote(traj.fault)}")
        return "\r\n".join(lines) + "\r\n"
    first = traj.records[0]
    n = first.x.size
    m = first.u.size
    p = first.y.size
    cols = (["k"] + [f"x{i}" for i in range(n)] + ["sigma"]
            + [f"u{j}" for j in range(m)] + [f"u_plain{j}" for j in range(m)]
            + [f"y{i}" for i in range(p)] + [f"r{i}" for i in range(p)]
            + ["payload_bits"])
    lines = [",".join(cols)]
    for rec in traj.records:
        vals = ([str(rec.k)] + [fmt_17g(v) for v in rec.x] + [str(rec.cycle.sigma)]
                + [fmt_17g(v) for v in rec.u] + [fmt_17g(v) for v in rec.u_plain]
                + [fmt_17g(v) for v in rec.y] + [fmt_17g(v) for v in rec.r]
                + [str(rec.cycle.payload_bits["total"])])
        lines.append(",".join(vals))
    if traj.fault:
        lines.append(f"{traj.fault_k},{_csv_quote(traj.fault)}")
    return "\r\n".join(lines) + "\r\n"
