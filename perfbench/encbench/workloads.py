"""The two workloads and the measurement loop they share.

Each workload sets up SETUP_REPS times (the median is setup_s), then
runs whole rounds of the same operations until --seconds have passed,
checking every output as it goes.  `attempted` and `failed` count the
operations of those rounds.  A round is cut into SLOTS slots, and every
kind of operation gets a share of each slot, so that each metric's
samples spread over the whole measured phase instead of one stretch of
it.  Each timing is then reduced over all its samples of the run and
scaled to the reference host speed (see Run.timings).

Every call into encmpc goes through a module attribute (protocol.run_cycle,
not a name imported here), so a traced run's wrappers see it.
"""
import dataclasses
import itertools
import random
import resource
import time

import numpy as np

from encmpc import attack, mpqp, paillier, protocol, qp, simulation
from encmpc.config import RunConfig
from encmpc.qe_cipher import RangeError

from . import checks, inputs
from .inputs import FIXED_SEED, Partition, stream_rng

clock = time.perf_counter

SETUP_REPS = 3
SLOTS = 10
LOOP_PAILLIER_BITS = 1024   # key size criterion 07 uses
LOOP_PER_SLOT = 3           # episodes per slot, plaintext/qe/qe_quantized
SCATTERED_PER_SLOT = 500    # states per slot and backend
CERTIFY_PER_SLOT = 20       # fixed oracle states per slot
PROBE_HORIZON = 2           # reduced attack experiment ...
PROBE_TRIALS = 8            # ... run in every other slot
ONLINE_BACKENDS = ("plaintext", "qe", "qe_quantized", "paillier")
# Host-speed references (see Run.timings): the mean time of one cycle's
# output check, and of BIGINT_POW, on the host the reference figures of
# README.md come from.  Each check's speed is read over its block of
# BLOCK consecutive checks.
REFERENCE_CHECK_US = 70.0
REFERENCE_BIGINT_US = 1500.0
BLOCK = 200
_bits = random.Random(FIXED_SEED)
BIGINT_POW = (_bits.getrandbits(1023), _bits.getrandbits(256) | 1 << 255,
              _bits.getrandbits(1024) | 1 << 1023 | 1)


class Run:
    """Samples, counters and context of one benchmark run."""

    def __init__(self, seed, seconds):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.attempted = 0
        self.failed = 0
        self.rounds_done = 0
        self.setup = []
        self.implicit = []
        self.attack = []
        self.cycles = {b: [] for b in ONLINE_BACKENDS}
        self.checking = []       # seconds of each cycle's output check
        self.cycle_at = {b: [] for b in ONLINE_BACKENDS}   # index into checking
        self.bigint = []         # seconds of BIGINT_POW after each paillier cycle
        self.implicit_at, self.attack_at = [], []
        self.bits = {}
        self.passes = 0          # synthesis passes, one per set-up
        self.stats = []          # synthesize(stats=) dicts of every pass
        self.certified = ([], [], [])   # states, oracle feasible, covered
        self.calibrate = None    # fixed work timed with and without tracing

    def set_up(self, build):
        """Call build() SETUP_REPS times; keep the last result."""
        for _ in range(SETUP_REPS):
            t0 = clock()
            out = build()
            self.setup.append(clock() - t0)
        return out

    def rounds(self, one_round):
        """Whole rounds until --seconds have passed (at least one)."""
        t_end = clock() + self.seconds
        while self.rounds_done == 0 or clock() < t_end:
            one_round()
            self.rounds_done += 1
        checks.check_coverage(*self.certified)

    # -- operations -------------------------------------------------------

    def synthesize(self, scenario):
        """Explicit controller of a scenario, certified."""
        stats = {}
        ctrl = mpqp.synthesize(scenario.system(), scenario.mpc_spec(), stats=stats)
        self.stats.append(stats)
        checks.require(ctrl.nregions == stats["lp_calls"] - stats["empty"]
                       - stats["thin"] - stats["merged"],
                       f"{scenario.name}: {ctrl.nregions} regions but funnel {stats}")
        checks.check_chebyshev_centers(ctrl)
        return ctrl

    def cycle(self, backend, partition, params, x, parties, k):
        """One timed S->C->A cycle, checked; returns u or None if it failed.

        qe_quantized cycles may fail with the fold-window RangeError or,
        in closed loop, with StateNotCovered once the beta-amplified
        input error has pushed the plant out of the partition; both are
        counted.  Any other exception is a fault and ends the run.
        """
        self.attempted += 1
        t0 = clock()
        try:
            u, met = protocol.run_cycle(x, *parties, k)
        except (RangeError, mpqp.StateNotCovered):
            if backend != "qe_quantized":
                raise
            self.failed += 1
            return None
        t1 = clock()
        self.cycles[backend].append(t1 - t0)
        self.cycle_at[backend].append(len(self.checking))
        checks.check_cycle(partition, backend, x, u, met, params)
        t2 = clock()
        self.checking.append(t2 - t1)
        if backend == "paillier":
            pow(*BIGINT_POW)
            self.bigint.append(clock() - t2)
        self.bits[backend] = met.payload_bits["total"]
        return u

    def certify(self, cqp, partition, states):
        """Implicit MPC at each state against the explicit law.

        Times qp.implicit_control per state; at each feasible state the
        oracle's (z, lam) is certified by KKT residuals and the explicit
        law must equal z[:m].  Whether the partition covers exactly the
        feasible states is checked over the whole run, in rounds().
        """
        for x in states:
            self.attempted += 1
            sigma = partition.region_of(x)
            t0 = clock()
            try:
                qp.implicit_control(cqp, x)
                feasible = True
            except qp.QpInfeasible:
                feasible = False
            dt = clock() - t0
            states, oracle_feasible, covered = self.certified
            states.append(x)
            oracle_feasible.append(feasible)
            covered.append(sigma >= 0)
            if not feasible or sigma < 0:
                continue
            self.implicit.append(dt)
            self.implicit_at.append(len(self.checking))
            z, _, lam = qp.solve_qp_oracle(cqp, x)
            checks.check_oracle_point(cqp, x, z, lam, partition.law(sigma, x))

    def confidentiality(self, scenario, ctrl, cfg, backends, trials, seed):
        """Tapped loops + least-squares adversary table, checked."""
        self.attempted += 1
        t0 = clock()
        obs = attack.gather_observations(scenario, ctrl, cfg, backends)
        table = attack.run_attack_table(
            obs, attack.default_settings(trials=trials, T=scenario.T), seed)
        self.attack.append(clock() - t0)
        self.attack_at.append(len(self.checking))
        checks.check_attack_table(table)

    # -- result -----------------------------------------------------------

    def check_factors(self):
        """Per cycle check, how much slower than the reference host the
        host ran around it: the mean time of the checks in its block of
        BLOCK, over REFERENCE_CHECK_US.

        The check (checks.check_cycle) is the benchmark's own numpy and
        Python code, whose work does not depend on how the program
        computes the output, and it runs right after each cycle, so it
        feels the same host speed as the cycle it checks.
        """
        c = np.asarray(self.checking)
        block = np.minimum(np.arange(len(c)) // BLOCK, max(len(c) // BLOCK - 1, 0))
        mean = np.bincount(block, c) / np.bincount(block)
        return mean[block] * 1e6 / REFERENCE_CHECK_US

    def timings(self):
        """The run's timings: (as measured, scaled to the reference host).

        Set-up: median of the SETUP_REPS calls.  Every other timing has
        many samples and is reduced over all of them to their mean, the
        time per operation over the run.  The mean and not the median,
        because the host's speed drifts between states up to about 2x
        apart: a run's samples are then a mix of clusters, whose median
        jumps from one to the next as their shares change from run to
        run, while the mean moves with the shares in proportion.

        Scaled: each Python-bound sample is divided by the factor of the
        block of checks it ran next to (set-up, before any check, by the
        run's mean factor), and Paillier's cycles, whose big-integer
        arithmetic follows the host differently, by the run's mean time
        of BIGINT_POW over REFERENCE_BIGINT_US.
        """
        factors = self.check_factors()
        last = len(factors) - 1

        def local(samples, at):
            return np.asarray(samples) / factors[np.minimum(at, last)]

        mean = lambda v: float(np.mean(v))
        us = 1e6
        c, at = self.cycles, self.cycle_at
        measured = {
            "setup_s": float(np.median(self.setup)),
            "implicit_solve_us": mean(self.implicit) * us,
            "attack_s": mean(self.attack),
            "plaintext_cycle_us": mean(c["plaintext"]) * us,
            "qe_cycle_us": mean(c["qe"]) * us,
            "qe_quantized_cycle_us": mean(c["qe_quantized"]) * us,
            "paillier_cycle_ms": mean(c["paillier"]) * 1e3,
            "host_factor": mean(factors),
            "bigint_factor": mean(self.bigint) * us / REFERENCE_BIGINT_US,
        }
        s = {b: local(c[b], at[b]) for b in ("plaintext", "qe", "qe_quantized")}
        scaled = {
            "setup_s": measured["setup_s"] / measured["host_factor"],
            "implicit_solve_us": mean(local(self.implicit, self.implicit_at)) * us,
            "attack_s": mean(local(self.attack, self.attack_at)),
            "plaintext_cycle_us": mean(s["plaintext"]) * us,
            "qe_cycle_us": mean(s["qe"]) * us,
            "qe_quantized_cycle_us": mean(s["qe_quantized"]) * us,
            "paillier_cycle_ms": measured["paillier_cycle_ms"] / measured["bigint_factor"],
        }
        return measured, scaled

    def end_to_end(self):
        """The end-to-end metrics: timings scaled to the reference host
        speed, payload bits and peak memory."""
        out = dict(self.timings()[1])
        out.update({
            "qe_wire_bits": self.bits["qe"],
            "qe_quantized_wire_bits": self.bits["qe_quantized"],
            "paillier_wire_bits": self.bits["paillier"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        return out


def run_params(cfg, ctrl, L):
    return {"n": ctrl.n, "m": ctrl.m, "w_b": cfg.w_b, "w": cfg.w, "L": L,
            "rho": cfg.rho, "delta": cfg.delta}


def probe_scenario():
    """The attack-probe plant at a short horizon, for the reduced
    confidentiality experiment of the online workloads."""
    return dataclasses.replace(simulation.attack_scenario(), horizon=PROBE_HORIZON)


def key_seed(seed):
    return int(stream_rng(seed, "keys").integers(0, 2**32))


def box_states(rng, sc, count):
    return rng.uniform(sc.x_lo, sc.x_hi, size=(count, sc.x_lo.size))


class OfflineShare:
    """The workloads' share of the offline jobs, per slot: a few oracle
    states, and in every other slot the reduced attack experiment on the
    attack-probe plant.

    The oracle states are fixed, the same in every round and run: a
    solve costs 0.3 to 1.5 ms with the state's active set, and this
    side metric should read the solver, not which states a seed drew.
    """

    def __init__(self, run, sc, ctrl, probe, probe_ctrl, rng):
        self.run, self.probe, self.probe_ctrl, self.rng = run, probe, probe_ctrl, rng
        self.cqp = mpqp.condense(sc.system(), sc.mpc_spec())
        self.partition = Partition(ctrl)
        self.states = box_states(stream_rng(FIXED_SEED, "offline"), sc,
                                 SLOTS * CERTIFY_PER_SLOT).reshape(SLOTS, CERTIFY_PER_SLOT, -1)

    def slot(self, s):
        self.run.certify(self.cqp, self.partition, self.states[s])
        if s % 2 == 0:
            self.run.confidentiality(self.probe, self.probe_ctrl, RunConfig(),
                                     ("plaintext", "qe", "qe_quantized"),
                                     PROBE_TRIALS, int(self.rng.integers(0, 2**32)))


def qe_calibration(ctrl, states):
    """Fixed work for the tracing-overhead measurement: qe cycles."""
    def work():
        parties = protocol.make_parties(ctrl, "qe", RunConfig())[:3]
        t0 = clock()
        for k, x in enumerate(states):
            protocol.run_cycle(x, *parties, k)
        return clock() - t0
    return work


# -- workloads ---------------------------------------------------------------

def loop(run):
    """Seeded 60-step tracking episodes of the paper's example under every
    backend; qe_quantized runs fixed episodes (see README)."""
    sc = simulation.benchmark_scenario()
    probe = probe_scenario()
    kseed = key_seed(run.seed)

    def build():
        ctrl = run.synthesize(sc)
        probe_ctrl = run.synthesize(probe)
        kp = paillier.keygen(LOOP_PAILLIER_BITS, random.Random(kseed))
        run.passes += 1
        return ctrl, probe_ctrl, kp

    ctrl, probe_ctrl, kp = run.set_up(build)
    partition = Partition(ctrl)
    seeded = stream_rng(run.seed, "loop")
    share = OfflineShare(run, sc, ctrl, probe, probe_ctrl, seeded)
    fixed = inputs.episodes(stream_rng(FIXED_SEED, "loop"), partition, sc,
                            SLOTS * LOOP_PER_SLOT)

    def episode(backend, ep):
        """Generator: one closed-loop episode, yielding after each cycle."""
        s = dataclasses.replace(sc, x0=np.array(ep.x0), r_steps=ep.r_steps)
        cfg = RunConfig(seed_keys=ep.seed_keys, seed_quant=ep.seed_quant,
                        key_bits=LOOP_PAILLIER_BITS)
        parties = protocol.make_parties(ctrl, backend, cfg, keypair=kp)[:3]
        params = run_params(cfg, ctrl, kp.public.bits)
        x = s.x0
        for k in range(inputs.EPISODE_STEPS):
            x_ss, u_ss = s.steady_state(s.reference(k))
            u = run.cycle(backend, partition, params, x - x_ss, parties, k)
            if u is None:
                return
            x = simulation.step_plant(s, x, u + u_ss)
            yield

    def one_round():
        per_backend = SLOTS * LOOP_PER_SLOT
        eps = inputs.episodes(seeded, partition, sc, 2 * per_backend + 1)
        slow = episode("paillier", eps[-1])
        for s in range(SLOTS):
            for j in range(s * LOOP_PER_SLOT, (s + 1) * LOOP_PER_SLOT):
                for backend, ep in (("plaintext", eps[j]), ("qe", eps[per_backend + j]),
                                    ("qe_quantized", fixed[j])):
                    for _ in episode(backend, ep):
                        pass
            for _ in itertools.islice(slow, inputs.EPISODE_STEPS // SLOTS):
                pass
            share.slot(s)
        for _ in slow:
            pass

    run.rounds(one_round)
    run.calibrate = qe_calibration(ctrl, partition.sample(
        stream_rng(FIXED_SEED, "loop"), 100, sc.x_lo, sc.x_hi))


def scattered(run):
    """A seeded stream of states uniform over the partition, one cycle each
    under plaintext and qe (a few under paillier); qe_quantized runs a
    fixed block of states (see README)."""
    sc = simulation.benchmark_scenario()
    probe = probe_scenario()
    kseed = key_seed(run.seed)
    seeded = stream_rng(run.seed, "scattered")

    def build():
        ctrl = run.synthesize(sc)
        probe_ctrl = run.synthesize(probe)
        kp = paillier.keygen(LOOP_PAILLIER_BITS, random.Random(kseed))
        cfg = RunConfig(seed_keys=kseed, seed_quant=kseed + 1,
                        key_bits=LOOP_PAILLIER_BITS)
        parties = {b: protocol.make_parties(ctrl, b, cfg, keypair=kp)[:3]
                   for b in ("plaintext", "qe", "paillier")}
        run.passes += 1
        return ctrl, probe_ctrl, kp, cfg, parties

    ctrl, probe_ctrl, kp, cfg, parties = run.set_up(build)
    partition = Partition(ctrl)
    share = OfflineShare(run, sc, ctrl, probe, probe_ctrl, seeded)
    params = run_params(cfg, ctrl, kp.public.bits)
    per_round = SLOTS * SCATTERED_PER_SLOT
    fixed = partition.sample(stream_rng(FIXED_SEED, "scattered"), per_round,
                             sc.x_lo, sc.x_hi)
    fixed_cfg = RunConfig()
    fixed_params = run_params(fixed_cfg, ctrl, kp.public.bits)
    k = dict.fromkeys(("plaintext", "qe", "paillier"), 0)

    def seeded_cycle(backend, x):
        run.cycle(backend, partition, params, x, parties[backend], k[backend])
        k[backend] += 1

    def one_round():
        states = partition.sample(seeded, per_round, sc.x_lo, sc.x_hi)
        q_parties = protocol.make_parties(ctrl, "qe_quantized", fixed_cfg)[:3]
        for s in range(SLOTS):
            for i in range(s * SCATTERED_PER_SLOT, (s + 1) * SCATTERED_PER_SLOT):
                seeded_cycle("plaintext", states[i])
                seeded_cycle("qe", states[i])
                run.cycle("qe_quantized", partition, fixed_params, fixed[i], q_parties, i)
            seeded_cycle("paillier", states[s * SCATTERED_PER_SLOT])
            share.slot(s)

    run.rounds(one_round)
    run.calibrate = qe_calibration(ctrl, fixed[:100])


WORKLOADS = {"loop": loop, "scattered": scattered}
