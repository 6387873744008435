import numpy as np
import pytest

from encmpc.mpqp import LtiSystem, MpcSpec, synthesize
from encmpc.polyhedra import box


@pytest.fixture(scope="session")
def bench_synthesis():
    """(controller, funnel stats) for the double-integrator workbench problem.

    Synthesized once per test session (a couple of seconds); tests that
    need the condensed QP matrices rebuild those cheaply themselves.
    """
    sys = LtiSystem(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.5], [1.0]],
                    C_out=[[1.0, 0.0]])
    spec = MpcSpec(horizon=5, Q=np.diag([1.0, 0.1]), R=[[0.5]],
                   U=box([-1.0], [1.0]), X=box([-5.0, -5.0], [5.0, 5.0]))
    stats = {}
    return synthesize(sys, spec, stats=stats), stats


@pytest.fixture(scope="session")
def bench_controller(bench_synthesis):
    return bench_synthesis[0]
