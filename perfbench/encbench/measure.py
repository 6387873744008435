"""One run of one workload: untraced for the end-to-end metrics, or
traced for the per-layer ones."""
import math
import sys
import traceback

import numpy as np

from . import checks, layers, tracing, workloads

CALIBRATION_REPS = 21


def overhead(run, tracer):
    """Tracing overhead in percent on the workload's fixed calibration
    work: the median over CALIBRATION_REPS back-to-back pairs, one
    untraced and one traced, of the pair's time ratio.  The work is
    short (tens of ms) so that a pair's two halves mostly see the same
    host speed."""
    mark = len(tracer)
    ratios = []
    for _ in range(CALIBRATION_REPS):
        tracer.uninstall()
        plain = run.calibrate()
        tracer.install()
        ratios.append(run.calibrate() / plain)
    tracer.uninstall()
    tracer.truncate(mark)
    return 100.0 * (float(np.median(ratios)) - 1.0)


def measure(workload, seed, seconds, trace):
    """(result object, tracer or None, as-measured figures or None): the
    result holds correct, attempted, failed and metrics; the as-measured
    figures of an untraced run are its timings before scaling to the
    reference host speed, and the run's mean host factors."""
    tracer = tracing.Tracer() if trace else None
    run = workloads.Run(seed, seconds)
    try:
        if tracer is not None:
            tracer.install()
        try:
            workloads.WORKLOADS[workload](run)
        finally:
            if tracer is not None:
                tracer.uninstall()
    except checks.CheckFailed:
        traceback.print_exc(file=sys.stderr)
        return {"correct": False, "attempted": max(run.attempted, 1),
                "failed": run.failed, "metrics": {}}, tracer, None
    measured = None
    if tracer is None:
        values = {name: (value, UNITS[name]) for name, value in run.end_to_end().items()}
        measured = run.timings()[0]
    else:
        arrays = tracer.arrays()
        pct = overhead(run, tracer)
        values = layers.per_layer(arrays, run, pct)
    metrics = {}
    for name, (value, unit) in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise RuntimeError(f"metric {name} has no samples in this workload")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": True, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}, tracer, measured


UNITS = {
    "setup_s": "s", "implicit_solve_us": "us", "attack_s": "s",
    "plaintext_cycle_us": "us", "qe_cycle_us": "us", "qe_quantized_cycle_us": "us",
    "paillier_cycle_ms": "ms", "qe_wire_bits": "bits/cycle",
    "qe_quantized_wire_bits": "bits/cycle", "paillier_wire_bits": "bits/cycle",
    "peak_rss_mb": "MB",
}
