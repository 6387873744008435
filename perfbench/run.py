"""Benchmark of the encmpc workbench: one workload, one seed, one run.

    python3 perfbench/run.py --workload {loop,scattered} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 the run has span tracing
installed and the object holds the per-layer metrics instead.
The same object is written to perfbench/results/, with an untraced
run's timings as measured, before scaling to the reference host speed,
beside it (<stem>-measured.json), and a traced run's spans to
perfbench/results/<workload>-spans.npz.  See README.md.
"""
import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("loop", "scattered"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Put ./src first on the path and check encmpc comes from there."""
    if not os.path.isfile(os.path.join(SRC, "encmpc", "protocol.py")):
        raise SystemExit(f"no encmpc sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import encmpc.protocol
    where = os.path.dirname(os.path.abspath(encmpc.protocol.__file__))
    if where != os.path.join(SRC, "encmpc"):
        raise SystemExit(f"encmpc imported from {where}, not from {SRC}")


def main(argv=None):
    args = parse(argv)
    import_program()
    from encbench.measure import measure

    result, tracer, measured = measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.save(os.path.join(RESULTS, f"{args.workload}-spans.npz"))
    if measured is not None:
        with open(stem + "-measured.json", "w") as fh:
            json.dump(measured, fh)
    line = json.dumps(result)
    with open(stem + ".json", "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
