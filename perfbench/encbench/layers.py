"""Per-layer metrics from the spans of a traced run.

Kinds of reduction, named in each metric's comment below:
  per call   median duration of the calls that returned
  per cycle  median over cycles of the summed duration of that layer's
             calls inside one protocol.<backend>.cycle span
  per pass   total over the run divided by the number of synthesis
             passes (one per set-up)
"""
import numpy as np

US, MS, S = 1e6, 1e3, 1.0


class Spans:
    def __init__(self, arrays):
        self.a = arrays
        self._masks = {}

    def mask(self, name):
        if name not in self._masks:
            self._masks[name] = self.a["name"] == name
        return self._masks[name]

    def per_call(self, name, scale, raised=False, field="dur", q=50):
        sel = self.mask(name) & (self.a["raised"] == raised)
        vals = self.a[field][sel]
        return float(np.percentile(vals, q)) * scale if vals.size else float("nan")

    def total(self, name):
        return float(self.a["dur"][self.mask(name)].sum())

    def count(self, name, raised=None):
        sel = self.mask(name)
        if raised is not None:
            sel = sel & (self.a["raised"] == raised)
        return int(sel.sum())

    def per_cycle(self, names, scale):
        sel = np.zeros(len(self.a["dur"]), dtype=bool)
        for name in names:
            sel |= self.mask(name)
        sel &= self.a["cycle"] >= 0
        if not sel.any():
            return float("nan")
        _, inverse = np.unique(self.a["cycle"][sel], return_inverse=True)
        sums = np.bincount(inverse, weights=self.a["dur"][sel])
        return float(np.median(sums)) * scale


def per_layer(arrays, run, overhead_pct):
    sp = Spans(arrays)
    passes = max(run.passes, 1)
    funnel = {k: sum(s[k] for s in run.stats) / passes
              for k in ("candidates", "lp_calls")}
    regions = sum(s["lp_calls"] - s["empty"] - s["thin"] - s["merged"]
                  for s in run.stats) / passes
    tables = sp.count("attack.table", raised=False)
    out = {
        # mpqp: synthesis (per call / per pass) and point location
        "mpqp.condense_ms": (sp.per_call("mpqp.condense", MS), "ms"),
        "mpqp.enumerate_s": (sp.total("mpqp.enumerate") / passes, "s"),
        "mpqp.candidates": (funnel["candidates"], "count"),
        "mpqp.lp_calls": (funnel["lp_calls"], "count"),
        "mpqp.regions": (regions, "count"),
        "mpqp.lp_yield": (regions / funnel["lp_calls"], "regions/lp"),
        "mpqp.locate_us": (sp.per_call("mpqp.locate", US), "us"),
        "mpqp.locate_scan": (float(np.mean(arrays["value"][sp.mask("mpqp.locate")])),
                             "regions/call"),
        # polyhedra and lp inside synthesis (per pass)
        "polyhedra.chebyshev_calls": (sp.count("polyhedra.chebyshev") / passes, "count"),
        "polyhedra.chebyshev_s": (sp.total("polyhedra.chebyshev") / passes, "s"),
        "polyhedra.irredundant_calls": (sp.count("polyhedra.irredundant") / passes, "count"),
        "polyhedra.irredundant_s": (sp.total("polyhedra.irredundant") / passes, "s"),
        "lp.max_linear_calls": (sp.count("lp.max_linear") / passes, "count"),
        "lp.max_linear_s": (sp.total("lp.max_linear") / passes, "s"),
        "lp.feasible_point_us": (sp.per_call("lp.feasible_point", US), "us"),
        # qp oracle (per call; infeasible states per round)
        "qp.solve_us": (sp.per_call("qp.solve", US), "us"),
        "qp.infeasible_us": (sp.per_call("qp.solve", US, raised=True), "us"),
        "qp.infeasible": (sp.count("qp.solve", raised=True) / max(run.rounds_done, 1),
                          "count"),
        # attack (per call; trials per table)
        "attack.observe_s": (sp.per_call("attack.observe", S), "s"),
        "attack.table_s": (sp.per_call("attack.table", S), "s"),
        "attack.fit_us": (sp.per_call("attack.fit", US), "us"),
        "attack.rollout_us": (sp.per_call("attack.rollout", US), "us"),
        "attack.trials": (sp.count("attack.trial") / max(tables, 1), "count"),
        # keys, cipher, wire
        "keys.generate_key_us": (sp.per_call("keys.generate_key", US), "us"),
        "keys.betas_us": (sp.per_call("keys.betas", US), "us"),
        "qe_cipher.enc_us": (sp.per_cycle(["qe_cipher.enc"], US), "us"),
        "qe_cipher.con_us": (sp.per_cycle(["qe_cipher.con"], US), "us"),
        "qe_cipher.dec_us": (sp.per_cycle(["qe_cipher.dec"], US), "us"),
        "qe_cipher.quantize_us": (sp.per_call("qe_cipher.quantize", US), "us"),
        "qe_cipher.dequantize_us": (sp.per_call("qe_cipher.dequantize", US), "us"),
        "wire.f64_us": (sp.per_cycle(["wire.f64"], US), "us"),
        "wire.pack_words_us": (sp.per_cycle(["wire.pack_words"], US), "us"),
        "wire.unpack_words_us": (sp.per_cycle(["wire.unpack_words"], US), "us"),
        "wire.he_ct_us": (sp.per_cycle(["wire.he_ct"], US), "us"),
        # paillier primitives (per call)
        "paillier.keygen_s": (sp.per_call("paillier.keygen", S), "s"),
        "paillier.he_enc_ms": (sp.per_call("paillier.he_enc", MS), "ms"),
        "paillier.he_dec_ms": (sp.per_call("paillier.he_dec", MS), "ms"),
        "paillier.he_scalar_mul_us": (sp.per_call("paillier.he_scalar_mul", US), "us"),
        "paillier.he_add_us": (sp.per_call("paillier.he_add", US), "us"),
    }
    # protocol parties (per call), total and self time, and the traced cycle
    for backend in ("plaintext", "qe", "qe_quantized", "paillier"):
        for part in ("cycle", "sensor", "cloud", "actuator"):
            name = f"protocol.{backend}.{part}"
            out[f"{name}_us"] = (sp.per_call(name, US), "us")
            if part != "cycle":
                out[f"{name}_self_us"] = (sp.per_call(name, US, field="self"), "us")
            elif backend in ("qe", "qe_quantized"):
                out[f"{name}_p99_us"] = (sp.per_call(name, US, q=99), "us")
    # share of traced cycle time inside spans of the layers below the cycle
    roots = np.array([n.endswith(".cycle") for n in arrays["name"]])
    cycle_time = arrays["dur"][roots].sum()
    out["trace.cycle_accounted_pct"] = (
        100.0 * (1.0 - arrays["self"][roots].sum() / cycle_time), "%")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    out["trace.spans"] = (len(arrays["dur"]), "count")
    return out
