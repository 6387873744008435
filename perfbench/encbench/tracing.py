"""Span tracing around the public functions of encmpc's modules.

A traced run wraps each function listed in TARGETS, in every encmpc
module that holds a reference to it, so that each call records a span:
name, start, end, parent span, whether it raised, and for some spans a
value taken from the result.  Spans stay in memory until the run ends;
then layers.per_layer() reduces them to the per-layer metrics and
save() writes them out.  An untraced run installs nothing.
"""
import math
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name); a class method is "Class.method".  A
# callable name is computed from the call's arguments.
TARGETS = (
    ("mpqp", "condense", "mpqp.condense"),
    ("mpqp", "enumerate_regions", "mpqp.enumerate"),
    ("mpqp", "synthesize", "mpqp.synthesize"),
    ("mpqp", "PwaController.locate", "mpqp.locate"),
    ("polyhedra", "chebyshev_center", "polyhedra.chebyshev"),
    ("polyhedra", "irredundant_rows", "polyhedra.irredundant"),
    ("lp", "max_linear", "lp.max_linear"),
    ("lp", "feasible_point", "lp.feasible_point"),
    ("qp", "solve_qp", "qp.solve"),
    ("qp", "implicit_control", "qp.implicit_control"),
    ("qp", "solve_qp_oracle", "qp.oracle"),
    ("keys", "generate_key", "keys.generate_key"),
    ("keys", "betas", "keys.betas"),
    ("qe_cipher", "enc_state", "qe_cipher.enc"),
    ("qe_cipher", "enc_offset", "qe_cipher.enc"),
    ("qe_cipher", "con", "qe_cipher.con"),
    ("qe_cipher", "dec_aggregate", "qe_cipher.dec"),
    ("qe_cipher", "dec_vector", "qe_cipher.dec"),
    ("qe_cipher", "quantize_stochastic", "qe_cipher.quantize"),
    ("qe_cipher", "dequantize", "qe_cipher.dequantize"),
    ("wire", "encode_f64_vec", "wire.f64"),
    ("wire", "decode_f64_vec", "wire.f64"),
    ("wire", "pack_words", "wire.pack_words"),
    ("wire", "unpack_words", "wire.unpack_words"),
    ("wire", "encode_he_ct", "wire.he_ct"),
    ("wire", "decode_he_ct", "wire.he_ct"),
    ("paillier", "keygen", "paillier.keygen"),
    ("paillier", "he_enc", "paillier.he_enc"),
    ("paillier", "he_dec", "paillier.he_dec"),
    ("paillier", "he_scalar_mul", "paillier.he_scalar_mul"),
    ("paillier", "he_add", "paillier.he_add"),
    ("paillier", "he_eval_pwa", "paillier.he_eval_pwa"),
    ("protocol", "make_parties", "protocol.make_parties"),
    ("protocol", "run_cycle", lambda a, kw: f"protocol.{a[1].backend}.cycle"),
    ("protocol", "Sensor.step", lambda a, kw: f"protocol.{a[0].backend}.sensor"),
    ("protocol", "Cloud.step", lambda a, kw: f"protocol.{a[0].backend}.cloud"),
    ("protocol", "Actuator.step", lambda a, kw: f"protocol.{a[0].backend}.actuator"),
    ("simulation", "run_closed_loop", "simulation.run_closed_loop"),
    ("attack", "gather_observations", "attack.observe"),
    ("attack", "run_attack_table", "attack.table"),
    ("attack", "observe_features", "attack.features"),
    ("attack", "attack_once", "attack.trial"),
    ("attack", "fit_ls_predictor", "attack.fit"),
    ("attack", "rollout", "attack.rollout"),
)


def _locate_scan(args, result):
    """Regions PwaController.locate tested before it returned."""
    return result + 1 if result >= 0 else len(args[0].regions)


# span name -> function of (args, result) stored as the span's value
VALUES = {"mpqp.locate": _locate_scan}


class Tracer:
    """In-memory span recorder; wrap() turns a function into a traced one."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("b")
        self.value = array("d")
        self._stack = []
        self._patches = []

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(self.start)
            self.name_id.append(self._name_id(label))
            self.parent.append(stack[-1] if stack else -1)
            self.raised.append(0)
            self.value.append(math.nan)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if label in VALUES:
                self.value[idx] = VALUES[label](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap every target for its traced wrapper, in every encmpc
        module that references it (covers `from x import f` too)."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("encmpc.")}
        by_identity = {}
        for mod_name, attr, span in TARGETS:
            owner = modules["encmpc." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(fn, span))
            else:
                fn = getattr(owner, attr)
                by_identity[id(fn)] = (fn, self.wrap(fn, span))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = by_identity.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def __len__(self):
        return len(self.start)

    def truncate(self, size):
        """Forget every span recorded after the first `size`."""
        for arr in (self.name_id, self.start, self.end, self.parent,
                    self.raised, self.value):
            del arr[size:]

    def arrays(self):
        """Spans as numpy arrays plus self time and owning cycle."""
        names = np.array(self.names + [""], dtype=object)
        nid = np.array(self.name_id, dtype=np.int32)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        # owning cycle: a span's nearest protocol.<backend>.cycle ancestor;
        # parents precede children, so one forward pass suffices
        is_cycle = np.array([n.endswith(".cycle") for n in names])[nid]
        cycle = np.full(len(dur), -1, dtype=np.int64)
        for i in range(len(dur)):
            if is_cycle[i]:
                cycle[i] = i
            elif parent[i] >= 0:
                cycle[i] = cycle[parent[i]]
        return {"name": names[nid], "dur": dur, "self": dur - child,
                "parent": parent, "raised": np.array(self.raised, dtype=bool),
                "value": np.array(self.value, dtype=float), "cycle": cycle}

    def save(self, path):
        """Write the spans as a .npz file (names, ids, start, end, parent)."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 start=np.array(self.start, dtype=float),
                 end=np.array(self.end, dtype=float),
                 parent=np.array(self.parent, dtype=np.int32),
                 raised=np.array(self.raised, dtype=np.int8))
