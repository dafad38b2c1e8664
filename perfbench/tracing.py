"""Per-layer trace of a pass: wrappers around thetacalc's layer boundaries.

`install()` replaces each probed function or method with a wrapper, in every
thetacalc module that binds it (names imported by value are bound in
several).  Spans aggregate in memory, per thread, into call count, total
and self time per name; self time is a span's duration minus the time its
child spans cover.  A span nested directly in one of the same name is
folded into it, so `a - b` (which calls `__add__`) counts as one add.  A
probed name that no longer exists is listed as absent, not an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from fractions import Fraction
from time import perf_counter

MODULES = ("exactnum", "verlinde", "pgl", "splitting", "torsion", "chern", "heisenberg", "cli")


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.primes: list[int] | None = None


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.absent: list[str] = []
        self.identities_submitted = 0.0

    def state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def count(self, name: str, amount: float = 1) -> None:
        counters = self.state().counters
        counters[name] = counters.get(name, 0) + amount

    def _close(self, st: _ThreadState, name: str, dt: float, covered: float, calls: int = 1) -> None:
        rec = st.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += dt
        rec[2] += dt - covered
        if st.stack:
            st.stack[-1][1] += dt

    def span(self, name, fn, before=None, after=None):
        """Time fn as span `name`; hooks run outside the timed interval."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.state()
            if st.stack and st.stack[-1][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                before(st, args)
            frame = [name, 0.0]
            st.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.stack.pop()
                self._close(st, name, dt, frame[1])
            if after is not None:
                after(st, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Count calls of fn without a span; its time stays with the caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def counted_items(self, name, fn, timed=False, collect=False):
        """Count the items a generator function yields.  timed=True makes
        each step a span whose call count is the number of items;
        collect=True keeps the items (primes) for the enclosing residue
        call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            st = self.state()
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    if timed:
                        self._close(st, name, perf_counter() - t0, 0.0, calls=0)
                    return
                if timed:
                    self._close(st, name, perf_counter() - t0, 0.0)
                else:
                    self.count(name)
                if collect and st.primes is not None:
                    st.primes.append(item)
                yield item

        return wrapper

    def patch(self, module: str, attr: str, make, only_home: bool = False) -> None:
        """Replace `module.attr` (or `module.Class.method`) by make(original)
        in every thetacalc module that binds the same object."""
        home = sys.modules.get(f"thetacalc.{module}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        if owner is None:
            original = None
        elif owner_name:
            original = vars(owner).get(member)
        else:
            original = getattr(owner, member, None)
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        if owner_name:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
            return
        targets = [home] if only_home else [sys.modules["thetacalc"]] + [
            sys.modules[f"thetacalc.{m}"] for m in MODULES
        ]
        for mod in targets:
            if getattr(mod, member, None) is original:
                setattr(mod, member, wrapper)

    def report(self) -> dict:
        """Spans and counters summed over threads."""
        spans: dict[str, list[float]] = {}
        counters: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, rec in st.spans.items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
            for name, value in st.counters.items():
                counters[name] = counters.get(name, 0) + value
        return {"spans": spans, "counters": counters, "absent": list(self.absent)}


def install() -> Tracer:
    """Wrap every probed layer boundary of an imported thetacalc."""
    for module in MODULES:
        importlib.import_module(f"thetacalc.{module}")
    t = Tracer()
    span, counted, items = t.span, t.counted, t.counted_items

    for method in ("__mul__", "__add__", "__sub__", "__rsub__", "inverse", "__pow__"):
        name = {"__mul__": "mul", "inverse": "inverse", "__pow__": "pow"}.get(method, "add")
        t.patch("exactnum", f"CycNum.{method}", lambda f, n=name: span(f"exactnum.{n}", f))
    t.patch("exactnum", "sine_square", lambda f: counted("exactnum.sine_square", f))

    def v_number_after(st, args, result):
        if args[0].g >= 2:
            t.count("verlinde.v_number.g2_calls")

    def evaluation_before(st, args):
        if any(frame[0] == "verlinde.v_number" for frame in st.stack):
            t.count("verlinde.v_number.evaluations")

    def residue_before(st, args):
        evaluation_before(st, args)
        st.primes = []

    def residue_after(st, args, result):
        n, r, g = args
        scaled = result / Fraction(n) ** (r * (g - 1)) * n ** (2 * (g - 1) * (r * (r - 1) // 2))
        modulus = 1
        for p in st.primes:
            modulus *= p
        st.primes = None
        t.count("verlinde.residue.used_bits", abs(int(scaled)).bit_length())
        t.count("verlinde.residue.modulus_bits", modulus.bit_length())

    t.patch("verlinde", "v_number", lambda f: span("verlinde.v_number", f, after=v_number_after))
    t.patch("verlinde", "_v_exact", lambda f: span("verlinde.exact", f, before=evaluation_before))
    t.patch("verlinde", "_v_modular",
            lambda f: span("verlinde.residue", f, before=residue_before, after=residue_after))
    t.patch("verlinde", "_primes_one_mod", lambda f: items("verlinde.residue.primes", f, collect=True))
    t.patch("verlinde", "necklace_orbits", lambda f: items("verlinde.necklace", f, timed=True))
    t.patch("verlinde", "subset_term", lambda f: span("verlinde.subset_term", f))

    t.patch("pgl", "pgl_dim_charsum", lambda f: span("pgl.charsum", f))
    t.patch("pgl", "pgl_dim_coperiodic", lambda f: span("pgl.coperiodic", f))
    # Only the coperiodic walk's binding: the identity suite enumerates
    # subsets through verlinde.all_subsets for another purpose.
    t.patch("pgl", "all_subsets", lambda f: items("pgl.subsets", f), only_home=True)
    t.patch("pgl", "xi_weight", lambda f: span("pgl.xi_weight", f))

    t.patch("splitting", "multiplicity", lambda f: span("splitting.multiplicity", f))
    t.patch("splitting", "multiplicity_oracle", lambda f: span("splitting.oracle", f))
    t.patch("splitting", "trace_of_torsion", lambda f: span("splitting.trace", f))
    t.patch("torsion", "all_points", lambda f: items("torsion.points", f))
    t.patch("torsion", "check_character_sum", lambda f: span("torsion.character_sum", f))

    def classes_after(st, args, result):
        t.count("heisenberg.class_count", len(result))

    t.patch("heisenberg", "irrep_census", lambda f: span("heisenberg.census", f))
    t.patch("heisenberg", "_conjugacy_classes",
            lambda f: span("heisenberg.classes", f, after=classes_after))
    t.patch("heisenberg", "HeisenbergElement.__mul__", lambda f: counted("heisenberg.group_mul", f))
    t.patch("heisenberg", "_central_weight", lambda f: counted("heisenberg.candidates", f))

    t.patch("chern", "fm_via_kernel", lambda f: span("chern.fm_via_kernel", f))

    def identities_before(st, args):
        t.identities_submitted = perf_counter()

    def case(fn):
        @functools.wraps(fn)
        def wrapper(ranges):
            start = perf_counter()
            try:
                return fn(ranges)
            finally:
                t.count("cli.identities.busy_s", perf_counter() - start)
                t.count("cli.identities.wait_s", start - t.identities_submitted)

        return wrapper

    t.patch("cli", "render", lambda f: span("cli.render", f))
    t.patch("cli", "_cmd_identities", lambda f: span("cli.identities", f, before=identities_before))
    cli = sys.modules["thetacalc.cli"]
    if hasattr(cli, "IDENTITY_CASES"):
        cli.IDENTITY_CASES = tuple((label, case(fn)) for label, fn in cli.IDENTITY_CASES)
    else:
        t.absent.append("cli.IDENTITY_CASES")
    return t


# Per-layer metric -> (unit, better).  Order is the order of the report.
LAYER_METRICS = {
    "exactnum.mul.calls": ("count", "lower"),
    "exactnum.mul.self_s": ("s", "lower"),
    "exactnum.add.calls": ("count", "lower"),
    "exactnum.add.self_s": ("s", "lower"),
    "exactnum.inverse.calls": ("count", "lower"),
    "exactnum.inverse.self_s": ("s", "lower"),
    "exactnum.pow.calls": ("count", "lower"),
    "exactnum.pow.self_s": ("s", "lower"),
    "exactnum.sine_square.calls": ("count", "lower"),
    "verlinde.v_number.calls": ("count", "lower"),
    "verlinde.v_number.evaluations": ("count", "lower"),
    "verlinde.v_number.hit_ratio": ("ratio", "higher"),
    "verlinde.exact.calls": ("count", "lower"),
    "verlinde.exact.self_s": ("s", "lower"),
    "verlinde.residue.calls": ("count", "lower"),
    "verlinde.residue.self_s": ("s", "lower"),
    "verlinde.residue.primes": ("count", "lower"),
    "verlinde.residue.bound_use": ("ratio", "higher"),
    "verlinde.necklace.orbits": ("count", "lower"),
    "verlinde.necklace.self_s": ("s", "lower"),
    "verlinde.subset_term.calls": ("count", "lower"),
    "verlinde.subset_term.self_s": ("s", "lower"),
    "pgl.charsum.self_s": ("s", "lower"),
    "pgl.coperiodic.self_s": ("s", "lower"),
    "pgl.subsets": ("count", "lower"),
    "pgl.xi_weight.self_s": ("s", "lower"),
    "splitting.multiplicity.self_s": ("s", "lower"),
    "splitting.oracle.self_s": ("s", "lower"),
    "splitting.trace.calls": ("count", "lower"),
    "torsion.points": ("count", "lower"),
    "torsion.character_sum.self_s": ("s", "lower"),
    "heisenberg.census.self_s": ("s", "lower"),
    "heisenberg.classes.self_s": ("s", "lower"),
    "heisenberg.group_mul.calls": ("count", "lower"),
    "heisenberg.candidates": ("count", "lower"),
    "heisenberg.candidate_yield": ("ratio", "higher"),
    "chern.fm_via_kernel.self_s": ("s", "lower"),
    "cli.render.self_s": ("s", "lower"),
    "cli.identities.wall_s": ("s", "lower"),
    "cli.identities.busy_s": ("s", "lower"),
    "cli.identities.wait_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.absent": ("count", "lower"),
}


def layer_values(report: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass (trace.overhead_s excepted)."""
    spans, counters = report["spans"], report["counters"]

    def calls(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    g2 = counters.get("verlinde.v_number.g2_calls", 0)
    evaluations = counters.get("verlinde.v_number.evaluations", 0)
    out = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls(layer) or counters.get(layer, 0)
        elif kind == "self_s":
            out[metric] = self_s(layer)
    out.update({
        "verlinde.v_number.evaluations": evaluations,
        "verlinde.v_number.hit_ratio": ratio(g2 - evaluations, g2),
        "verlinde.residue.primes": counters.get("verlinde.residue.primes", 0),
        "verlinde.residue.bound_use": ratio(
            counters.get("verlinde.residue.used_bits", 0),
            counters.get("verlinde.residue.modulus_bits", 0),
        ),
        "verlinde.necklace.orbits": calls("verlinde.necklace"),
        "pgl.subsets": counters.get("pgl.subsets", 0),
        "torsion.points": counters.get("torsion.points", 0),
        "heisenberg.candidates": counters.get("heisenberg.candidates", 0),
        "heisenberg.candidate_yield": ratio(
            counters.get("heisenberg.class_count", 0), counters.get("heisenberg.candidates", 0)
        ),
        "cli.identities.wall_s": spans.get("cli.identities", [0, 0.0, 0.0])[1],
        "cli.identities.busy_s": counters.get("cli.identities.busy_s", 0.0),
        "cli.identities.wait_s": counters.get("cli.identities.wait_s", 0.0),
        "trace.absent": len(report["absent"]),
    })
    return out
