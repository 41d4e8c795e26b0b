"""The four benchmark workloads.

A workload is built from a seed in set-up: it draws every input and
computes every reference there, by a route that does not go through the
code under test.  Operation ``i`` then runs in three steps:

- ``prepare(i)`` builds the operation's input (outside the timed region);
- ``run(i, x)`` is the timed call into coherlab;
- ``check(i, out)`` compares the output with the reference and returns
  ``None`` or the reason the operation failed.  It never calls coherlab,
  so a traced run records only the operation itself.

Operations come in cycles of ``cycle`` operations; a run stops only at a
cycle boundary, so every run has the same mix of operation kinds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from coherlab import channels as ch
from coherlab import cli
from coherlab import linalg
from coherlab import measures as ms
from coherlab import protocols as pr
from coherlab import states as st

SEED_BOUND = 2**31


def entropy_bits(eigenvalues) -> float:
    """Shannon entropy in bits of a spectrum or probability vector; values
    below zero (rounding) count as zero."""
    w = np.clip(np.ravel(eigenvalues).real, 0.0, 1.0)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def qi_closed_form(mat: np.ndarray, da: int, db: int) -> float:
    """S(dephase_B(rho)) - S(rho) for rho on (A, B), with the dephased
    entropy taken block by block over B's basis labels."""
    t = mat.reshape(da, db, da, db)
    idx = np.arange(db)
    blocks = t[:, idx, :, idx]  # (db, da, da): the A-block for each B label
    return entropy_bits(np.linalg.eigvalsh(blocks)) - entropy_bits(np.linalg.eigvalsh(mat))


def invoke_cli(args: list[str]) -> tuple[int, str]:
    """Run one coherlab command in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            cli.main.main(args, prog_name="coherlab", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class Workload:
    """Base class: ``n_ops`` inputs drawn in set-up, consumed in order."""

    name = ""
    cycle = 1
    n_ops = 0

    def prepare(self, i: int):
        return None

    def run(self, i: int, x):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def gap(self, i: int, out) -> float | None:
        """|optimizer value - certified reference| for optimizer operations."""
        return None

    @staticmethod
    def fingerprint(out) -> tuple:
        """Exact, comparable form of an operation's output."""
        return _fingerprint(out)


def _fingerprint(obj):
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return tuple(_fingerprint(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((k, _fingerprint(v)) for k, v in sorted(obj.items()))
    return obj


# ---------------------------------------------------------------------------
# reproduce: the paper's reference table, end to end through the CLI

# The paper's closed-form values and the tolerance each is held to.
REPRODUCE_REFERENCE = {
    "cr_psi2": (1.0, 1e-12),
    "qire_bell_B1": (1.0, 1e-12),
    "qire_merging_R_AB": (8.0 / 9.0, 1e-9),
    "qire_merging_RB_A": (4.0 / 9.0, 1e-9),
    "merge_simulation_residual": (0.0, 1e-9),
    "domino_gram_identity": (0.0, 1e-12),
    "domino_completeness_residual": (0.0, 1e-9),
    "domino_channel_si": (1.0, 0.0),
    "domino_discrimination_success": (1.0, 1e-9),
    "teleport_min_fidelity_20_random": (1.0, 1e-9),
    "continuity_bound_bell_vs_dephased": (4.0, 1e-9),
}


class Reproduce(Workload):
    """One operation is ``coherlab reproduce --format json --seed s``."""

    name = "reproduce"
    n_ops = 4096

    def __init__(self, seed: int):
        self.seeds = np.random.default_rng(seed).integers(SEED_BOUND, size=self.n_ops)

    def run(self, i, x):
        return invoke_cli(["reproduce", "--format", "json", "--seed", str(self.seeds[i])])

    def check(self, i, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        rows = {row["name"]: row for row in json.loads(text)}
        if set(rows) != set(REPRODUCE_REFERENCE):
            return f"rows {sorted(rows)} differ from the reference table"
        for name, (expected, tol) in REPRODUCE_REFERENCE.items():
            row = rows[name]
            if row["status"] != "pass":
                return f"{name}: status {row['status']}"
            if not abs(row["value"] - expected) <= tol:
                return f"{name}: {row['value']!r} misses {expected!r} by more than {tol:.0e}"
        return None


# ---------------------------------------------------------------------------
# suites: many small states through the CLI property suites, plus one
# 3-round qutrit LQICC script applied through the API

SUITE_CYCLE = ("monotonicity", "steering", "teleport", "closed-form", "continuity",
               "reductions", "lqicc")
SUITE_TRIALS = 20


class Suites(Workload):
    """Cycles through six ``coherlab suite <name> --trials 20 --seed s``
    commands and one LQICC monotonicity check; every seed is fresh."""

    name = "suites"
    cycle = len(SUITE_CYCLE)
    n_ops = cycle * 600

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.seeds = rng.integers(SEED_BOUND, size=self.n_ops)
        self.states = {}
        self.reference = {}
        for i in range(SUITE_CYCLE.index("lqicc"), self.n_ops, self.cycle):
            rho = st.random_density((3, 3), 9, int(rng.integers(SEED_BOUND)))
            self.states[i] = rho
            self.reference[i] = qi_closed_form(rho.mat, 3, 3)

    def prepare(self, i):
        return self.states.get(i)

    def run(self, i, rho):
        kind = SUITE_CYCLE[i % self.cycle]
        if kind != "lqicc":
            return invoke_cli(["suite", kind, "--trials", str(SUITE_TRIALS),
                               "--seed", str(self.seeds[i])])
        protocol = ch.random_sqi_channel((3,), (3,), 3, int(self.seeds[i]), n_outcomes=3)
        split = ms.Bipartition((0,), (1,))
        return ms.qi_relative_entropy(rho, split), ms.qi_relative_entropy(protocol.apply(rho), split)

    def check(self, i, out):
        kind = SUITE_CYCLE[i % self.cycle]
        if kind == "lqicc":
            before, after = out
            if not abs(before - self.reference[i]) <= 1e-9:
                return f"QI relative entropy {before!r} != reference {self.reference[i]!r}"
            if not after <= before + 1e-9:
                return f"QI relative entropy rose from {before!r} to {after!r} under LQICC"
            return None
        code, text = out
        expected = {"suite": kind, "trials": SUITE_TRIALS, "failures": 0, "failure_seeds": []}
        if code != 0 or json.loads(text) != expected:
            return f"exit code {code}, summary {text.strip()!r}"
        return None


# ---------------------------------------------------------------------------
# optimizers: the derivative-free searches at tiny dimension

# The qutrit case is a third of the operations, so the tail percentile
# (ten samples beyond it) falls inside the qutrit group in every run
# instead of on the gap between the fast cases and the qutrit case.
OPTIMIZER_CYCLE = ("assist-qubit", "assist-qutrit", "oracle", "distill") * 2 + ("assist-qutrit",)
ASSIST_BUDGET = 2
ORACLE_STARTS = 8


class Optimizers(Workload):
    """One operation is one solve on a fresh random input: coherence of
    assistance (qubit and qutrit), the QI oracle on 2x2, and assisted
    distillation of a 2x2 pure state."""

    name = "optimizers"
    cycle = len(OPTIMIZER_CYCLE)
    n_ops = cycle * 60

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = []
        self.bounds = []
        for i in range(self.n_ops):
            kind = OPTIMIZER_CYCLE[i % self.cycle]
            state_seed, solver_seed = (int(s) for s in rng.integers(SEED_BOUND, size=2))
            if kind in ("assist-qubit", "assist-qutrit"):
                d = 2 if kind == "assist-qubit" else 3
                rho = st.random_density((d,), d, state_seed)
                bound = _assistance_bracket(rho.mat)
            elif kind == "oracle":
                rho = st.random_density((2, 2), 4, state_seed)
                bound = qi_closed_form(rho.mat, 2, 2)
            else:
                rho = st.random_pure((2, 2), state_seed)
                m = rho.vec.reshape(2, 2)
                bound = _assistance_bracket(m.T @ m.conj())  # Bob's marginal
            self.inputs.append((rho, solver_seed))
            self.bounds.append(bound)

    def prepare(self, i):
        return self.inputs[i]

    def run(self, i, x):
        rho, solver_seed = x
        kind = OPTIMIZER_CYCLE[i % self.cycle]
        if kind == "oracle":
            split = ms.Bipartition((0,), (1,))
            return ms.qi_relative_entropy_oracle(rho, split, starts=ORACLE_STARTS, seed=solver_seed)
        if kind == "distill":
            return dict(pr.assisted_distill_pure(rho, budget=ASSIST_BUDGET, seed=solver_seed).metrics)
        value, ensemble = ms.coherence_of_assistance(rho, budget=ASSIST_BUDGET, seed=solver_seed)
        return value, [(p, psi.vec) for p, psi in ensemble]

    def check(self, i, out):
        kind = OPTIMIZER_CYCLE[i % self.cycle]
        if kind == "oracle":
            excess = out - self.bounds[i]
            if not -1e-4 <= excess <= 1e-2:
                return f"oracle exceeds the closed form by {excess!r}, outside [-1e-4, 1e-2]"
            return None
        lower, upper = self.bounds[i]
        value = out["average_coherence"] if kind == "distill" else out[0]
        if not lower - 1e-9 <= value <= upper + 1e-9:
            return f"{kind} value {value!r} outside [c_r, S(dephased)] = [{lower!r}, {upper!r}]"
        return None

    def gap(self, i, out):
        kind = OPTIMIZER_CYCLE[i % self.cycle]
        if kind == "oracle":
            return abs(out - self.bounds[i])
        if kind == "distill":
            return None
        return abs(out[0] - self.bounds[i][1])


def _assistance_bracket(mat: np.ndarray) -> tuple[float, float]:
    """[c_r, S(dephase(rho))]: every decomposition's average coherence lies
    in it, and for a qubit the upper end is attained."""
    upper = entropy_bits(np.diag(mat))
    return upper - entropy_bits(np.linalg.eigvalsh(mat)), upper


# ---------------------------------------------------------------------------
# large-d: single closed-form measures on 243- and 729-dimensional states

LARGE_D_MEASURES = ("c_r", "qi_relative_entropy", "mutual_information", "basis_dependent_discord")
LARGE_D_RANK = 8
# Three of every four operations use 243 dimensions and one uses 729, so
# the median lands inside the 243-dimensional group and the tail inside
# the 729-dimensional one.
LARGE_D_DIMS = ((3, 9, 9),) * 3 + ((9, 9, 9),)
LARGE_D_TOL = 1e-9


class LargeD(Workload):
    """One operation is one closed-form measure call on a distinct rank-8
    state; the split for the bipartite measures is A=0;B=1,2."""

    name = "large-d"
    cycle = len(LARGE_D_MEASURES) * len(LARGE_D_DIMS)
    n_ops = cycle * 32

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.factors = []
        self.reference = []
        for i in range(self.n_ops):
            fn, dims = self.kind(i)
            d = math.prod(dims)
            v = rng.standard_normal((d, LARGE_D_RANK)) + 1j * rng.standard_normal((d, LARGE_D_RANK))
            v /= np.linalg.norm(v)
            self.factors.append(v)
            self.reference.append(_large_d_reference(fn, v, dims[0], d // dims[0]))

    def kind(self, i: int) -> tuple[str, tuple[int, ...]]:
        j = i % self.cycle
        return LARGE_D_MEASURES[j % len(LARGE_D_MEASURES)], LARGE_D_DIMS[j // len(LARGE_D_MEASURES)]

    def prepare(self, i):
        _, dims = self.kind(i)
        v = self.factors[i]
        return linalg.DensityMatrix(v @ v.conj().T, dims)

    def run(self, i, rho):
        fn, _ = self.kind(i)
        if fn == "c_r":
            return ms.c_r(rho)
        return getattr(ms, fn)(rho, ms.Bipartition((0,), (1, 2)))

    def check(self, i, out):
        fn, dims = self.kind(i)
        if not abs(out - self.reference[i]) <= LARGE_D_TOL:
            return f"{fn} on {dims}: {out!r} != reference {self.reference[i]!r}"
        return None


def _large_d_reference(fn: str, v: np.ndarray, da: int, db: int) -> float:
    """The measure of rho = v v' computed from the rank-r factor alone:
    S(rho) from the Gram matrix v' v, S(dephase(rho)) from the diagonal,
    and the B-dephased state and both marginals block by block."""
    s_ab = entropy_bits(np.linalg.eigvalsh(v.conj().T @ v))
    if fn == "c_r":
        return entropy_bits(np.sum(np.abs(v) ** 2, axis=1)) - s_ab
    r = v.shape[1]
    per_b = v.reshape(da, db, r).transpose(1, 0, 2)  # (db, da, r)
    blocks = per_b @ per_b.conj().transpose(0, 2, 1)  # A-block of each B label
    s_dephased = entropy_bits(np.linalg.eigvalsh(blocks))
    if fn == "qi_relative_entropy":
        return s_dephased - s_ab
    w = per_b.reshape(db, da * r)  # rho_B = w w'
    s_b = entropy_bits(np.linalg.eigvalsh(w.conj().T @ w))
    if fn == "mutual_information":
        return entropy_bits(np.linalg.eigvalsh(blocks.sum(axis=0))) + s_b - s_ab
    # I(rho) - I(dephase_B(rho)); rho_A is unchanged and rho_B loses its
    # off-diagonal part.
    return s_b - s_ab - entropy_bits(np.sum(np.abs(w) ** 2, axis=1)) + s_dephased


WORKLOADS = {cls.name: cls for cls in (Reproduce, Suites, Optimizers, LargeD)}
