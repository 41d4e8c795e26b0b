"""Kraus channels, operation-class predicates, instruments and two-party
local protocols with classical branching.

Operation classes on a bipartite system:

* separable (S): product-Kraus channels sum_i (A_i x B_i) rho (A_i x B_i)'
* separable incoherent (SI): all A_i and B_i incoherent
* separable quantum-incoherent (SQI): only the B_i incoherent
* LICC / LQICC: round-based local instruments with classical messaging,
  represented operationally as LocalProtocol scripts (never as a membership
  predicate on abstract channels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    IncoherenceViolationError,
    IncompleteChannelError,
    NotIncoherentError,
    SingularNormalizerError,
)
from .linalg import DensityMatrix, apply_local, permute_subsystems, _to_matrix

__all__ = [
    "COMPLETENESS_TOL",
    "OUTCOME_PRUNE_TOL",
    "InstrumentOutcome",
    "KrausChannel",
    "ProductKrausChannel",
    "ChannelClass",
    "ProtocolRound",
    "LocalProtocol",
    "is_incoherent_operator",
    "classify",
    "complete_incoherent_kraus",
    "dephasing_channel",
    "identity_channel",
    "unitary_channel",
    "random_incoherent_channel",
    "random_instrument",
    "random_sqi_channel",
    "random_licc_protocol",
]

COMPLETENESS_TOL = 1e-9
OUTCOME_PRUNE_TOL = 1e-12


def is_incoherent_operator(k, tol: float = 1e-9) -> bool:
    """True iff every column of k has at most one entry with modulus > tol,
    i.e. the operator maps each basis vector to a multiple of a basis
    vector.  Phases are irrelevant; a NaN entry counts as nonzero."""
    mat = _to_matrix(k)
    return bool(((~(np.abs(mat) <= tol)).sum(axis=0) <= 1).all())


@dataclass(frozen=True)
class InstrumentOutcome:
    probability: float
    state: DensityMatrix
    outcome: int


def _outcomes(posts, dims: tuple[int, ...]) -> list[InstrumentOutcome]:
    """Instrument outcomes from the unnormalized post-states, one per
    operator in order; outcomes with probability <= 1e-12 are pruned."""
    outcomes = []
    for l, post in enumerate(posts):
        p = float(np.trace(post).real)
        if p > OUTCOME_PRUNE_TOL:
            outcomes.append(InstrumentOutcome(p, DensityMatrix(post / p, dims), l))
    return outcomes


def _freeze_ops(ops) -> tuple[np.ndarray, ...]:
    frozen = []
    for op in ops:
        mat = _to_matrix(op).copy()
        mat.setflags(write=False)
        frozen.append(mat)
    return tuple(frozen)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered family of Kraus operators with a completeness certificate.

    Operators share the shape (prod(out_dims), prod(in_dims)); completeness
    requires || sum_l K_l' K_l - 1 ||_max <= 1e-9.
    """

    ops: tuple[np.ndarray, ...]
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]

    def __post_init__(self):
        ops = _freeze_ops(self.ops)
        if not ops:
            raise IncompleteChannelError("channel needs at least one Kraus operator")
        in_dims = tuple(int(d) for d in self.in_dims)
        out_dims = tuple(int(d) for d in self.out_dims)
        shape = (math.prod(out_dims), math.prod(in_dims))
        for op in ops:
            if op.shape != shape:
                raise DimensionMismatchError(
                    f"Kraus operator shape {op.shape} does not match dims {shape}"
                )
        gram = sum(op.conj().T @ op for op in ops)
        residual = np.abs(gram - np.eye(shape[1])).max()
        if not residual <= COMPLETENESS_TOL:
            raise IncompleteChannelError(
                f"completeness residual {residual:.3e} exceeds {COMPLETENESS_TOL:.0e}"
            )
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)

    @property
    def n_outcomes(self) -> int:
        return len(self.ops)

    def is_incoherent(self, tol: float = 1e-9) -> bool:
        return all(is_incoherent_operator(op, tol) for op in self.ops)

    def _place(self, rho: DensityMatrix, at: int | None) -> tuple[int, int, tuple[int, ...]]:
        """Dimension before and after the block of rho the channel acts on,
        and the output dims.  ``at`` is the block's first subsystem; None
        means the channel acts on the whole state."""
        n = len(self.in_dims)
        start = 0 if at is None else at
        if (start < 0 or rho.dims[start:start + n] != self.in_dims
                or (at is None and len(rho.dims) != n)):
            raise DimensionMismatchError(
                f"state dims {rho.dims} at subsystem {start} != channel dims {self.in_dims}"
            )
        head, tail = rho.dims[:start], rho.dims[start + n:]
        return math.prod(head), math.prod(tail), head + self.out_dims + tail

    def apply(self, rho: DensityMatrix, at: int | None = None) -> DensityMatrix:
        """Summed channel output sum_l K_l rho K_l', acting on the whole
        state or on the block of subsystems starting at ``at``."""
        before, after, dims = self._place(rho, at)
        out = sum(apply_local(rho.mat, op, before, after) for op in self.ops)
        return DensityMatrix(out, dims)

    def apply_instrument(self, rho: DensityMatrix,
                         at: int | None = None) -> list[InstrumentOutcome]:
        """Per-outcome result: probability, normalized post-state, index,
        with the channel placed as in ``apply``.  Outcomes with probability
        <= 1e-12 are pruned."""
        before, after, dims = self._place(rho, at)
        return _outcomes((apply_local(rho.mat, op, before, after) for op in self.ops), dims)


@dataclass(frozen=True, eq=False)
class ProductKrausChannel:
    """Two-party channel sum_i (A_i x B_i) rho (A_i x B_i)' with one operator
    pair per outcome and a joint completeness certificate."""

    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    a_in_dims: tuple[int, ...]
    b_in_dims: tuple[int, ...]
    a_out_dims: tuple[int, ...] | None = None
    b_out_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        a_in = tuple(int(d) for d in self.a_in_dims)
        b_in = tuple(int(d) for d in self.b_in_dims)
        a_out = a_in if self.a_out_dims is None else tuple(int(d) for d in self.a_out_dims)
        b_out = b_in if self.b_out_dims is None else tuple(int(d) for d in self.b_out_dims)
        a_shape = (math.prod(a_out), math.prod(a_in))
        b_shape = (math.prod(b_out), math.prod(b_in))
        pairs = []
        for a_op, b_op in self.pairs:
            a_mat, b_mat = _to_matrix(a_op).copy(), _to_matrix(b_op).copy()
            if a_mat.shape != a_shape or b_mat.shape != b_shape:
                raise DimensionMismatchError(
                    f"pair shapes {a_mat.shape}, {b_mat.shape} do not match {a_shape}, {b_shape}"
                )
            a_mat.setflags(write=False)
            b_mat.setflags(write=False)
            pairs.append((a_mat, b_mat))
        if not pairs:
            raise IncompleteChannelError("channel needs at least one operator pair")
        gram = sum(np.kron(a.conj().T @ a, b.conj().T @ b) for a, b in pairs)
        residual = np.abs(gram - np.eye(a_shape[1] * b_shape[1])).max()
        if not residual <= COMPLETENESS_TOL:
            raise IncompleteChannelError(
                f"completeness residual {residual:.3e} exceeds {COMPLETENESS_TOL:.0e}"
            )
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "a_in_dims", a_in)
        object.__setattr__(self, "b_in_dims", b_in)
        object.__setattr__(self, "a_out_dims", a_out)
        object.__setattr__(self, "b_out_dims", b_out)

    @property
    def n_outcomes(self) -> int:
        return len(self.pairs)

    @property
    def in_dims(self) -> tuple[int, ...]:
        return self.a_in_dims + self.b_in_dims

    @property
    def out_dims(self) -> tuple[int, ...]:
        return self.a_out_dims + self.b_out_dims

    def to_kraus(self) -> KrausChannel:
        ops = [np.kron(a, b) for a, b in self.pairs]
        return KrausChannel(tuple(ops), self.in_dims, self.out_dims)

    def _posts(self, rho: DensityMatrix):
        """(A_i x B_i) rho (A_i x B_i)' per pair, one party at a time: A_i
        acts first, so B_i's block comes after A's output dimension."""
        if rho.dims != self.in_dims:
            raise DimensionMismatchError(
                f"state dims {rho.dims} != channel dims {self.in_dims}"
            )
        d_a_out, d_b_in = math.prod(self.a_out_dims), math.prod(self.b_in_dims)
        for a_op, b_op in self.pairs:
            yield apply_local(apply_local(rho.mat, a_op, 1, d_b_in), b_op, d_a_out, 1)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return DensityMatrix(sum(self._posts(rho)), self.out_dims)

    def apply_instrument(self, rho: DensityMatrix) -> list[InstrumentOutcome]:
        """Per-pair outcomes as in ``KrausChannel.apply_instrument``."""
        return _outcomes(self._posts(rho), self.out_dims)


@dataclass(frozen=True)
class ChannelClass:
    """Classification flags for a product-Kraus channel.  The hierarchy
    SI => SQI must hold by construction.  A product channel is separable by
    definition, and for one the incoherent flag is the SI flag, so both are
    derived."""

    separable_incoherent: bool
    separable_quantum_incoherent: bool

    def __post_init__(self):
        if self.separable_incoherent and not self.separable_quantum_incoherent:
            raise IncompleteChannelError("inconsistent flags: SI requires SQI")

    @property
    def separable(self) -> bool:
        return True

    @property
    def incoherent(self) -> bool:
        return self.separable_incoherent

    def to_dict(self) -> dict:
        return {
            "separable": self.separable,
            "si": self.separable_incoherent,
            "sqi": self.separable_quantum_incoherent,
            "incoherent": self.incoherent,
        }


def classify(ch: ProductKrausChannel, tol: float = 1e-9) -> ChannelClass:
    """Classify a product channel: SI iff both parties' operators are
    incoherent; SQI iff the B-side operators are."""
    a_ok = all(is_incoherent_operator(a, tol) for a, _ in ch.pairs)
    b_ok = all(is_incoherent_operator(b, tol) for _, b in ch.pairs)
    return ChannelClass(separable_incoherent=a_ok and b_ok, separable_quantum_incoherent=b_ok)


def complete_incoherent_kraus(raw: Sequence, in_dims, out_dims=None,
                              tol: float = 1e-9) -> KrausChannel:
    """Normalize a family of incoherent operators into a complete channel
    via K_l = R_l M^{-1/2} with M = sum_l R_l' R_l.

    For incoherent inputs whose columns target distinct rows, M is diagonal,
    the normalizer rescales columns, and incoherence is preserved.  Inputs
    whose column targets collide can make M non-diagonal; the result is then
    still complete but may fail the incoherence predicate, which is checked
    and reported.
    """
    in_dims = tuple(int(d) for d in in_dims)
    out_dims = in_dims if out_dims is None else tuple(int(d) for d in out_dims)
    mats = [_to_matrix(r) for r in raw]
    for mat in mats:
        if not is_incoherent_operator(mat, tol):
            raise NotIncoherentError("input operator maps a basis state to a superposition")
    m = sum(mat.conj().T @ mat for mat in mats)
    w, v = np.linalg.eigh(m)
    if float(w.min()) < 1e-12:
        raise SingularNormalizerError(
            f"normalizer has eigenvalue {float(w.min()):.3e} < 1e-12"
        )
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    ops = [mat @ inv_sqrt for mat in mats]
    for op in ops:
        if not is_incoherent_operator(op, tol):
            raise NotIncoherentError(
                "normalizer mixed columns (colliding column targets); "
                "completed operators are no longer incoherent"
            )
    return KrausChannel(tuple(ops), in_dims, out_dims)


def identity_channel(dims) -> KrausChannel:
    dims = tuple(int(d) for d in dims)
    return KrausChannel((np.eye(math.prod(dims), dtype=complex),), dims, dims)


def unitary_channel(u, dims) -> KrausChannel:
    dims = tuple(int(d) for d in dims)
    return KrausChannel((_to_matrix(u),), dims, dims)


def dephasing_channel(dims, subsystems=None) -> KrausChannel:
    """Pinching channel that projects onto the incoherent basis of the
    selected subsystems (all of them by default)."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    idx = tuple(range(n)) if subsystems is None else tuple(sorted(set(subsystems)))
    total = math.prod(dims)
    multi = np.array(np.unravel_index(np.arange(total), dims))
    labels = [tuple(multi[s][k] for s in idx) for k in range(total)]
    ops = []
    for label in sorted(set(labels)):
        diag = np.array([1.0 if labels[k] == label else 0.0 for k in range(total)])
        ops.append(np.diag(diag).astype(complex))
    return KrausChannel(tuple(ops), dims, dims)


@dataclass(frozen=True, eq=False)
class ProtocolRound:
    """One local instrument applied by one party, with an optional
    per-outcome continuation (classical branching).  ``branches`` is either
    None (stop after this round) or one entry per outcome, each a further
    ProtocolRound or None."""

    party: str
    instrument: KrausChannel
    branches: tuple["ProtocolRound | None", ...] | None = None

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise DimensionMismatchError(f"party must be 'A' or 'B', got {self.party!r}")
        if self.branches is not None and len(self.branches) != self.instrument.n_outcomes:
            raise DimensionMismatchError(
                "branch map must assign one continuation per instrument outcome"
            )


@dataclass(frozen=True, eq=False)
class LocalProtocol:
    """Script of party-local instruments with classical-message branching.

    ``incoherent_parties`` lists the parties whose instruments must pass the
    incoherence predicate at run time ({"A", "B"} for LICC scripts, {"B"}
    for LQICC).  ``final_permutation`` optionally relabels subsystems of
    every leaf state.
    """

    a_dims: tuple[int, ...]
    b_dims: tuple[int, ...]
    root: ProtocolRound | None
    incoherent_parties: frozenset[str] = frozenset()
    final_permutation: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "a_dims", tuple(int(d) for d in self.a_dims))
        object.__setattr__(self, "b_dims", tuple(int(d) for d in self.b_dims))
        object.__setattr__(self, "incoherent_parties", frozenset(self.incoherent_parties))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.a_dims + self.b_dims

    def run(self, rho: DensityMatrix) -> list[tuple[float, DensityMatrix, tuple]]:
        """Depth-first expansion of the script.

        Returns a list of (probability, state, transcript) leaves; the
        transcript records (party, outcome) per round.  Raises
        IncoherenceViolationError when a flagged party uses a coherent
        operator.
        """
        if rho.dims != self.dims:
            raise DimensionMismatchError(f"state dims {rho.dims} != protocol dims {self.dims}")
        da, db = math.prod(self.a_dims), math.prod(self.b_dims)
        # party -> (its dims, dimension before and after its block)
        placement = {"A": (self.a_dims, 1, db), "B": (self.b_dims, da, 1)}
        leaves: list[tuple[float, DensityMatrix, tuple]] = []

        def expand(node: ProtocolRound | None, mat: np.ndarray, prob: float, transcript: tuple):
            if node is None:
                state = DensityMatrix(mat / prob, self.dims)
                if self.final_permutation is not None:
                    state = permute_subsystems(state, self.final_permutation)
                leaves.append((prob, state, transcript))
                return
            if node.party in self.incoherent_parties and not node.instrument.is_incoherent():
                raise IncoherenceViolationError(
                    f"party {node.party} instrument is not incoherent in a restricted round"
                )
            party_dims, before, after = placement[node.party]
            if not node.instrument.in_dims == node.instrument.out_dims == party_dims:
                raise DimensionMismatchError(
                    f"round instrument does not match party {node.party} dims"
                )
            for outcome, op in enumerate(node.instrument.ops):
                post = apply_local(mat, op, before, after)
                p = float(np.trace(post).real)
                if p <= OUTCOME_PRUNE_TOL * prob:
                    continue
                branch = None if node.branches is None else node.branches[outcome]
                expand(branch, post, p, transcript + ((node.party, outcome),))

        if self.root is None:
            state = rho
            if self.final_permutation is not None:
                state = permute_subsystems(state, self.final_permutation)
            return [(1.0, state, ())]
        expand(self.root, rho.mat.copy(), 1.0, ())
        total = sum(p for p, _, _ in leaves)
        if abs(total - 1.0) > 1e-9:
            raise IncompleteChannelError(f"leaf probabilities sum to {total}, not 1")
        return leaves

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """The protocol as a deterministic channel: probability-weighted sum
        over all leaves."""
        leaves = self.run(rho)
        dims = leaves[0][1].dims
        mat = sum(p * state.mat for p, state, _ in leaves)
        return DensityMatrix(mat, dims)

    def to_product(self) -> ProductKrausChannel:
        """Compile the script to product-Kraus form: one (A, B) operator
        pair per branch, each the composition of that branch's local ops."""
        da, db = math.prod(self.a_dims), math.prod(self.b_dims)
        pairs: list[tuple[np.ndarray, np.ndarray]] = []

        def walk(node: ProtocolRound | None, a_op: np.ndarray, b_op: np.ndarray):
            if node is None:
                pairs.append((a_op, b_op))
                return
            for outcome, op in enumerate(node.instrument.ops):
                if node.party == "A":
                    nxt = (op @ a_op, b_op)
                else:
                    nxt = (a_op, op @ b_op)
                branch = None if node.branches is None else node.branches[outcome]
                walk(branch, *nxt)

        walk(self.root, np.eye(da, dtype=complex), np.eye(db, dtype=complex))
        return ProductKrausChannel(tuple(pairs), self.a_dims, self.b_dims)


def random_incoherent_channel(dims, n_kraus: int, seed) -> KrausChannel:
    """Random incoherent channel: each Kraus operator picks an injective
    column-target map (a permutation) with complex-Gaussian amplitudes, then
    the family is completed.  Injective targets keep the normalizer diagonal
    so completion preserves incoherence."""
    dims = tuple(int(d) for d in dims)
    d = math.prod(dims)
    rng = np.random.default_rng(seed)
    for _ in range(16):
        raws = []
        for _ in range(max(1, n_kraus)):
            perm = rng.permutation(d)
            amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            op = np.zeros((d, d), dtype=complex)
            op[perm, np.arange(d)] = amps
            raws.append(op)
        try:
            return complete_incoherent_kraus(raws, dims)
        except SingularNormalizerError:
            continue
    raise SingularNormalizerError("failed to draw a nonsingular incoherent family in 16 attempts")


def random_instrument(dims, n_kraus: int, seed) -> KrausChannel:
    """Random general instrument: Ginibre operators normalized by the
    inverse square root of their Gram sum."""
    dims = tuple(int(d) for d in dims)
    d = math.prod(dims)
    rng = np.random.default_rng(seed)
    raws = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(max(1, n_kraus))]
    m = sum(r.conj().T @ r for r in raws)
    w, v = np.linalg.eigh(m)
    inv_sqrt = (v / np.sqrt(np.maximum(w, 1e-14))) @ v.conj().T
    return KrausChannel(tuple(r @ inv_sqrt for r in raws), dims, dims)


def _random_rounds(a_dims, b_dims, rounds: int, rng: np.random.Generator,
                   incoherent_a: bool, n_outcomes: int) -> ProtocolRound | None:
    """One-way classically-controlled exchange: party A measures, then per
    outcome party B applies its own instrument, then the next round."""
    if rounds <= 0:
        return None
    if incoherent_a:
        a_instr = random_incoherent_channel(a_dims, n_outcomes, rng.integers(2**63))
    else:
        a_instr = random_instrument(a_dims, n_outcomes, rng.integers(2**63))
    branches = []
    for _ in range(a_instr.n_outcomes):
        b_instr = random_incoherent_channel(b_dims, n_outcomes, rng.integers(2**63))
        continuation = _random_rounds(a_dims, b_dims, rounds - 1, rng, incoherent_a, n_outcomes)
        b_branches = None if continuation is None else tuple([continuation] * b_instr.n_outcomes)
        branches.append(ProtocolRound("B", b_instr, b_branches))
    return ProtocolRound("A", a_instr, tuple(branches))


def random_sqi_channel(a_dims, b_dims, rounds: int, seed, n_outcomes: int = 2) -> LocalProtocol:
    """Random LQICC script (general instruments on A, incoherent on B, with
    one-way classical control); any such composition is SQI."""
    rng = np.random.default_rng(seed)
    root = _random_rounds(tuple(a_dims), tuple(b_dims), max(1, rounds), rng,
                          incoherent_a=False, n_outcomes=n_outcomes)
    return LocalProtocol(tuple(a_dims), tuple(b_dims), root, incoherent_parties=frozenset({"B"}))


def random_licc_protocol(a_dims, b_dims, rounds: int, seed, n_outcomes: int = 2) -> LocalProtocol:
    """Random LICC script: both parties restricted to incoherent instruments."""
    rng = np.random.default_rng(seed)
    root = _random_rounds(tuple(a_dims), tuple(b_dims), max(1, rounds), rng,
                          incoherent_a=True, n_outcomes=n_outcomes)
    return LocalProtocol(tuple(a_dims), tuple(b_dims), root,
                         incoherent_parties=frozenset({"A", "B"}))
