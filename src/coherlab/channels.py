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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import (
    BadDimensionError,
    DimensionMismatchError,
    IncoherenceViolationError,
    IncompleteChannelError,
    NotIncoherentError,
    SingularNormalizerError,
)
from .linalg import (DensityMatrix, _basis_rows, _indexed, _integer, _subsystem_dims, _unchecked,
                     _validate_subsystems, apply_local)

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
    "random_incoherent_channel",
    "random_instrument",
    "random_sqi_channel",
    "random_licc_protocol",
]

COMPLETENESS_TOL = 1e-9
# an instrument outcome, and a protocol leaf, fires only with probability
# above this
OUTCOME_PRUNE_TOL = 1e-12


def is_incoherent_operator(k, tol: float = 1e-9) -> bool:
    """True iff every column of k has at most one entry with modulus > tol,
    i.e. the operator maps each basis vector to a multiple of a basis
    vector.  Phases are irrelevant; a NaN entry counts as nonzero.  For a
    stack of operators (leading axes) it is true iff it holds for each."""
    mat = np.asarray(k, dtype=complex)
    if mat.ndim < 2:
        raise DimensionMismatchError(f"expected a matrix or a stack of them, got shape {mat.shape}")
    return bool(_incoherent_columns(mat, tol).all())


def _incoherent_columns(mats: np.ndarray, tol: float) -> np.ndarray:
    """Per column of each matrix of a stack: at most one entry of modulus > tol?"""
    return (~(np.abs(mats) <= tol)).sum(axis=-2) <= 1


@dataclass(frozen=True)
class InstrumentOutcome:
    probability: float
    state: DensityMatrix
    outcome: int


def _outcomes(posts: np.ndarray, dims: tuple[int, ...]) -> list[InstrumentOutcome]:
    """Instrument outcomes from the stack of unnormalized post-states, one
    per operator in order; outcomes with probability <= 1e-12 are pruned."""
    probs = np.trace(posts, axis1=-2, axis2=-1).real
    return [InstrumentOutcome(float(p), DensityMatrix(post / p, dims), l)
            for l, (p, post) in enumerate(zip(probs, posts)) if p > OUTCOME_PRUNE_TOL]


def _freeze_ops(ops, shape: tuple[int, int]) -> np.ndarray:
    """The operators as one read-only (n, out, in) complex array, checked
    once for a common ``shape`` and finite entries."""
    try:
        stack = np.array(ops, dtype=complex)
    except ValueError as exc:
        raise DimensionMismatchError(f"Kraus operators do not share one shape: {exc}") from exc
    if len(stack) == 0:
        raise IncompleteChannelError("channel needs at least one Kraus operator")
    if stack.ndim != 3 or stack.shape[1:] != shape:
        raise DimensionMismatchError(
            f"Kraus operator shape {stack.shape[1:]} does not match dims {shape}"
        )
    if not np.isfinite(stack).all():
        raise IncompleteChannelError("operator has a non-finite (nan or inf) entry")
    stack.setflags(write=False)
    return stack


def _grams(ops: np.ndarray) -> np.ndarray:
    """K_l' K_l for each operator of a (..., out, in) stack."""
    return ops.conj().swapaxes(-1, -2) @ ops


def _check_complete(grams: np.ndarray) -> None:
    """Completeness of each channel of a stack, from its (m, d, d) Gram
    sums; a failure names the first incomplete channel, as
    ``linalg._indexed`` names it."""
    residuals = np.abs(grams - np.eye(grams.shape[-1]))
    if residuals.max(initial=0.0) <= COMPLETENESS_TOL:
        return
    for k, residual in enumerate(residuals.max(axis=(1, 2)).tolist()):
        if not residual <= COMPLETENESS_TOL:
            raise _indexed(IncompleteChannelError, "channel", k, len(grams),
                           f"completeness residual {residual:.3e} exceeds {COMPLETENESS_TOL:.0e}")


def _channel_stacks(parties, shapes) -> tuple[np.ndarray, ...]:
    """The m channels given as one (m, n, out, in) operator stack per party
    (one party for Kraus channels, A's and B's for product channels), as
    read-only complex arrays, each channel checked as ``KrausChannel`` or
    ``ProductKrausChannel`` checks it: each party's operator shape in
    ``shapes``, n > 0, finite entries, as many operators on every party,
    and completeness from one Gram sum over the stack.  The first channel
    k that fails raises the error ``_freeze_ops`` gives it alone, named as
    ``linalg._indexed`` names it."""
    m = len(parties[0])
    stacks = []
    for ops in parties:
        try:
            stacks.append(np.array(ops, dtype=complex))
        except ValueError:  # the channels' operators do not form one array
            stacks.append(None)
    if not all(s is not None and s.ndim == 4 and s.shape[2:] == shape and s.shape[1] > 0
               and s.shape[:2] == stacks[0].shape[:2] and np.isfinite(s).all()
               for s, shape in zip(stacks, shapes)):
        # find the first channel whose operators fail on their own
        for k, families in enumerate(zip(*parties)):
            try:
                n = [len(_freeze_ops(ops, shape)) for ops, shape in zip(families, shapes)]
                if n[0] != n[-1]:
                    raise DimensionMismatchError(f"{n[0]} A operators but {n[-1]} B operators")
            except (DimensionMismatchError, IncompleteChannelError) as exc:
                raise _indexed(type(exc), "channel", k, m, str(exc)) from exc
        raise DimensionMismatchError("stacked channels must share their operator count")
    grams = [_grams(s) for s in stacks]
    if len(grams) == 1:
        gram = grams[0].sum(axis=1)
    else:
        # per channel, sum_i A_i'A_i (x) B_i'B_i indexed ((a, b), (c, d))
        a, b = grams
        gram = np.einsum("mnac,mnbd->mabcd", a, b).reshape(m, a.shape[-1] * b.shape[-1], -1)
    _check_complete(gram)
    for s in stacks:
        s.setflags(write=False)
    return tuple(stacks)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered family of Kraus operators with a completeness certificate.

    ``ops`` is stored as one read-only (n, prod(out_dims), prod(in_dims))
    array, which iterates, indexes and has len() like a sequence of the
    operators; completeness requires || sum_l K_l' K_l - 1 ||_max <= 1e-9.
    The operators are checked as a stack of one channel by
    ``_channel_stacks``.
    """

    ops: np.ndarray
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]

    def __post_init__(self):
        in_dims = _subsystem_dims(self.in_dims)
        out_dims = _subsystem_dims(self.out_dims)
        ops, = _channel_stacks([(self.ops,)], [(math.prod(out_dims), math.prod(in_dims))])
        vars(self).update(ops=ops[0], in_dims=in_dims, out_dims=out_dims)

    @property
    def n_outcomes(self) -> int:
        return len(self.ops)

    def is_incoherent(self, tol: float = 1e-9) -> bool:
        return is_incoherent_operator(self.ops, tol)

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
        return DensityMatrix(apply_local(rho.mat, self.ops, before, after).sum(axis=0), dims)

    def apply_instrument(self, rho: DensityMatrix,
                         at: int | None = None) -> list[InstrumentOutcome]:
        """Per-outcome result: probability, normalized post-state, index,
        with the channel placed as in ``apply``.  Outcomes with probability
        <= 1e-12 are pruned."""
        before, after, dims = self._place(rho, at)
        return _outcomes(apply_local(rho.mat, self.ops, before, after), dims)


@dataclass(frozen=True, eq=False)
class ProductKrausChannel:
    """Two-party channel sum_i (A_i x B_i) rho (A_i x B_i)' with one operator
    pair per outcome and a joint completeness certificate.

    Built from the two parties' stacks ``a_ops`` and ``b_ops``, the i-th
    entries forming the i-th pair; each is stored as one read-only
    (n, out, in) array, checked as a stack of one channel by
    ``_channel_stacks``.  ``pairs`` is the derived view of the (A_i, B_i).
    """

    a_ops: np.ndarray
    b_ops: np.ndarray
    a_in_dims: tuple[int, ...]
    b_in_dims: tuple[int, ...]
    a_out_dims: tuple[int, ...] | None = None
    b_out_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        a_in = _subsystem_dims(self.a_in_dims)
        b_in = _subsystem_dims(self.b_in_dims)
        a_out = a_in if self.a_out_dims is None else _subsystem_dims(self.a_out_dims)
        b_out = b_in if self.b_out_dims is None else _subsystem_dims(self.b_out_dims)
        shapes = ((math.prod(a_out), math.prod(a_in)), (math.prod(b_out), math.prod(b_in)))
        a_ops, b_ops = _channel_stacks([(self.a_ops,), (self.b_ops,)], shapes)
        vars(self).update(a_ops=a_ops[0], b_ops=b_ops[0], a_in_dims=a_in, b_in_dims=b_in,
                          a_out_dims=a_out, b_out_dims=b_out)

    @property
    def pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple(zip(self.a_ops, self.b_ops))

    @property
    def n_outcomes(self) -> int:
        return len(self.a_ops)

    @property
    def in_dims(self) -> tuple[int, ...]:
        return self.a_in_dims + self.b_in_dims

    @property
    def out_dims(self) -> tuple[int, ...]:
        return self.a_out_dims + self.b_out_dims

    def to_kraus(self) -> KrausChannel:
        ops = [np.kron(a, b) for a, b in self.pairs]
        return KrausChannel(tuple(ops), self.in_dims, self.out_dims)

    def _input(self, rho: DensityMatrix) -> np.ndarray:
        """rho's matrix, once its dims are checked against the input dims."""
        if rho.dims != self.in_dims:
            raise DimensionMismatchError(
                f"state dims {rho.dims} != channel dims {self.in_dims}"
            )
        return rho.mat

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        posts = _pair_posts(self._input(rho), self.a_ops, self.b_ops)
        return DensityMatrix(posts.sum(axis=0), self.out_dims)

    def apply_instrument(self, rho: DensityMatrix) -> list[InstrumentOutcome]:
        """Per-pair outcomes as in ``KrausChannel.apply_instrument``."""
        return _outcomes(_pair_posts(self._input(rho), self.a_ops, self.b_ops), self.out_dims)


def _pair_posts(mats: np.ndarray, a_ops: np.ndarray, b_ops: np.ndarray) -> np.ndarray:
    """(A x B) M (A x B)', A acting on M and then B on the result: A's block
    comes before B's input dimension, B's after A's output dimension, each
    read from its operators' shape.  All three broadcast over their leading
    axes, so M may be one matrix or a stack of one per pair, the i-th pair
    acting on the i-th matrix only."""
    return apply_local(apply_local(mats, a_ops, 1, b_ops.shape[-1]), b_ops, a_ops.shape[-2], 1)


def _pair_vectors(vecs: np.ndarray, a_ops: np.ndarray, b_ops: np.ndarray) -> np.ndarray:
    """(A x B) psi, the pure-input case of ``_pair_posts``: psi reshaped to
    (A's input, B's input), each read from its operators' shape, is the
    matrix Psi, and (A x B) psi is A Psi B^T read row-major, so no
    density is formed.  All three broadcast over their leading axes, so
    psi may be one vector, a stack of them against every pair
    (``vecs[:, None]``), or one per pair, the i-th pair acting on the i-th
    vector only."""
    psi = vecs.reshape(*vecs.shape[:-1], a_ops.shape[-1], b_ops.shape[-1])
    out = a_ops @ psi @ b_ops.swapaxes(-1, -2)
    return out.reshape(*out.shape[:-2], -1)


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


def _classify_stack(a_ops: np.ndarray, b_ops: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """``classify`` on each channel of a pair of (m, n, out, in) stacks:
    the per-channel SI and SQI flags."""
    a_ok, b_ok = [_incoherent_columns(ops, tol).reshape(len(ops), -1).all(axis=1) for ops in (a_ops, b_ops)]
    return a_ok & b_ok, b_ok


def classify(ch: ProductKrausChannel, tol: float = 1e-9) -> ChannelClass:
    """Classify a product channel: SI iff both parties' operators are
    incoherent; SQI iff the B-side operators are."""
    si, sqi = _classify_stack(ch.a_ops[None], ch.b_ops[None], tol)
    return ChannelClass(separable_incoherent=bool(si[0]), separable_quantum_incoherent=bool(sqi[0]))


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
    in_dims = _subsystem_dims(in_dims)
    out_dims = in_dims if out_dims is None else _subsystem_dims(out_dims)
    mats = _freeze_ops(raw, (math.prod(out_dims), math.prod(in_dims)))
    if not is_incoherent_operator(mats, tol):
        raise NotIncoherentError("input operator maps a basis state to a superposition")
    w, v = np.linalg.eigh(_grams(mats).sum(axis=0))
    if float(w.min()) < 1e-12:
        raise SingularNormalizerError(
            f"normalizer has eigenvalue {float(w.min()):.3e} < 1e-12"
        )
    ops = mats @ ((v / np.sqrt(w)) @ v.conj().T)
    if not is_incoherent_operator(ops, tol):
        raise NotIncoherentError(
            "normalizer mixed columns (colliding column targets); "
            "completed operators are no longer incoherent"
        )
    return KrausChannel(ops, in_dims, out_dims)


def identity_channel(dims) -> KrausChannel:
    dims = _subsystem_dims(dims)
    return KrausChannel((np.eye(math.prod(dims), dtype=complex),), dims, dims)


def dephasing_channel(dims, subsystems=None) -> KrausChannel:
    """Pinching channel that projects onto the incoherent basis of the
    selected subsystems (all of them by default), checked as ``dephase``
    checks them; the empty selection is the one-operator identity channel."""
    dims = _subsystem_dims(dims)
    n = len(dims)
    idx = tuple(range(n)) if subsystems is None else _validate_subsystems(subsystems, n, allow_empty=True)
    rows = _basis_rows(dims, idx)  # projector s, in label order, is 1 on rows[s]
    ops = np.zeros((len(rows), rows.size, rows.size), dtype=complex)
    ops[np.arange(len(rows))[:, None], rows, rows] = 1.0
    return KrausChannel(ops, dims, dims)


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
    incoherence predicate ({"A", "B"} for LICC scripts, {"B"} for LQICC).
    Each distinct round is checked once, when the script is built: its
    instrument must act on its party's dims and, for a listed party, be
    incoherent.
    """

    a_dims: tuple[int, ...]
    b_dims: tuple[int, ...]
    root: ProtocolRound | None
    incoherent_parties: frozenset[str] = frozenset()
    # the distinct rounds, each before every round it can lead to
    _rounds: tuple[ProtocolRound, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "a_dims", _subsystem_dims(self.a_dims))
        object.__setattr__(self, "b_dims", _subsystem_dims(self.b_dims))
        object.__setattr__(self, "incoherent_parties", frozenset(self.incoherent_parties))
        party_dims = {"A": self.a_dims, "B": self.b_dims}
        rounds = _round_order(self.root)
        for node in rounds:
            instrument = node.instrument
            if not instrument.in_dims == instrument.out_dims == party_dims[node.party]:
                raise DimensionMismatchError(
                    f"round instrument does not match party {node.party} dims"
                )
        # a restricted party's operators are checked in one call
        for party in sorted(self.incoherent_parties):
            ops = [node.instrument.ops for node in rounds if node.party == party]
            if ops and not is_incoherent_operator(np.concatenate(ops)):
                raise IncoherenceViolationError(
                    f"party {party} instrument is not incoherent in a restricted round"
                )
        object.__setattr__(self, "_rounds", rounds)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.a_dims + self.b_dims

    def _shape(self) -> tuple:
        """What scripts stepped as one stack must share: dims, and per
        round its party, outcome count and continuations (as positions)."""
        position = {node: i for i, node in enumerate(self._rounds)}
        return self.dims, tuple(
            (node.party, node.instrument.n_outcomes,
             None if node.branches is None else tuple(position.get(b) for b in node.branches))
            for node in self._rounds)

    def _leaves(self, mats: np.ndarray,
                dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """(post-states, probabilities, input indices, transcripts) of the
        leaves on each matrix of a validated (n, N, N) stack, input by input
        and depth-first within each: every pair of ``_products`` acts on every
        input in one ``_pair_posts``, and the leaves are checked and pruned
        by ``_kept_leaves``."""
        if dims != self.dims:
            raise DimensionMismatchError(f"state dims {dims} != protocol dims {self.dims}")
        a_ops, b_ops, transcripts = self._product_form
        posts = _pair_posts(mats[:, None], a_ops, b_ops)
        return _kept_leaves(posts, np.trace(posts, axis1=-2, axis2=-1).real, transcripts)

    def run(self, rho: DensityMatrix) -> list[tuple[float, DensityMatrix, tuple]]:
        """The script's leaves, its product form's pairs applied to rho:
        one (probability, state, transcript) per leaf of probability
        > 1e-12, in depth-first order, the transcript recording (party,
        outcome) per round."""
        mats, probs, _, transcripts = self._leaves(rho.mat[None], rho.dims)
        return [(p, DensityMatrix(m / p, self.dims), t)
                for m, p, t in zip(mats, probs.tolist(), transcripts)]

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """The protocol as a deterministic channel: the sum of the
        unnormalized leaf states, computed by summing the branches that
        reach each round before stepping it, and validated once."""
        return DensityMatrix(_outputs([self], rho.mat[None], rho.dims)[0], self.dims)

    def to_product(self) -> ProductKrausChannel:
        """Compile the script to product-Kraus form: one (A, B) operator
        pair per leaf, each the composition of that branch's local ops,
        in depth-first order: the one-script case of ``_products``."""
        a_ops, b_ops, _ = self._product_form
        return ProductKrausChannel(a_ops, b_ops, self.a_dims, self.b_dims)

    @cached_property
    def _product_form(self) -> tuple[np.ndarray, np.ndarray, list]:
        """``_products`` of the script alone, compiled once: the script cannot change."""
        a_ops, b_ops, transcripts = _products([self])
        return a_ops[0], b_ops[0], transcripts


def _round_order(root: ProtocolRound | None) -> tuple[ProtocolRound, ...]:
    """The distinct rounds of a script, each before every round it can lead
    to: continuations are shared between branches, so rounds are told apart
    by identity, and reversed depth-first post-order puts every round
    before its continuations."""
    post_order: list[ProtocolRound] = []
    _post_order(root, set(), post_order)
    return tuple(reversed(post_order))


# The recursive walks (_post_order, _walk, _script_tree) are module
# functions, not closures: a closure that calls itself is a reference cycle,
# which keeps every round, operator and leaf it reached alive until the
# cyclic garbage collector runs.
def _post_order(node: ProtocolRound | None, seen: set[int], post_order: list[ProtocolRound]) -> None:
    """Append the rounds reachable from ``node`` and not in ``seen`` (by
    id) to ``post_order``, each after every round it can lead to."""
    if node is None or id(node) in seen:
        return
    seen.add(id(node))
    for branch in node.branches or ():
        _post_order(branch, seen, post_order)
    post_order.append(node)


def _stacked_rounds(scripts: Sequence[LocalProtocol]) -> tuple[dict, dict]:
    """What stepping scripts of one shape (``LocalProtocol._shape``) as one
    stack needs: per round of the first script, the matching rounds'
    operators, shape (outcome, script, out, in), and per party, the
    dimension before and after its block."""
    first = scripts[0]
    if len(scripts) > 1 and len({s._shape() for s in scripts}) > 1:
        raise DimensionMismatchError("stacked protocol scripts must share one shape")
    ops = {node: np.array([s._rounds[i].instrument.ops for s in scripts]).swapaxes(0, 1)
           for i, node in enumerate(first._rounds)}
    return ops, {"A": (1, math.prod(first.b_dims)), "B": (math.prod(first.a_dims), 1)}


def _products(scripts: Sequence[LocalProtocol]) -> tuple[np.ndarray, np.ndarray, list]:
    """The product forms of scripts of one shape (``LocalProtocol._shape``)
    as one stack: (A operators, B operators, transcripts), the operators of
    shape (script, leaf, out, in) with one leaf per branch in depth-first
    order, read-only and not checked.  A leaf's A is ``op @ prefix`` along
    its branch's A rounds, each round's operators stacked over the scripts
    as ``_stacked_rounds`` stacks them, likewise its B; its transcript,
    shared by the scripts, records (party, outcome) per round."""
    first = scripts[0]
    ops, _ = _stacked_rounds(scripts)
    leaves = []
    eyes = (np.repeat(np.eye(math.prod(d), dtype=complex)[None], len(scripts), axis=0)
            for d in (first.a_dims, first.b_dims))
    _walk(first.root, ops, *eyes, (), leaves)
    a_ops, b_ops, transcripts = zip(*leaves)
    a_ops, b_ops = (np.array(stack).swapaxes(0, 1) for stack in (a_ops, b_ops))
    a_ops.flags.writeable = b_ops.flags.writeable = False
    return a_ops, b_ops, list(transcripts)


def _walk(node: ProtocolRound | None, ops: dict, a: np.ndarray, b: np.ndarray, transcript: tuple,
          leaves: list) -> None:
    """Append to ``leaves`` the (A, B, transcript) of every leaf below
    ``node``, depth first, reached with the composed prefixes ``a`` and
    ``b`` and the ``transcript`` so far; ``ops`` maps each round to its
    stacked operators."""
    if node is None:
        leaves.append((a, b, transcript))
        return
    for outcome, op in enumerate(ops[node] @ (a if node.party == "A" else b)):
        nxt = None if node.branches is None else node.branches[outcome]
        record = transcript + ((node.party, outcome),)
        if node.party == "A":
            _walk(nxt, ops, op, b, record, leaves)
        else:
            _walk(nxt, ops, a, op, record, leaves)


def _check_probabilities(totals: np.ndarray) -> None:
    """Each input's leaf probabilities, summed, must be 1 within 1e-9."""
    for total in totals.tolist():
        if abs(total - 1.0) > 1e-9:
            raise IncompleteChannelError(f"leaf probabilities sum to {total}, not 1")


def _kept_leaves(outs: np.ndarray, probs: np.ndarray,
                 transcripts: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """(outputs, probabilities, input indices, transcripts) of the leaves
    kept from (n, leaf, ...) outputs of a product form on n inputs, with
    their (n, leaf) probabilities and the form's transcripts: each input's
    probabilities must sum to 1 within 1e-9, and a leaf is kept when its
    probability is > 1e-12, the rule that prunes an instrument's outcomes."""
    _check_probabilities(probs.sum(axis=1))
    keep = probs > OUTCOME_PRUNE_TOL
    inputs, leaves = np.nonzero(keep)
    return outs[keep], probs[keep], inputs, [transcripts[i] for i in leaves.tolist()]


def _outputs(scripts: Sequence[LocalProtocol], mats: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Scripts of one shape (``LocalProtocol._shape``) as deterministic
    channels on a validated (n, N, N) stack of states with subsystem dims
    ``dims``, ``scripts[i]`` on ``mats[i]`` or a single script on every
    matrix: the (n, N, N) stack of each one's summed leaf states, not
    validated.

    The channel is linear, so the branches that reach a round are summed
    before it is stepped: each round is one ``apply_local`` on one matrix
    per input, and the leaves' sum is what reaches the end.  Its traces
    are the inputs' summed leaf probabilities, each 1 within 1e-9."""
    if dims != scripts[0].dims:
        raise DimensionMismatchError(f"state dims {dims} != protocol dims {scripts[0].dims}")
    ops, placement = _stacked_rounds(scripts)
    arrived = {scripts[0].root: mats}  # round or None (the end) -> summed input
    for node in scripts[0]._rounds:
        outs = apply_local(arrived.pop(node), ops[node], *placement[node.party])
        for outcome, nxt in enumerate(node.branches or (None,) * len(outs)):
            arrived[nxt] = arrived[nxt] + outs[outcome] if nxt in arrived else outs[outcome]
    total = arrived[None]
    _check_probabilities(np.trace(total, axis1=-2, axis2=-1).real)
    return total


def _incoherent_draw(rng: np.random.Generator, d: int, n: int) -> tuple[np.ndarray, ...]:
    """One draw of an incoherent family of n operators on dimension d:
    the (n, d) column targets, real and imaginary amplitudes.  It is drawn
    operator by operator, so a seed keeps naming the same channel: a
    ``shuffle`` of its row of ``arange(d)`` (the stream of
    ``permutation(d)``), then one ``standard_normal`` of its (2, d) slab,
    the real then the imaginary amplitudes."""
    perms = np.arange(d)[None].repeat(n, axis=0)
    parts = np.empty((n, 2, d))
    for perm, slab in zip(perms, parts):
        rng.shuffle(perm)
        rng.standard_normal(out=slab)
    return perms, parts[:, 0], parts[:, 1]


def _random_incoherent_channels(dims, n_kraus: int, seeds) -> list[KrausChannel]:
    """One random incoherent channel per seed, drawn from the stream of
    ``default_rng(seed)`` (a seed may be a ``Generator``, read as it is, in
    seed order when it appears more than once): each Kraus operator picks
    an injective column-target map (a permutation) with complex-Gaussian
    amplitudes, then the family is completed.  Injective targets make
    M = sum_l R_l' R_l diagonal, holding each column's squared norm over
    the family, so completion K_l = R_l M^{-1/2} rescales each column by
    the inverse root of that norm and preserves incoherence.  Per seed,
    ``_incoherent_draw`` makes the generator calls and its family is stored
    in preallocated (m, n, d) stacks of targets and amplitudes.  A family
    with a column of norm below 1e-12 is drawn again from its own
    generator, up to 16 attempts.  The families are then completed and
    checked incoherent as one stack, checked by ``_channel_stacks`` and
    wrapped by ``linalg._unchecked``."""
    dims = _subsystem_dims(dims)
    d, n = math.prod(dims), max(1, _integer(n_kraus, "Kraus operator count", BadDimensionError))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    m = len(rngs)
    perms, re, im = np.empty((m, n, d), dtype=np.intp), np.empty((m, n, d)), np.empty((m, n, d))
    for k, rng in enumerate(rngs):
        perms[k], re[k], im[k] = _incoherent_draw(rng, d, n)
    colnorm2 = (re**2 + im**2).sum(axis=1)
    for k in np.flatnonzero(colnorm2.min(axis=1) < 1e-12).tolist():
        for _ in range(15):
            perms[k], re[k], im[k] = _incoherent_draw(rngs[k], d, n)
            colnorm2[k] = (re[k]**2 + im[k]**2).sum(axis=0)
            if colnorm2[k].min() >= 1e-12:
                break
        else:
            raise SingularNormalizerError("failed to draw a nonsingular incoherent family in 16 attempts")
    ops = np.zeros((m, n, d, d), dtype=complex)
    ops[np.arange(m)[:, None, None], np.arange(n)[:, None], perms, np.arange(d)] = (
        (re + 1j * im) * (1.0 / np.sqrt(colnorm2))[:, None])
    if not is_incoherent_operator(ops):
        raise NotIncoherentError("drawn operator maps a basis state to a superposition")
    ops, = _channel_stacks([ops], [(d, d)])
    return [_unchecked(KrausChannel, ops=family, in_dims=dims, out_dims=dims) for family in ops]


def _random_instruments(dims, n_kraus: int, seeds) -> list[KrausChannel]:
    """One random general instrument per seed: Ginibre operators drawn
    from the stream of ``default_rng(seed)`` (a seed may be a
    ``Generator``, read as it is, in seed order when it appears more than
    once).  Per seed, one ``standard_normal`` fills its (n, 2, d, d) slab
    of a preallocated stack, the real then imaginary part of each operator
    in turn; the operators are then assembled and normalized by the inverse
    square root of their Gram sum, completed as one stack, checked by
    ``_channel_stacks`` and wrapped by ``linalg._unchecked``."""
    dims = _subsystem_dims(dims)
    d, n = math.prod(dims), max(1, _integer(n_kraus, "Kraus operator count", BadDimensionError))
    parts = np.empty((len(seeds), n, 2, d, d))
    for seed, slab in zip(seeds, parts):
        np.random.default_rng(seed).standard_normal(out=slab)
    raws = parts[:, :, 0] + 1j * parts[:, :, 1]
    w, v = np.linalg.eigh(_grams(raws).sum(axis=1))
    inv_sqrt = (v / np.sqrt(np.maximum(w, 1e-14))[:, None]) @ v.conj().swapaxes(-1, -2)
    ops, = _channel_stacks([raws @ inv_sqrt[:, None]], [(d, d)])
    return [_unchecked(KrausChannel, ops=family, in_dims=dims, out_dims=dims) for family in ops]


def random_incoherent_channel(dims, n_kraus: int, seed) -> KrausChannel:
    """Random incoherent channel of ``n_kraus`` operators (at least one),
    named by ``seed``: the one-seed case of ``_random_incoherent_channels``."""
    return _random_incoherent_channels(dims, n_kraus, [seed])[0]


def random_instrument(dims, n_kraus: int, seed) -> KrausChannel:
    """Random general instrument: Ginibre operators normalized by the
    inverse square root of their Gram sum, the one-seed case of
    ``_random_instruments``."""
    return _random_instruments(dims, n_kraus, [seed])[0]


def _random_scripts(a_dims, b_dims, rounds: int, seeds, incoherent_a: bool,
                    n_outcomes: int) -> list[LocalProtocol]:
    """One random script per seed, a one-way classically-controlled
    exchange: party A measures, then per outcome party B applies its own
    instrument, and every B outcome continues to the same next round.

    Each script's generator, the stream of ``default_rng(seed)``, draws
    all of its A instruments, in the order ``_script_tree`` places them,
    then all of its B instruments; each drawer reads the script's
    generator once per instrument.  A is incoherent (LICC) or general
    (LQICC), B always incoherent.
    All the scripts' A instruments are completed and checked as one stack,
    and all their B instruments as another, each on its party's dims and
    an incoherent party's incoherence included; so the scripts are
    wrapped by ``linalg._unchecked``, with no per-script check."""
    a_dims, b_dims = _subsystem_dims(a_dims), _subsystem_dims(b_dims)
    rounds = max(1, _integer(rounds, "round count", BadDimensionError))
    n = max(1, _integer(n_outcomes, "outcome count", BadDimensionError))
    # round k + 1 of a script holds n**k A instruments, each followed by n
    # B instruments
    n_a = sum(n**k for k in range(rounds))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    random_a = _random_incoherent_channels if incoherent_a else _random_instruments
    a_instruments = iter(random_a(a_dims, n, [rng for rng in rngs for _ in range(n_a)]))
    b_instruments = iter(_random_incoherent_channels(b_dims, n, [rng for rng in rngs for _ in range(n * n_a)]))
    parties = frozenset({"A", "B"} if incoherent_a else {"B"})
    roots = [_script_tree(rounds, n, a_instruments, b_instruments) for _ in rngs]
    return [_unchecked(LocalProtocol, a_dims=a_dims, b_dims=b_dims, root=root, incoherent_parties=parties,
                       _rounds=_round_order(root)) for root in roots]


def _script_tree(rounds: int, n: int, a_instruments, b_instruments) -> ProtocolRound:
    """The rounds of one random script, consuming the instruments from
    the two iterators: A's, then per A outcome B's followed by that
    outcome's continuation."""
    a_instrument = next(a_instruments)
    branches = []
    for _ in range(n):
        b_instrument = next(b_instruments)
        continuation = (_script_tree(rounds - 1, n, a_instruments, b_instruments),) * n if rounds > 1 else None
        branches.append(ProtocolRound("B", b_instrument, continuation))
    return ProtocolRound("A", a_instrument, tuple(branches))


def random_sqi_channel(a_dims, b_dims, rounds: int, seed, n_outcomes: int = 2) -> LocalProtocol:
    """Random LQICC script (general instruments on A, incoherent on B, with
    one-way classical control); any such composition is SQI."""
    return _random_scripts(a_dims, b_dims, rounds, [seed], incoherent_a=False, n_outcomes=n_outcomes)[0]


def random_licc_protocol(a_dims, b_dims, rounds: int, seed, n_outcomes: int = 2) -> LocalProtocol:
    """Random LICC script: both parties restricted to incoherent instruments."""
    return _random_scripts(a_dims, b_dims, rounds, [seed], incoherent_a=True, n_outcomes=n_outcomes)[0]
