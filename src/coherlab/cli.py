"""Command-line front end.

Subcommands: measure, protocol, classify, reproduce, suite.  States and
channels travel as JSON; numbers are rendered canonically with 17
significant digits and a lowercase exponent so serialize -> parse ->
serialize round-trips byte for byte.

Exit codes: 0 success, 2 parse error, 3 invariant violation, 4 check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import channels as ch
from . import checks
from . import measures as ms
from . import protocols as pr
from . import states as st
from .exceptions import CoherlabError
from .linalg import DensityMatrix, PureState, von_neumann_entropy

EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_CHECK = 4


class ParseError(CoherlabError):
    """Malformed input file or flag value."""


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_number(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return '"%s"' % ("inf" if x > 0 else ("-inf" if x < 0 else "nan"))
    if x.is_integer() and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """Serialize with deterministic key order and 17-significant-digit
    floats (lowercase exponent)."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{k}": {canonical_json(v, indent + 2).lstrip()}' for k, v in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}" if obj else f"{pad}{{}}"
    if isinstance(obj, (list, tuple)):
        flat = all(isinstance(v, (int, float, bool)) for v in obj)
        if flat:
            return pad + "[" + ", ".join(_fmt_number(v) if isinstance(v, float) else json.dumps(v) for v in obj) + "]"
        items = ",\n".join(canonical_json(v, indent + 2) for v in obj)
        return f"{pad}[\n{items}\n{pad}]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, float):
        return pad + _fmt_number(obj)
    return pad + json.dumps(obj)


# ---------------------------------------------------------------------------
# state and channel files


def _complex_list(values, what: str) -> np.ndarray:
    if not isinstance(values, list):
        raise ParseError(f"{what}: expected a list of [re, im] pairs")
    out = []
    for entry in values:
        if (not isinstance(entry, (list, tuple))) or len(entry) != 2:
            raise ParseError(f"{what}: every entry must be an [re, im] pair")
        try:
            if any(isinstance(x, bool) for x in entry):  # float(True) is 1.0
                raise TypeError("a JSON boolean is not a number")
            out.append(complex(float(entry[0]), float(entry[1])))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{what}: entry {entry!r} is not a pair of numbers") from exc
    return np.array(out, dtype=complex)


def _operator(values, dims_out, dims_in, what: str) -> np.ndarray:
    rows, cols = math.prod(dims_out), math.prod(dims_in)
    entries = _complex_list(values, what)
    if entries.size != rows * cols:
        raise ParseError(f"{what}: expected {rows * cols} entries, got {entries.size}")
    return entries.reshape(rows, cols)


def _dims(value, what: str) -> tuple[int, ...]:
    # a JSON true is a Python int, but not a dimension
    if not isinstance(value, list) or not value or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in value):
        raise ParseError(f'{what} must be a non-empty list of positive integers')
    return tuple(value)


def state_to_json(state: DensityMatrix | PureState) -> str:
    if isinstance(state, PureState):
        payload = {
            "kind": "pure",
            "dims": list(state.dims),
            "matrix": [[float(z.real), float(z.imag)] for z in state.vec],
        }
    else:
        payload = {
            "kind": "density",
            "dims": list(state.dims),
            "matrix": [[float(z.real), float(z.imag)] for z in state.mat.reshape(-1)],
        }
    return canonical_json(payload) + "\n"


def state_from_json(text: str) -> DensityMatrix | PureState:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("state file must hold a JSON object")
    kind = payload.get("kind")
    if kind not in ("density", "pure"):
        raise ParseError(f'state "kind" must be "density" or "pure", got {kind!r}')
    dims = _dims(payload.get("dims"), 'state "dims"')
    entries = _complex_list(payload.get("matrix", []), "matrix")
    total = math.prod(dims)
    if kind == "pure":
        if entries.size != total:
            raise ParseError(f"expected {total} amplitudes, got {entries.size}")
        return PureState(entries, tuple(dims))
    if entries.size != total * total:
        raise ParseError(f"expected {total * total} matrix entries, got {entries.size}")
    return DensityMatrix(entries.reshape(total, total), tuple(dims))


def _op_to_list(op: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(op).reshape(-1)]


def channel_to_json(channel: ch.KrausChannel | ch.ProductKrausChannel) -> str:
    if isinstance(channel, ch.ProductKrausChannel):
        payload = {
            "kind": "product",
            "in_dims": [list(channel.a_in_dims), list(channel.b_in_dims)],
            "out_dims": [list(channel.a_out_dims), list(channel.b_out_dims)],
            "ops": [{"a": _op_to_list(a), "b": _op_to_list(b)} for a, b in channel.pairs],
        }
    else:
        payload = {
            "kind": "kraus",
            "in_dims": list(channel.in_dims),
            "out_dims": list(channel.out_dims),
            "ops": [_op_to_list(op) for op in channel.ops],
        }
    return canonical_json(payload) + "\n"


def channel_from_json(text: str) -> ch.KrausChannel | ch.ProductKrausChannel:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("channel file must hold a JSON object")
    kind, ops = payload.get("kind"), payload.get("ops", [])
    if not isinstance(ops, list):
        raise ParseError('channel "ops" must be a list')
    if kind == "kraus":
        in_dims = _dims(payload.get("in_dims"), 'kraus channel "in_dims"')
        out_dims = _dims(payload.get("out_dims", list(in_dims)), 'kraus channel "out_dims"')
        ops = [_operator(op, out_dims, in_dims, "ops") for op in ops]
        return ch.KrausChannel(tuple(ops), in_dims, out_dims)
    if kind == "product":
        try:
            a_in, b_in = (_dims(d, "product dims") for d in payload["in_dims"])
            out = payload.get("out_dims", payload["in_dims"])
            a_out, b_out = (_dims(d, "product dims") for d in out)
        except (TypeError, ValueError, KeyError, ParseError) as exc:
            raise ParseError(
                'product channel "in_dims"/"out_dims" must be [[a...], [b...]] pairs'
            ) from exc
        a_ops, b_ops = [], []
        for entry in ops:
            if not isinstance(entry, dict) or "a" not in entry or "b" not in entry:
                raise ParseError('product channel ops must be {"a": ..., "b": ...} objects')
            a_ops.append(_operator(entry["a"], a_out, a_in, "ops.a"))
            b_ops.append(_operator(entry["b"], b_out, b_in, "ops.b"))
        return ch.ProductKrausChannel(a_ops, b_ops, a_in, b_in, a_out, b_out)
    raise ParseError(f'channel "kind" must be "kraus" or "product", got {kind!r}')


# ---------------------------------------------------------------------------
# builtins and input loading


def builtin_state(name: str) -> DensityMatrix | PureState:
    name = name.strip().lower()
    if name == "psi2":
        return st.maximally_coherent(2)
    if name == "bell":
        return st.bell_states()[0]
    if name == "merging":
        return st.merging_state()
    if name.startswith("domino:"):
        try:
            index = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad domino index in {name!r}") from exc
        if not 1 <= index <= 9:
            raise ParseError("domino index must be 1..9")
        return st.domino_states().states[index - 1]
    raise ParseError(f"unknown builtin state {name!r} (use bell|merging|domino:k|psi2)")


def load_state(state_path: str | None, builtin: str | None) -> DensityMatrix | PureState:
    if (state_path is None) == (builtin is None):
        raise ParseError("provide exactly one of --state PATH or --builtin NAME")
    if builtin is not None:
        return builtin_state(builtin)
    try:
        with open(state_path, "r", encoding="utf-8") as fh:
            return state_from_json(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {state_path}: {exc}") from exc


def _as_density(state: DensityMatrix | PureState) -> DensityMatrix:
    return state.to_density() if isinstance(state, PureState) else state


def _emit(text: str, out_path: str | None) -> None:
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out_path}: {exc}") from exc
    else:
        _write(sys.stdout, text if text.endswith("\n") else text + "\n")


def _write(stream, text: str) -> None:
    """Write and flush."""
    stream.write(text)
    stream.flush()


def _run(command, options: dict) -> None:
    """Run a command with the error-to-exit-code policy."""
    try:
        command(**options)
    except ParseError as exc:
        _write(sys.stderr, f"parse error: {exc}\n")
        sys.exit(EXIT_PARSE)
    except CoherlabError as exc:
        _write(sys.stderr, f"invariant violation: {exc}\n")
        sys.exit(EXIT_INVARIANT)


# ---------------------------------------------------------------------------
# commands


MEASURES = ("cr", "qire", "discord", "mutual-info", "assistance", "entropy")


def measure(measure_name, state_path, builtin, split_spec, seed, budget, out_path):
    """Evaluate a scalar measure on a state and print a JSON report."""
    state = _as_density(load_state(state_path, builtin))
    inputs = {"state": builtin or state_path, "dims": list(state.dims)}
    method = "closed-form"
    if measure_name in ("qire", "discord", "mutual-info"):
        if split_spec is None:
            raise ParseError(f"{measure_name} needs --split")
        try:
            split = ms.Bipartition.parse(split_spec)
            split.validate(state.n_subsystems)
        except CoherlabError as exc:
            raise ParseError(str(exc)) from exc
        if measure_name != "qire" and not split.a:
            raise ParseError(f"{measure_name} needs a non-empty A side in --split")
        inputs["split"] = split_spec
        if measure_name == "qire":
            value = ms.qi_relative_entropy(state, split)
        elif measure_name == "discord":
            value = ms.basis_dependent_discord(state, split)
        else:
            value = ms.mutual_information(state, split)
    elif measure_name == "cr":
        value = ms.c_r(state)
    elif measure_name == "entropy":
        value = von_neumann_entropy(state)
    else:
        (value,), _, (method,) = ms._assistances(state.mat[None], state.spectrum[None], state.dims, budget, [seed])
        inputs["seed"] = seed
        inputs["budget"] = budget
    report = ms.MeasureReport(measure_name, value, inputs, method)
    _emit(canonical_json(report.to_dict()) + "\n", out_path)


PROTOCOLS = ("teleport", "distill-pure", "distill-mc", "steer", "discriminate",
             "merge-witness", "sqi-to-si", "ancilla-reduce")
STATELESS_PROTOCOLS = ("teleport", "discriminate", "merge-witness", "sqi-to-si", "ancilla-reduce")


def _protocol_payload(name, state_path, builtin, trials, seed, index) -> dict:
    state_given = state_path is not None or builtin is not None
    if name in STATELESS_PROTOCOLS and state_given:
        raise ParseError(f"{name} takes no state; drop --state/--builtin")
    rng = np.random.default_rng(seed)
    if name == "teleport":
        # a fidelity can round above 1; the report never exceeds 1
        worst = min([1.0] + [checks.teleport_fidelity([rng] * n).min() for n in checks.stack_sizes(trials)])
        return {"protocol": name, "trials": trials, "min_fidelity": float(worst)}
    if name == "distill-pure":
        if state_given:
            state = load_state(state_path, builtin)
            if not isinstance(state, PureState):
                raise ParseError("distill-pure needs a pure state")
        else:
            state = st.random_pure((2, 2), seed)
        result = pr.assisted_distill_pure(state, seed=seed)
        return {"protocol": name, **result.metrics}
    if name == "distill-mc":
        if state_given:
            state = _as_density(load_state(state_path, builtin))
        else:
            coeffs = st.random_density((3,), 3, seed)
            state = st.maximally_correlated(coeffs.mat)
        result = pr.assisted_distill_mc(state)
        return {"protocol": name, **result.metrics}
    if name == "steer":
        if state_given:
            state = _as_density(load_state(state_path, builtin))
        else:
            state = st.random_density((2, 2), 4, seed)
        witness = pr.find_steering_measurement(state)
        if witness is None:
            return {"protocol": name, "witness_found": False}
        return {
            "protocol": name,
            "witness_found": True,
            "probability": witness.probability,
            "bob_coherence": witness.bob_coherence,
        }
    if name == "discriminate":
        result = pr.discriminate_domino(index)
        return {"protocol": name, "input_index": index, **result.metrics}
    if name == "merge-witness":
        result = pr.merging_witness()
        return {
            "protocol": name,
            "qire_r_ab": result.qire_r_ab.value,
            "qire_rb_a": result.qire_rb_a.value,
            "verdict": result.verdict,
            "merge_residual": result.merge_residual,
        }
    if name == "sqi-to-si":
        gap = max(checks.sqi_to_si_gap([rng] * n).max() for n in checks.stack_sizes(trials))
        return {"protocol": name, "trials": trials, "max_bob_marginal_gap": float(gap)}
    if name == "ancilla-reduce":
        gap = max(checks.ancilla_gap([rng] * n).max() for n in checks.stack_sizes(trials))
        return {"protocol": name, "trials": trials, "max_action_gap": float(gap)}
    raise ParseError(f"unknown protocol {name!r}")


def protocol(name, state_path, builtin, trials, seed, index, out_path):
    """Run a named protocol and print its summary metrics as JSON.  A
    protocol that takes a state draws a random one from --seed unless
    --state or --builtin is given; the others reject both flags."""
    payload = _protocol_payload(name, state_path, builtin, trials, seed, index)
    _emit(canonical_json(payload) + "\n", out_path)


def classify(channel_path, tol, out_path):
    """Classify a channel file (separable / SI / SQI / incoherent)."""
    if not 0.0 <= tol < math.inf:
        raise ParseError(f"--tol must be a finite non-negative number, got {tol}")
    try:
        with open(channel_path, "r", encoding="utf-8") as fh:
            channel = channel_from_json(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {channel_path}: {exc}") from exc
    if isinstance(channel, ch.ProductKrausChannel):
        flags = ch.classify(channel, tol).to_dict()
    else:
        flags = {"incoherent": channel.is_incoherent(tol)}
    _emit(canonical_json(flags) + "\n", out_path)


def reference_rows(seed: int = 0) -> list[dict]:
    """Every built-in closed-form reference value, with tolerances."""
    bell = pr._TELEPORT_PAIR.to_density()  # |phi+>, built once at import
    witness = pr.merging_witness()
    vecs = np.array([psi.vec for psi in pr._DOMINO.states])
    channel = pr.domino_discrimination_channel()
    rng = np.random.default_rng(seed)
    table = [  # (name, value, expected, tolerance)
        ("cr_psi2", ms.c_r(st.maximally_coherent(2).to_density()), 1.0, 1e-12),
        ("qire_bell_B1", ms.qi_relative_entropy(bell, checks.AB), 1.0, 1e-12),
        ("qire_merging_R_AB", witness.qire_r_ab.value, 8.0 / 9.0, 1e-9),
        ("qire_merging_RB_A", witness.qire_rb_a.value, 4.0 / 9.0, 1e-9),
        ("merge_simulation_residual", witness.merge_residual, 0.0, 1e-9),
        ("domino_gram_identity", np.abs(vecs.conj() @ vecs.T - np.eye(9)).max(), 0.0, 1e-12),
        ("domino_completeness_residual", checks.completeness_residual(channel), 0.0, 1e-9),
        ("domino_channel_si", ch.classify(channel).separable_incoherent, 1.0, 0.0),
        ("domino_discrimination_success", pr._domino_success_probabilities().min(), 1.0, 1e-9),
        ("teleport_min_fidelity_20_random", checks.teleport_fidelity([rng] * 20).min(), 1.0, 1e-9),
        ("continuity_bound_bell_vs_dephased",
         ms.continuity_bound(bell, ms.dephase(bell, (0, 1))), 4.0, 1e-9),
    ]
    return [{"name": name, "value": float(value), "expected": expected, "tolerance": tol,
             "status": "pass" if abs(value - expected) <= tol else "fail"}
            for name, value, expected, tol in table]


def reproduce(fmt, seed, out_path):
    """Recompute every built-in reference value and report pass/fail.
    Exits nonzero when any check misses its tolerance."""
    rows = reference_rows(seed)
    if fmt == "csv":
        lines = ["name,value,expected,tolerance,status"] + [
            f"{r['name']},{format(r['value'], '.17g')},{format(r['expected'], '.17g')},"
            f"{format(r['tolerance'], '.17g')},{r['status']}" for r in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = canonical_json(rows) + "\n"
    else:
        width = max(len(r["name"]) for r in rows)
        lines = [
            f"{r['name']:<{width}}  value={r['value']: .12g}  "
            f"expected={r['expected']: .12g}  tol={r['tolerance']:.0e}  [{r['status'].upper()}]" for r in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, out_path)
    if any(r["status"] != "pass" for r in rows):
        sys.exit(EXIT_CHECK)


def _suite(name: str) -> checks.Suite:
    if name not in checks.SUITES:
        raise ParseError(f"unknown suite {name!r}")
    return checks.SUITES[name]


def run_suite(name: str, trials: int, seed: int) -> dict:
    """Run one property suite; returns counts and failure seeds.  Each
    trial runs on its own generator, the stream of ``default_rng(s)``, s
    drawn from ``default_rng(seed)``, so a listed failure seed reruns that
    trial alone (``replay_suite``).  The trials run in consecutive stacks
    of at most ``checks.MAX_STACK``; a stack's generators are built by one
    batched seeding (``states._generators``)."""
    passes = _suite(name)
    rng = np.random.default_rng(seed)
    failures, failure_seeds = 0, []
    for n in checks.stack_sizes(trials):
        seeds = rng.integers(2**63, size=n).tolist()
        failed = [s for s, ok in zip(seeds, passes(st._generators(seeds))) if not ok]
        failures += len(failed)
        failure_seeds = (failure_seeds + failed)[:16]
    return {"suite": name, "trials": trials, "failures": failures,
            "failure_seeds": failure_seeds}


def replay_suite(name: str, seed: int) -> dict:
    """Rerun the one trial of a suite that ``run_suite`` lists under
    ``seed``: its value and whether it passes."""
    suite = _suite(name)
    value = suite.trial([np.random.default_rng(seed)])
    return {"suite": name, "seed": seed, "value": value[0].item(),
            "pass": bool(suite.passes(value)[0])}


def suite(name, trials, seed, replay, out_path):
    """Run a seeded property suite; failures list reproduction seeds, and
    --replay SEED reruns the trial of one of them."""
    if replay is None:
        summary = run_suite(name, trials, seed)
        failed = summary["failures"] > 0
    else:
        summary = replay_suite(name, replay)
        failed = not summary["pass"]
    _emit(canonical_json(summary) + "\n", out_path)
    if failed:
        sys.exit(EXIT_CHECK)


# ---------------------------------------------------------------------------
# command line


def _int_range(low: int, high: float = math.inf):
    """An argparse type: an integer from ``low`` to ``high``."""

    def integer(text: str) -> int:
        value = int(text)  # a ValueError reads "invalid integer value"
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{value} is not in [{low}, {high}]")
        return value

    return integer


def _parser(add, name: str, description: str, **kwargs) -> argparse.ArgumentParser:
    """A parser that takes only whole flag names and only ``--help``."""
    parser = add(name, description=description, allow_abbrev=False, add_help=False, **kwargs)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _build_parser() -> argparse.ArgumentParser:
    top = _parser(argparse.ArgumentParser, "coherlab", main.__doc__)
    commands = top.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(run):
        parser = _parser(commands.add_parser, run.__name__, run.__doc__, help=run.__doc__.split(".")[0])
        parser.set_defaults(run=run)
        parser.add_argument("--out", dest="out_path", metavar="PATH", help="Write to this file, not stdout.")
        return parser

    seed = {"type": _int_range(0), "default": 0}
    sub = command(measure)
    sub.add_argument("measure_name", choices=MEASURES)
    sub.add_argument("--state", dest="state_path", metavar="PATH", help="State JSON file.")
    sub.add_argument("--builtin", help="bell|merging|domino:k|psi2")
    sub.add_argument("--split", dest="split_spec", metavar="SPEC", help='e.g. "A=0;B=1,2"')
    sub.add_argument("--seed", **seed)
    sub.add_argument("--budget", type=_int_range(1), default=16, help="Optimizer restarts for assistance.")
    sub = command(protocol)
    sub.add_argument("name", choices=PROTOCOLS)
    sub.add_argument("--state", dest="state_path", metavar="PATH")
    sub.add_argument("--builtin")
    sub.add_argument("--trials", type=_int_range(1), default=1)
    sub.add_argument("--seed", **seed)
    sub.add_argument("--index", type=_int_range(1, 9), default=1, help="Domino state index for discriminate.")
    sub = command(classify)
    sub.add_argument("--channel", dest="channel_path", metavar="PATH", required=True)
    sub.add_argument("--tol", type=float, default=1e-9, help="Modulus threshold for the incoherence predicate.")
    sub = command(reproduce)
    sub.add_argument("--format", dest="fmt", choices=["csv", "pretty", "json"], default="pretty")
    sub.add_argument("--seed", **seed)
    sub = command(suite)
    sub.add_argument("name", choices=list(checks.SUITES))
    sub.add_argument("--trials", type=_int_range(1), default=50)
    sub.add_argument("--seed", **seed)
    sub.add_argument("--replay", type=_int_range(0), help="Rerun only the trial of this failure seed.")
    return top


def main(args: list[str] | None = None) -> None:
    """Coherence measures, classified channels and two-party protocols."""
    options = vars(PARSER.parse_args(args))
    del options["command"]
    _run(options.pop("run"), options)


PARSER = _build_parser()
# the former main.main(args, prog_name=..., standalone_mode=...), kept only for perfbench/workloads.py
main.main = lambda args=None, prog_name=None, standalone_mode=True: main(args)

if __name__ == "__main__":
    main()
