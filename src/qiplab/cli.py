"""Configuration-driven experiment runner with CSV reports.

Each subcommand runs one seeded experiment and writes a CSV file whose
first line names the columns and whose second line is a comment echoing
the full merged configuration.  Floats are printed with 17 significant
digits so a report round-trips losslessly.  Exit status: 0 on success,
2 on configuration or usage errors, 3 on internal invariant breaches.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .channels import EbChannel, KrausChannel, check_eb_ppt
from .errors import BudgetError, ContractError, NumericsError, QipLabError, ValidationError
from .optimize import (
    OptimizerConfig,
    exact_classical_response_value,
    majority_amplify,
    nexp_decide,
    seesaw_entangled_value,
    subsampling_experiment,
)
from .protocol import (
    CanonicalStrategy,
    ClassicalResponseStrategy,
    EntangledStrategy,
    ProtocolSpec,
    ProverStrategy,
    RawUnentangledStrategy,
    acceptance_probability,
    canonicalize_prover,
    chsh_protocol,
)
from .qmath import MeasurementOperator, Povm, PureState, RegisterLayout
from .random_instances import random_eb_channel, random_raw_prover, random_verifier_spec
from .utils import checked_int, checked_seed, derived_rng


def fmt17(x: float) -> str:
    """Float with 17 significant digits; enough to reconstruct the double."""
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# document format: JSON with sorted keys and 17-significant-digit floats


def dumps_document(doc: Any) -> str:
    out: list[str] = []
    _write_json(doc, out)
    return "".join(out)


def _write_json(node: Any, out: list[str]) -> None:
    if isinstance(node, Mapping):
        out.append("{")
        for i, key in enumerate(sorted(node)):
            if not isinstance(key, str):
                raise ContractError(f"document keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write_json(node[key], out)
        out.append("}")
    elif isinstance(node, (list, tuple)):
        out.append("[")
        for i, item in enumerate(node):
            if i:
                out.append(",")
            _write_json(item, out)
        out.append("]")
    elif isinstance(node, bool):
        out.append("true" if node else "false")
    elif isinstance(node, (int, np.integer)):
        out.append(str(int(node)))
    elif isinstance(node, (float, np.floating)):
        # "-0" would read back as the int 0, losing the sign
        out.append("-0.0" if node == 0 and math.copysign(1.0, node) < 0 else fmt17(float(node)))
    elif node is None:
        out.append("null")
    elif isinstance(node, str):
        out.append(json.dumps(node))
    else:
        raise ContractError(f"cannot serialize {type(node).__name__} into a document")


def _encode_array(arr: np.ndarray) -> list[list[float]]:
    """Row-major list of [re, im] pairs."""
    flat = np.asarray(arr, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _object(doc: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _field(doc: Mapping[str, Any], key: str, kind: type, optional: bool = False) -> Any:
    """doc[key] read as a `kind` (null allowed when `optional`) through _convert."""
    value = doc[key]
    return None if optional and value is None else _convert(key, kind, value)


def _items(value: Any, key: str, kind: type) -> tuple[Any, ...]:
    """The list `value`, named `key`, each item read as a `kind` through _convert."""
    if not isinstance(value, list):
        raise ValidationError(f"{key} must be a JSON list, got {type(value).__name__}")
    return tuple(_convert(key, kind, item) for item in value)


# How far past 1 a decoded entry's modulus may be.  Every decoded matrix is
# a Kraus operator of a trace-preserving channel, an effect 0 <= E <= I or a
# unit state's amplitudes, so each entry has modulus at most 1, up to the
# 1e-8 its own check allows.  A larger entry is refused here, before any
# product of entries can overflow.
ENTRY_MODULUS_TOL = 1e-6


def _decode_array(pairs: Any, shape: tuple[int, ...]) -> np.ndarray:
    count = math.prod(shape)
    if not isinstance(pairs, list) or len(pairs) != count:
        raise ValidationError(f"expected a list of {count} entries for shape {shape}")
    flat = [complex(_convert("entry", float, re), _convert("entry", float, im)) for re, im in pairs]
    for entry in flat:
        if math.hypot(entry.real, entry.imag) > 1.0 + ENTRY_MODULUS_TOL:
            raise ValidationError(
                f"entry {entry!r} has modulus above 1 + {ENTRY_MODULUS_TOL}; "
                "no channel, effect or state has one"
            )
    return np.array(flat, dtype=np.complex128).reshape(shape)


def _encode_layout(layout: RegisterLayout) -> dict[str, Any]:
    return {"names": list(layout.names), "dims": list(layout.dims)}


def _decode_layout(doc: Mapping[str, Any]) -> RegisterLayout:
    return RegisterLayout(_items(doc["names"], "names", str), _items(doc["dims"], "dims", int))


def channel_document(channel: KrausChannel | EbChannel) -> dict[str, Any]:
    base = {
        "in": _encode_layout(channel.in_layout),
        "out": _encode_layout(channel.out_layout),
    }
    if isinstance(channel, KrausChannel):
        return {"form": "kraus", "ops": [_encode_array(k) for k in channel.kraus_ops], **base}
    if isinstance(channel, EbChannel):
        return {
            "form": "eb",
            "povm": [_encode_array(e) for e in channel.povm.effects],
            "preps": [_encode_array(p.amplitudes) for p in channel.preps],
            **base,
        }
    raise ContractError(f"no document form for {type(channel).__name__}")


def channel_from_document(doc: Mapping[str, Any]) -> KrausChannel | EbChannel:
    try:
        form = _field(doc, "form", str)
        in_layout = _decode_layout(doc["in"])
        out_layout = _decode_layout(doc["out"])
        if form == "kraus":
            shape = (out_layout.total_dim, in_layout.total_dim)
            ops = tuple(_decode_array(p, shape) for p in doc["ops"])
            return KrausChannel(in_layout, out_layout, ops)
        if form == "eb":
            square, vector = (in_layout.total_dim,) * 2, (out_layout.total_dim,)
            effects = [_decode_array(p, square) for p in doc["povm"]]
            preps = [PureState(out_layout, _decode_array(p, vector)) for p in doc["preps"]]
            return EbChannel(Povm(in_layout, effects), tuple(preps))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed channel document: {exc}") from exc
    raise ValidationError(f"unknown channel form {form!r}")


def protocol_document(spec: ProtocolSpec) -> dict[str, Any]:
    return {
        "kind": "protocol",
        "m": _encode_layout(spec.m_layout),
        "v": _encode_layout(spec.v_layout),
        "rounds": spec.rounds,
        "v1": None if spec.v1 is None else channel_document(spec.v1),
        "v2": channel_document(spec.v2),
        "accept": _encode_array(spec.accept.entries),
        "classical_rounds": sorted(spec.classical_rounds),
        "public_coin": spec.public_coin,
        "coin_label": spec.coin_label,
        "saved_label": spec.saved_label,
    }


def protocol_from_document(doc: Any) -> ProtocolSpec:
    try:
        doc = _object(doc, "protocol document")
        if doc.get("kind") != "protocol":
            raise ValidationError(f"expected a protocol document, got kind={doc.get('kind')!r}")
        m_layout = _decode_layout(doc["m"])
        v_layout = _decode_layout(doc["v"])
        joint = m_layout.concat(v_layout)
        d = joint.total_dim
        v1_doc = doc["v1"]
        return ProtocolSpec(
            m_layout=m_layout,
            v_layout=v_layout,
            rounds=_field(doc, "rounds", int),
            v1=None if v1_doc is None else channel_from_document(v1_doc),
            v2=channel_from_document(doc["v2"]),
            accept=MeasurementOperator(joint, _decode_array(doc["accept"], (d, d))),
            classical_rounds=frozenset(_items(doc["classical_rounds"], "classical_rounds", int)),
            public_coin=_field(doc, "public_coin", bool),
            coin_label=_field(doc, "coin_label", str, optional=True),
            saved_label=_field(doc, "saved_label", str, optional=True),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed protocol document: {exc}") from exc


def _encode_state(state: PureState | None) -> dict[str, Any] | None:
    if state is None:
        return None
    return {"layout": _encode_layout(state.layout), "amplitudes": _encode_array(state.amplitudes)}


def _decode_state(doc: Mapping[str, Any] | None) -> PureState | None:
    if doc is None:
        return None
    layout = _decode_layout(doc["layout"])
    return PureState(layout, _decode_array(doc["amplitudes"], (layout.total_dim,)))


def _decode_responses(doc: Any) -> dict[str, str]:
    return {y: _convert("response", str, z) for y, z in _object(doc, "responses").items()}


# every strategy form by its "kind", and every strategy field once, by name,
# with its (encode, decode) pair: a document's other keys are the field names
_STRATEGY_KINDS = {
    "entangled": EntangledStrategy,
    "raw": RawUnentangledStrategy,
    "canonical": CanonicalStrategy,
    "classical": ClassicalResponseStrategy,
}
_STRATEGY_FIELDS: dict[str, tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "workspace": (_encode_layout, _decode_layout),
    "eb_labels": (list, lambda doc: _items(doc, "eb_labels", str)),
    **dict.fromkeys(
        ("first", "respond", "mix1", "emit1", "mix2", "emit2"),
        (channel_document, channel_from_document),
    ),
    "first_message": (_encode_state, _decode_state),
    "responses": (dict, _decode_responses),
}


def strategy_document(prover: ProverStrategy) -> dict[str, Any]:
    kind = next((k for k, cls in _STRATEGY_KINDS.items() if isinstance(prover, cls)), None)
    if kind is None:
        raise ContractError(f"no document form for {type(prover).__name__}")
    doc = {f.name: _STRATEGY_FIELDS[f.name][0](getattr(prover, f.name)) for f in fields(prover)}
    return {"kind": kind, **doc}


def strategy_from_document(doc: Mapping[str, Any]) -> ProverStrategy:
    try:
        kind = _field(doc, "kind", str)
        if kind in _STRATEGY_KINDS:
            cls = _STRATEGY_KINDS[kind]
            return cls(**{f.name: _STRATEGY_FIELDS[f.name][1](doc[f.name]) for f in fields(cls)})
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed strategy document: {exc}") from exc
    raise ValidationError(f"unknown strategy kind {kind!r}")


# ---------------------------------------------------------------------------
# CSV reports


def render_csv(
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    config_doc: Mapping[str, Any],
    footer: Sequence[tuple[str, Any]] | None = None,
) -> bytes:
    lines = [",".join(columns), "# config " + dumps_document(config_doc)]
    for row in rows:
        if len(row) != len(columns):
            raise ContractError(f"row {row!r} does not match columns {columns!r}")
        lines.append(",".join(_cell(v) for v in row))
    if footer:
        lines.append("# " + " ".join(f"{key}={_cell(v)}" for key, v in footer))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        raise ContractError("encode verdicts as strings, not booleans")
    if isinstance(value, (float, np.floating)):
        return fmt17(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        if "," in value or "\n" in value or "#" in value:
            raise ContractError(f"cell {value!r} would corrupt the CSV")
        return value
    raise ContractError(f"cannot render {type(value).__name__} as a CSV cell")


# ---------------------------------------------------------------------------
# experiment configs


@dataclass(frozen=True)
class ExperimentConfig:
    """A command tag plus its fully merged, validated parameters."""

    command: str
    params: Mapping[str, Any]

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        table = _COMMANDS[self.command].params
        merged: dict[str, Any] = {}
        for name, (kind, default) in table.items():
            value = self.params.get(name, default)
            merged[name] = default if value is None else _convert(f"parameter {name}", kind, value)
        unknown = set(self.params) - set(table)
        if unknown:
            raise ValidationError(f"unknown parameters for {self.command}: {sorted(unknown)}")
        if "seed" in merged:
            # refused whether or not this run draws from it
            checked_seed(merged["seed"])
        object.__setattr__(self, "params", merged)

    def document(self) -> dict[str, Any]:
        return {"command": self.command, **self.params}


def _convert(name: str, kind: type, value: Any) -> Any:
    """``value`` as a ``kind`` (int, float, bool or str) value named ``name``.
    Bools are not numbers here, an int stands for a float, and floats must
    be finite."""
    if kind in (str, bool):
        if not isinstance(value, kind):
            noun = "a string" if kind is str else "true or false"
            raise ValidationError(f"{name} must be {noun}, got {value!r}")
        return value
    if kind is int:
        return checked_int(value, name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a float") from None
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# runners

# Largest canonicalize --trials and eb-check --count.  On a 2-core host a
# trial takes about 3.6 ms and a channel about 0.6 ms; the largest accepted
# batches take about 3.8 s each as fresh processes.
CANONICALIZE_TRIAL_BUDGET = 1000
EB_CHECK_COUNT_BUDGET = 5000
# Acceptance a canonical prover may lose to rounding; more breaks canonical >= raw.
CANONICAL_LOSS_TOL = 1e-9


def _check_count(name: str, value: int, low: int, budget: int) -> None:
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    if value > budget:
        raise BudgetError(f"{name} = {value} exceeds the budget {budget}")


def _run_chsh_gap(params: Mapping[str, Any]):
    _, fam = chsh_protocol()
    exact = exact_classical_response_value(fam)
    cfg = OptimizerConfig(restarts=params["restarts"], seed=params["seed"])
    seesaw = seesaw_entangled_value(fam, config=cfg)
    rows = [
        ("exhaustive", exact.value, 0, 0),
        ("seesaw", seesaw.value, cfg.restarts, sum(len(t) for t in seesaw.iterates)),
    ]
    summary = f"unentangled value {exact.value:.6f}, entangled value {seesaw.value:.6f}"
    return ("method", "value", "restarts", "iters"), rows, None, summary


def _canonicalize_instance(spec: ProtocolSpec, prover: RawUnentangledStrategy):
    raw_value = acceptance_probability(spec, prover)
    canonical = canonicalize_prover(spec, prover)
    return raw_value, acceptance_probability(spec, canonical), canonical


def _run_canonicalize(params: Mapping[str, Any]):
    _check_count("trials", params["trials"], 1, CANONICALIZE_TRIAL_BUDGET)
    if (params["spec"] is None) != (params["prover"] is None):
        raise ValidationError("pass both of --spec and --prover, or neither")
    rows = []
    if params["spec"] is not None:
        spec = protocol_from_document(_read_document(params["spec"]))
        prover = strategy_from_document(_read_document(params["prover"]))
        raw_value, canon_value, canonical = _canonicalize_instance(spec, prover)
        if params["emit"] is not None:
            _write(params["emit"], (dumps_document(strategy_document(canonical)) + "\n").encode())
        rows.append((0, raw_value, canon_value, canon_value - raw_value))
    else:
        if params["emit"] is not None:
            raise ValidationError("--emit needs an explicit --spec/--prover instance")
        for trial in range(params["trials"]):
            rng = derived_rng(params["seed"], "canonicalize", trial)
            spec = random_verifier_spec(rng)
            prover = random_raw_prover(rng, spec)
            raw_value, canon_value, _ = _canonicalize_instance(spec, prover)
            rows.append((trial, raw_value, canon_value, canon_value - raw_value))
    min_gain = min(row[3] for row in rows)
    if min_gain < -CANONICAL_LOSS_TOL:
        raise NumericsError(f"canonical prover lost {-min_gain:.3e} acceptance")
    summary = f"{len(rows)} prover(s) canonicalized, min gain {min_gain:.3e}"
    return ("trial", "raw_value", "canonical_value", "gain"), rows, None, summary


def _run_eb_check(params: Mapping[str, Any]):
    _check_count("count", params["count"], 0, EB_CHECK_COUNT_BUDGET)
    rows = []
    if params["channel"] is not None:
        channel = channel_from_document(_read_document(params["channel"]))
        report = check_eb_ppt(channel)
        form = "kraus" if isinstance(channel, KrausChannel) else "eb"
        rows.append((0, form, report.min_eigenvalue, report.verdict))
    else:
        qubit = RegisterLayout(("M",), (2,))
        report = check_eb_ppt(KrausChannel.identity(qubit))
        rows.append((0, "identity", report.min_eigenvalue, report.verdict))
        for i in range(params["count"]):
            rng = derived_rng(params["seed"], "eb-check", i)
            report = check_eb_ppt(random_eb_channel(rng, qubit))
            rows.append((i + 1, "eb", report.min_eigenvalue, report.verdict))
    ppt = sum(1 for row in rows if row[3] != "NPT")
    summary = (
        f"{ppt}/{len(rows)} channel(s) PPT, "
        f"min partial-transpose eigenvalue {min(row[2] for row in rows):.6f}"
    )
    return ("instance", "form", "min_pt_eigenvalue", "verdict"), rows, None, summary


def _run_nexp_decide(params: Mapping[str, Any]):
    spec, _ = chsh_protocol()
    cfg = OptimizerConfig(seed=params["seed"], net_resolution=params["resolution"])
    decision = nexp_decide(spec, params["c"], params["s"], cfg)
    verdict = "accept" if decision.accepted else "reject"
    rows = [(decision.threshold, decision.value, decision.net_error, verdict)]
    summary = (
        f"{verdict}: value {decision.value:.6f} against threshold "
        f"{decision.threshold:.6f} (net error {decision.net_error:.6f})"
    )
    return ("threshold", "value", "net_error", "verdict"), rows, None, summary


def _run_subsample(params: Mapping[str, Any]):
    if params["family"] != "chsh":
        raise ValidationError(f"unknown family {params['family']!r}; only chsh is built in")
    _, fam = chsh_protocol()
    report = subsampling_experiment(
        fam, params["r"], params["eps"], params["trials"], params["seed"]
    )
    rows = [
        (trial, report.r, report.lhs_value, rhs, dev)
        for trial, (rhs, dev) in enumerate(zip(report.rhs_values, report.deviations))
    ]
    footer = [("failure_fraction", report.failure_fraction), ("eps", report.eps)]
    mean_dev = sum(report.deviations) / len(report.deviations)
    summary = (
        f"r={report.r}: mean deviation {mean_dev:.6f}, "
        f"failure fraction {report.failure_fraction:.6f} at eps {report.eps:g}"
    )
    return ("trial", "r", "lhs", "rhs", "deviation"), rows, footer, summary


def _run_amplify(params: Mapping[str, Any]):
    value = majority_amplify(params["p"], params["k"])
    summary = f"majority success probability {value:.6f}"
    return ("p", "k", "value"), [(params["p"], params["k"], value)], None, summary


class _Command(NamedTuple):
    run: Callable[[Mapping[str, Any]], tuple]
    help: str
    params: dict[str, tuple[type, Any]]


# every subcommand once: its runner, its help line, and each parameter as
# name: (type, default); a parameter is both a --name flag and a config key
_COMMANDS: dict[str, _Command] = {
    "chsh-gap": _Command(
        _run_chsh_gap,
        "exact classical value vs see-saw entangled value",
        {"csv": (str, "chsh-gap.csv"), "restarts": (int, 16), "seed": (int, 0)},
    ),
    "canonicalize": _Command(
        _run_canonicalize,
        "fold raw unentangled provers into canonical form",
        {
            "csv": (str, "canonicalize.csv"),
            "trials": (int, 50),
            "seed": (int, 0),
            "spec": (str, None),
            "prover": (str, None),
            "emit": (str, None),
        },
    ),
    "eb-check": _Command(
        _run_eb_check,
        "partial-transpose test on Choi states",
        {
            "csv": (str, "eb-check.csv"),
            "count": (int, 100),
            "seed": (int, 0),
            "channel": (str, None),
        },
    ),
    "nexp-decide": _Command(
        _run_nexp_decide,
        "net-based threshold decision on the built-in game",
        {
            "csv": (str, "nexp-decide.csv"),
            "c": (float, 0.8),
            "s": (float, 0.6),
            "resolution": (int, 2000),
            "seed": (int, 0),
        },
    ),
    "subsample": _Command(
        _run_subsample,
        "challenge subsampling deviation experiment",
        {
            "csv": (str, "subsample.csv"),
            "family": (str, "chsh"),
            "r": (int, 256),
            "eps": (float, 0.1),
            "trials": (int, 100),
            "seed": (int, 0),
        },
    ),
    "amplify": _Command(
        _run_amplify,
        "exact majority-vote amplification probability",
        {"csv": (str, "amplify.csv"), "p": (float, 0.5), "k": (int, 41)},
    ),
}

_FLAG_HELP = {
    "csv": "CSV report path",
    "spec": "protocol document to canonicalize against",
    "prover": "raw strategy document",
    "emit": "write the canonical strategy document here",
    "channel": "channel document to check instead of a seeded batch",
}


def run(config: ExperimentConfig) -> int:
    """Execute the experiment, write its CSV report, print the summary."""
    for path in (config.params["csv"], config.params.get("emit")):
        # refused before the experiment runs; nothing is created
        if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ValidationError(f"cannot write {path}: a directory, or in a missing one")
    columns, rows, footer, summary = _COMMANDS[config.command].run(config.params)
    csv_path = Path(config.params["csv"])
    _write(csv_path, render_csv(columns, rows, config.document(), footer))
    print(summary)
    print(f"report: {csv_path}")
    return 0


def _write(path: str | Path, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# argument parsing


def _read_document(path: str) -> Any:
    try:
        if path == "-":
            return json.load(sys.stdin)
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ValidationError(f"{path} is not a valid document: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qiplab", description="seeded experiments with CSV reports"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        p.add_argument("--config", help="JSON config file ('-' for stdin); flags override")
        for name, (kind, _) in spec.params.items():
            p.add_argument(f"--{name}", type=kind, help=_FLAG_HELP.get(name))
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    file_params: dict[str, Any] = {}
    if args.config is not None:
        loaded = _read_document(args.config)
        if not isinstance(loaded, dict):
            raise ValidationError("config document must be a key/value object")
        tag = loaded.pop("command", args.command)
        if tag != args.command:
            raise ValidationError(f"config is for {tag!r} but the command is {args.command!r}")
        file_params = loaded
    flag_params = {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "config") and value is not None
    }
    return ExperimentConfig(args.command, {**file_params, **flag_params})


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(config_from_args(args))
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QipLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
