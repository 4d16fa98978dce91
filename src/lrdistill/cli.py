"""Command-line interface.

Data goes to stdout (or ``--output``), diagnostics to stderr. Exit codes:
0 success, 2 invalid input, 3 internal numerical failure. Every report embeds
the configuration (tolerances, seed, budget, package version) so results are
reproducible from the report alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from . import __version__
from .channels import channel_from_dict, flagged_depolarizing_channel, werner_holevo_channel
from .distill import DEFAULT_WITNESS_BUDGET, classify, local_filter
from .errors import (
    BadParameterError,
    InputError,
    LrdistillError,
    RankNotLowError,
    StateFormatError,
)
from .kernels import DEFAULT_RANK_TOL, validated_tolerance
from .sampling import EnsembleSpec, run_experiment
from .states import (
    DEFAULT_PPT_TOL,
    DensityMatrix,
    TripartitePureState,
    bell_state,
    ghz_state,
    maximally_mixed,
    purify,
    state_from_dict,
)

#: ``example`` name -> the object whose JSON document it emits, in ``--help`` order.
_EXAMPLES = {
    "bell": lambda args: bell_state(),
    "ghz": lambda args: ghz_state(),
    "maximally-mixed": lambda args: maximally_mixed((2, 2)),
    "werner-holevo": lambda args: werner_holevo_channel(),
    "wh-choi": lambda args: werner_holevo_channel().choi,
    "flagged-depolarizing": lambda args: flagged_depolarizing_channel(args.d, args.q),
}


@dataclass(frozen=True)
class RunConfig:
    rank_tol: float = DEFAULT_RANK_TOL
    ppt_tol: float = DEFAULT_PPT_TOL
    seed: int = 0
    witness_budget: int = DEFAULT_WITNESS_BUDGET
    fmt: str = "json"
    output: str | None = None

    def __post_init__(self):
        validated_tolerance(self.rank_tol, "rank_tol", BadParameterError)
        validated_tolerance(self.ppt_tol, "ppt_tol", BadParameterError)
        if self.witness_budget < 0:
            raise BadParameterError("witness budget must be >= 0")
        if self.seed < 0:
            raise BadParameterError("seed must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "rank_tol": self.rank_tol,
            "ppt_tol": self.ppt_tol,
            "seed": self.seed,
            "witness_budget": self.witness_budget,
            "version": __version__,
        }


#: RunConfig field -> (flag, add_argument keywords); each command takes the ones it reads.
_FLAGS = {
    "rank_tol": ("--rank-tol", dict(type=float, default=DEFAULT_RANK_TOL,
                                    help="relative eigenvalue cutoff for ranks (default 1e-10)")),
    "ppt_tol": ("--ppt-tol", dict(type=float, default=DEFAULT_PPT_TOL,
                                  help="partial-transpose witness threshold (default 1e-9)")),
    "seed": ("--seed", dict(type=int, default=0, help="PRNG seed (default 0)")),
    "witness_budget": ("--budget", dict(type=int, default=DEFAULT_WITNESS_BUDGET,
                                        help="random trials for the witness search (default 50)")),
}


def _add_flags(sub: argparse.ArgumentParser, *names: str, formats: tuple[str, ...] = ()):
    for name in names:
        flag, kwargs = _FLAGS[name]
        sub.add_argument(flag, dest=name, **kwargs)
    if formats:
        sub.add_argument("--format", dest="fmt", choices=formats, default="json",
                         help="output format (default json)")
    sub.add_argument("--output", default=None, help="write output to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrdistill",
        description="Distillability bounds, local filtering, and PPT classification "
        "for low-rank bipartite quantum states.",
    )
    parser.add_argument("--version", action="version", version=f"lrdistill {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="classify a state file (full undistillability report)")
    p.add_argument("state_file", help="JSON state or channel document")
    _add_flags(p, "rank_tol", "ppt_tol", "seed", "witness_budget", formats=("json", "pretty"))

    p = subs.add_parser("filter", help="apply the marginal-flattening local filter")
    p.add_argument("state_file", help="JSON state or channel document")
    p.add_argument("--side", choices=("A", "B"), required=True, help="filtering side")
    _add_flags(p, "rank_tol", formats=("json", "pretty"))

    p = subs.add_parser("sample", help="run the random low-rank state experiment")
    p.add_argument("d_a", type=int, help="dimension of A")
    p.add_argument("d_b", type=int, help="dimension of B")
    p.add_argument("d_e", type=int, help="dimension of E (must be < d_B)")
    p.add_argument("n", type=int, help="number of samples")
    _add_flags(p, "rank_tol", "seed", "witness_budget", formats=("json", "csv", "pretty"))

    p = subs.add_parser("example", help="emit a named example state or channel")
    p.add_argument("name", choices=_EXAMPLES)
    p.add_argument("--d", type=int, default=2,
                   help="input dimension for flagged-depolarizing (default 2)")
    p.add_argument("--q", type=float, default=0.5,
                   help="depolarizing strength for flagged-depolarizing (default 0.5)")
    _add_flags(p)
    return parser


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StateFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFormatError(f"{path}: top-level JSON value must be an object")
    return doc


def _load_state(path: str) -> tuple[str, DensityMatrix | TripartitePureState]:
    """Load a state document; channel documents contribute their Choi state."""
    doc = _load_document(path)
    if "choi" in doc:
        return "channel", channel_from_dict(doc).choi
    state = state_from_dict(doc)
    return ("tripartite" if isinstance(state, TripartitePureState) else "bipartite"), state


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cmd_analyze(args, config: RunConfig) -> str:
    kind, state = _load_state(args.state_file)
    if isinstance(state, TripartitePureState):
        psi = state
    else:
        psi = purify(state, config.rank_tol)
    report = classify(
        psi,
        rank_tol=config.rank_tol,
        ppt_tol=config.ppt_tol,
        witness_budget=config.witness_budget,
        seed=config.seed,
    )
    separability = report.separability_ab()
    if config.fmt == "pretty":
        lines = [
            f"input: {kind} dims={list(state.dims)}",
            f"classification: {report.classification}",
            f"npt reductions: {', '.join(report.npt_reductions) or 'none'}",
            "ranks: "
            + " ".join(f"{k}={v}" for k, v in report.to_json_dict()["ranks"].items()),
            "rates: " + " ".join(f"{k}={v}" for k, v in report.rates.items()),
        ]
        for red in (report.reduction_ab, report.reduction_ae):
            ppt = "PPT" if red.ppt.is_ppt else "NPT"
            witness = (
                "not applicable"
                if not red.witness.performed
                else ("found" if red.witness.found else "not found")
            )
            lines.append(
                f"reduction {red.label}: {ppt} (witness={red.ppt.witness!r}) "
                f"rank={red.rank} hashing_rate={red.hashing_rate!r} "
                f"bounds=({red.low_rank_bound_first!r}, {red.low_rank_bound_second!r}) "
                f"one_way_witness={witness}"
            )
        lines.append(f"separability(AB): {separability.verdict}")
        return "\n".join(lines) + "\n"
    return _dump_json(
        {
            "schema": "analyze-report/1",
            "config": config.to_json_dict(),
            "input": {"kind": kind, "dims": list(state.dims)},
            "report": report.to_json_dict(),
            "separability_AB": separability.to_json_dict(),
        }
    )


def _cmd_filter(args, config: RunConfig) -> str:
    kind, state = _load_state(args.state_file)
    rho = state.reduction((0, 1)) if isinstance(state, TripartitePureState) else state
    outcome = local_filter(rho, args.side, config.rank_tol)
    try:
        bound = outcome.rate_bound()
        bound_note = None
    except RankNotLowError as exc:
        bound = None
        bound_note = str(exc)
    rate = outcome.hashing_rate(config.rank_tol)
    if config.fmt == "pretty":
        lines = [
            f"input: {kind} dims={list(rho.dims)}",
            f"side: {outcome.side}",
            f"p_succ: {outcome.p_succ!r}",
            f"lambda_min: {outcome.lambda_min!r}",
            f"rank: {outcome.rank}  rank_side: {outcome.rank_side}",
            f"low_rank_bound: {bound!r}" + (f"  ({bound_note})" if bound_note else ""),
            f"filtered_hashing_rate: {rate!r}",
        ]
        return "\n".join(lines) + "\n"
    return _dump_json(
        {
            "schema": "filter-report/1",
            "config": config.to_json_dict(),
            "input": {"kind": kind, "dims": list(rho.dims)},
            "filter": outcome.to_json_dict(),
            "low_rank_bound": bound,
            "low_rank_bound_note": bound_note,
            "filtered_hashing_rate": rate,
        }
    )


def _cmd_sample(args, config: RunConfig) -> str:
    spec = EnsembleSpec(
        d_a=args.d_a,
        d_b=args.d_b,
        d_e=args.d_e,
        n_samples=args.n,
        seed=config.seed,
        rank_tol=config.rank_tol,
    )
    report = run_experiment(spec, witness_budget=config.witness_budget)
    if config.fmt == "csv":
        return report.to_csv()
    if config.fmt == "pretty":
        lines = [
            f"spec: d_A={spec.d_a} d_B={spec.d_b} d_E={spec.d_e} "
            f"n={spec.n_samples} seed={spec.seed}",
            "frequencies: "
            + " ".join(f"{k}={v!r}" for k, v in report.frequencies.items()),
        ]
        return "\n".join(lines) + "\n"
    payload = report.to_json_dict()
    payload["config"] = config.to_json_dict()
    return _dump_json(payload)


def _cmd_example(args, config: RunConfig) -> str:
    return _dump_json(_EXAMPLES[args.name](args).to_json_dict())


_COMMANDS = {
    "analyze": _cmd_analyze,
    "filter": _cmd_filter,
    "sample": _cmd_sample,
    "example": _cmd_example,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors (2), --help and --version (0)
        return exc.code
    try:
        # Settings a command does not take keep their defaults in the report.
        config = RunConfig(
            **{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
        )
        text = _COMMANDS[args.command](args, config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LrdistillError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # malformed input must never crash the CLI
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
