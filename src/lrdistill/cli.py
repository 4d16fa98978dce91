"""Command-line interface.

Data goes to stdout (or ``--output``), diagnostics to stderr. Exit codes:
0 success, 2 invalid input (a size too large to allocate included), 3
internal numerical failure. Every report embeds the configuration
(tolerances, seed, budget, package version) so results are reproducible
from the report alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from math import isfinite

from . import __version__
from .channels import channel_from_dict, flagged_depolarizing_channel, werner_holevo_channel
from .distill import DEFAULT_WITNESS_BUDGET, classify, local_filter
from .errors import InputError, LrdistillError, StateFormatError
from .kernels import DEFAULT_RANK_TOL, validated_tolerance
from .sampling import EnsembleSpec, run_experiment
from .states import (
    DEFAULT_PPT_TOL,
    DensityMatrix,
    TripartitePureState,
    bell_state,
    density_matrix_from_dict,
    ghz_state,
    maximally_mixed,
    pure_state_from_dict,
    purify,
    validated_count,
    validated_seed,
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


#: args attribute -> (flag, default, type, help); each command takes the ones it reads, and
#: settings a command does not take keep their defaults in the report.
_FLAGS = {
    "rank_tol": ("--rank-tol", DEFAULT_RANK_TOL, float, "relative eigenvalue cutoff for ranks"),
    "ppt_tol": ("--ppt-tol", DEFAULT_PPT_TOL, float, "partial-transpose witness threshold"),
    "seed": ("--seed", 0, int, "PRNG seed"),
    "witness_budget": ("--budget", DEFAULT_WITNESS_BUDGET, int,
                       "random trials for the witness search"),
}


def _add_flags(root: argparse.ArgumentParser, sub: argparse.ArgumentParser, *names: str,
               formats: tuple[str, ...] = ()):
    # Defaults live on the root parser, and each help names the root's; SUPPRESS keeps an
    # omitted flag from overwriting them.
    for name in names:
        flag, _, type_, help_ = _FLAGS[name]
        sub.add_argument(flag, dest=name, type=type_, default=argparse.SUPPRESS,
                         help=f"{help_} (default {root.get_default(name)})")
    if formats:
        sub.add_argument("--format", dest="fmt", choices=formats, default=argparse.SUPPRESS,
                         help=f"output format (default {root.get_default('fmt')})")
    sub.add_argument("--output", default=argparse.SUPPRESS,
                     help="write output to file instead of stdout")


def _config(args) -> dict:
    """The report's ``config`` block: every setting of the run and the package version."""
    return {**{name: getattr(args, name) for name in _FLAGS}, "version": __version__}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="lrdistill",
        description="Distillability bounds, local filtering, and PPT classification "
        "for low-rank bipartite quantum states.",
    )
    parser.add_argument("--version", action="version", version=f"lrdistill {__version__}")
    parser.set_defaults(fmt="json", output=None,
                        **{name: default for name, (_, default, *_) in _FLAGS.items()})
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="classify a state file (full undistillability report)")
    p.add_argument("state_file", help="JSON state or channel document")
    _add_flags(parser, p, "rank_tol", "ppt_tol", "seed", "witness_budget",
               formats=("json", "pretty"))

    p = subs.add_parser("filter", help="apply the marginal-flattening local filter")
    p.add_argument("state_file", help="JSON state or channel document")
    p.add_argument("--side", choices=("A", "B"), required=True, help="filtering side")
    _add_flags(parser, p, "rank_tol", formats=("json", "pretty"))

    p = subs.add_parser("sample", help="run the random low-rank state experiment")
    p.add_argument("d_a", type=int, help="dimension of A")
    p.add_argument("d_b", type=int, help="dimension of B")
    p.add_argument("d_e", type=int, help="dimension of E (must be < d_B)")
    p.add_argument("n", type=int, help="number of samples")
    _add_flags(parser, p, "rank_tol", "seed", "witness_budget", formats=("json", "csv", "pretty"))

    p = subs.add_parser("example", help="emit a named example state or channel")
    p.add_argument("name", choices=_EXAMPLES)
    p.add_argument("--d", type=int, default=2,
                   help="input dimension for flagged-depolarizing (default %(default)s)")
    p.add_argument("--q", type=float, default=0.5,
                   help="depolarizing strength for flagged-depolarizing (default %(default)s)")
    _add_flags(parser, p)
    return parser


def _load_state(path: str) -> tuple[str, DensityMatrix | TripartitePureState]:
    """Load a document, whose first key of "choi", "matrix", "vector" picks its schema.

    A channel document contributes its Choi state."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StateFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too many digits
        raise StateFormatError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        if "choi" in doc:
            return "channel", channel_from_dict(doc).choi
        if "matrix" in doc:
            return "bipartite", density_matrix_from_dict(doc)
        if "vector" in doc:
            return "tripartite", pure_state_from_dict(doc)
    raise StateFormatError(f'{path}: expected an object with a "choi", "matrix" or "vector" key')


def _dump_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, for a report: ``str``-keyed
    dicts, lists, tuples and JSON scalars, nested to any depth."""
    return _indented(payload, "\n") + "\n"


def _indented(value, nl: str) -> str:
    """Report ``value`` as ``json.dumps(value, indent=2)`` renders it where a line break is ``nl``.

    Nonempty dicts, lists and tuples are walked here, and regular float arrays
    rendered in bulk; a scalar or an empty container reads the same at any
    indent, so it goes through json's C path.
    """
    inner = nl + "  "
    if type(value) is dict and value:
        return "{" + inner + ("," + inner).join(
            json.dumps(k) + ": " + _indented(v, inner) for k, v in value.items()
        ) + nl + "}"
    if type(value) in (list, tuple) and value:
        return _float_array(value, nl) or "[" + inner + ("," + inner).join(
            _indented(v, inner) for v in value
        ) + nl + "]"
    return json.dumps(value)


def _float_array(rows: list, nl: str) -> str | None:
    """A nonempty regular nested list of finite floats as ``_indented`` renders it, else None.

    The leaves go through ``float.__repr__`` (json's own float format) in one
    pass, into one ``%s`` template laid out by the array's shape.
    """
    shape = []
    nodes = [rows]
    while type(nodes[0]) is list:
        n = len(nodes[0])
        if not n or set(map(type, nodes)) != {list} or set(map(len, nodes)) != {n}:
            return None
        shape.append(n)
        nodes = list(chain.from_iterable(nodes))
    if set(map(type, nodes)) != {float} or not all(map(isfinite, nodes)):
        return None
    template = "%s"
    for depth in reversed(range(len(shape))):
        outer = nl + "  " * depth
        inner = outer + "  "
        template = "[" + inner + ("," + inner).join([template] * shape[depth]) + outer + "]"
    return template % tuple(map(float.__repr__, nodes))


def _cmd_analyze(args) -> str:
    kind, state = _load_state(args.state_file)
    psi = state if isinstance(state, TripartitePureState) else purify(state, args.rank_tol)
    report = classify(psi, rank_tol=args.rank_tol, ppt_tol=args.ppt_tol,
                      witness_budget=args.witness_budget, seed=args.seed)
    separability = report.reduction_ab.separability
    if args.fmt == "pretty":
        lines = [
            f"input: {kind} dims={list(state.dims)}",
            f"classification: {report.classification}",
            f"npt reductions: {', '.join(report.npt_reductions) or 'none'}",
            f"ranks: AB={separability.rank} A={separability.rank_a} B={separability.rank_b} "
            f"E={separability.rank_e}",
            "rates: " + " ".join(f"{k}={v}" for k, v in report.rates.items()),
        ]
        for red in (report.reduction_ab, report.reduction_ae):
            record = red.separability
            ppt = "PPT" if record.ppt.is_ppt else "NPT"
            witness = (
                "not applicable"
                if not red.witness.performed
                else ("found" if red.witness.found else "not found")
            )
            lines.append(
                f"reduction {red.label}: {ppt} (witness={record.ppt.witness!r}) "
                f"rank={record.rank} hashing_rate={red.hashing_rate!r} "
                f"bounds=({record.low_rank_bound_a!r}, {record.low_rank_bound_b!r}) "
                f"one_way_witness={witness}"
            )
        lines.append(f"separability(AB): {separability.verdict}")
        return "\n".join(lines) + "\n"
    return _dump_json(
        {
            "schema": "analyze-report/1",
            "config": _config(args),
            "input": {"kind": kind, "dims": list(state.dims)},
            "report": report.to_json_dict(),
            "separability_AB": separability.to_json_dict(),
        }
    )


def _cmd_filter(args) -> str:
    kind, state = _load_state(args.state_file)
    rho = state.reduction((0, 1)) if isinstance(state, TripartitePureState) else state
    outcome = local_filter(rho, args.side, args.rank_tol)
    bound, bound_note = outcome.low_rank_bound, outcome.low_rank_bound_note
    if args.fmt == "pretty":
        lines = [
            f"input: {kind} dims={list(rho.dims)}",
            f"side: {outcome.side}",
            f"p_succ: {outcome.p_succ!r}",
            f"lambda_min: {outcome.lambda_min!r}",
            f"rank: {outcome.rank}  rank_side: {outcome.rank_side}",
            f"low_rank_bound: {bound!r}" + (f"  ({bound_note})" if bound_note else ""),
            f"filtered_hashing_rate: {outcome.hashing_rate!r}",
        ]
        return "\n".join(lines) + "\n"
    return _dump_json(
        {
            "schema": "filter-report/1",
            "config": _config(args),
            "input": {"kind": kind, "dims": list(rho.dims)},
            "filter": outcome.to_json_dict(),
            "low_rank_bound": bound,
            "low_rank_bound_note": bound_note,
            "filtered_hashing_rate": outcome.hashing_rate,
        }
    )


def _cmd_sample(args) -> str:
    spec = EnsembleSpec(args.d_a, args.d_b, args.d_e, args.n, args.seed, args.rank_tol)
    report = run_experiment(spec, witness_budget=args.witness_budget)
    if args.fmt == "csv":
        return report.to_csv()
    if args.fmt == "pretty":
        lines = [
            f"spec: d_A={spec.d_a} d_B={spec.d_b} d_E={spec.d_e} "
            f"n={spec.n_samples} seed={spec.seed}",
            "frequencies: "
            + " ".join(f"{k}={v!r}" for k, v in report.frequencies.items()),
        ]
        return "\n".join(lines) + "\n"
    payload = report.to_json_dict()
    payload["config"] = _config(args)
    return _dump_json(payload)


def _cmd_example(args) -> str:
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
        # Every setting is checked before any input is read, so a bad one costs no eigensolve.
        validated_tolerance(args.rank_tol, "rank_tol")
        validated_tolerance(args.ppt_tol, "ppt_tol")
        validated_seed(args.seed)
        validated_count(args.witness_budget, "budget")
        text = _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LrdistillError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message names the allocation's size, shape and dtype
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # malformed input must never crash the CLI
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
