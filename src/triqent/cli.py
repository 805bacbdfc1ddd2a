"""Command-line interface and the state-file / CSV formats.

State files are JSON: {"kind": "pure", "amplitudes": [[re, im] * 8]}
ordered by basis index 4i + 2j + k, or {"kind": "mixed", "matrix":
8x8 nested [re, im] pairs, row-major, over A, B, C}.  Either kind is read
by one reader, ``_pairs_to_complex``.  Exit codes: 0 success (also
when the reader of the output closes it early), 2 invalid input, 3
ambiguous-near-threshold (report still printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import numbers
import os
import sys
from contextlib import nullcontext

import numpy as np

from .classify import (
    AMBIGUITY_BAND,
    DEFAULT_ZERO_TOL,
    _LABELS,
    _classify_table,
    check_zero_tol,
    classify_mixed,
    classify_pure,
)
from .errors import (
    AmbiguousNearThresholdError,
    NonFiniteError,
    ParamOutOfDomainError,
    StateFileError,
    TriqentError,
)
from .families import SWEEPABLE, _sweep_chunks, default_grid
from .gsd import classify_gsd_pattern, gsd
from .measures import _MEASURE_NAMES, STACK_CHUNK, MeasureSet, _pure_closed_form_table, measure_set
from .states import DensityMatrix, PureState, _check_seed, _haar_draws, _is_number, _numbers, _require_state

MEASURE_FIELDS = (
    "n_a_bc", "n_b_ac", "n_c_ab", "n_abc",
    "q_mult", "eta_mult", "three_tangle",
    "n_red_bc", "n_red_ac", "n_red_ab",
    "c_red_bc", "c_red_ac", "c_red_ab",
    "s_a", "s_b", "s_c",
)
ORACLE_FIELDS = ("n_a_bc", "n_b_ac", "n_c_ab", "n_abc", "n_red_bc", "n_red_ac", "n_red_ab")
CSV_HEADER = (["family", "param", *MEASURE_FIELDS, "verdict"]
              + [f"{p}_{f}" for p in ("oracle", "dev") for f in ORACLE_FIELDS])


#: one line of the ``random`` report: index, code, then the measure-table
#: columns of _REPORT_FIELDS, each formatted as ``_fmt`` formats it
_REPORT_FIELDS = ("n_abc", "q_mult", "eta_mult", "three_tangle")
_REPORT_VALUES = "\t".join(f"{name}=%.12g" for name in _REPORT_FIELDS) + "\n"
_REPORT_LINE = "%d\t%s\t" + _REPORT_VALUES
_REPORT_COLUMNS = [_MEASURE_NAMES.index(name) for name in _REPORT_FIELDS]
#: the code a ``random`` report line shows for each row key, the row's
#: label plus len(_LABELS) when it is ambiguous: the codes of _LABELS,
#: then the same codes marked "?"
_KEY_CODES = tuple(label.code for label in _LABELS) + tuple(label.code + "?" for label in _LABELS)
#: the measure-table column of each MEASURE_FIELDS entry, in CSV order
_SWEEP_COLUMNS = [_MEASURE_NAMES.index(name) for name in MEASURE_FIELDS]


#: the line ``classify`` prints for an ambiguous verdict, pure or mixed
_AMBIGUOUS_WARNING = f"warning: a decision margin is within {AMBIGUITY_BAND:g}x of the zero tolerance"


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".12g")


def _pairs_to_complex(entries, shape: tuple[int, ...], what: str, needs: str) -> np.ndarray:
    """``[real, imaginary]`` pairs of JSON numbers nested in ``shape``, as one complex array of that shape.

    Otherwise the walk below names the first problem: another nesting
    (``needs``), a non-pair, a part that is no JSON number (a string,
    boolean, null or list, even where ``float()`` would take it), then
    an int beyond the float range (NonFiniteError).
    """
    try:
        pairs = _numbers(entries, numbers.Real)
    except NonFiniteError as exc:  # named after any problem the walk finds first
        pairs, out_of_range = None, exc
    if pairs is not None and pairs.shape == shape + (2,):
        # each C-ordered (real, imaginary) row of float64 is one complex128
        return pairs.view(complex)[..., 0]
    flat = [entries]
    for n in shape:
        if not all(isinstance(e, list) and len(e) == n for e in flat):
            raise StateFileError(needs)
        flat = [e for row in flat for e in row]
    if not all(isinstance(e, list) and len(e) == 2 for e in flat):
        raise StateFileError(f"{what} entries must be [real, imaginary] pairs")
    bad = [v for e in flat for v in e if not _is_number(v, numbers.Real)]
    if bad:
        raise StateFileError(f"non-numeric value in {what}: {json.dumps(bad[0])}")
    raise out_of_range  # a nesting of numbers in shape fails the one-array read only on its range


def load_state_file(path: str) -> PureState | DensityMatrix:
    """Parse a JSON state file into a validated state."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also an overlong integer, bytes not UTF-8, too deep a nesting
        raise StateFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") not in ("pure", "mixed"):
        raise StateFileError('state file needs "kind": "pure" or "mixed"')
    try:
        if data["kind"] == "pure":
            return PureState(_pairs_to_complex(data.get("amplitudes"), (8,), "amplitudes",
                                               "pure state needs 8 amplitude pairs"))
        return DensityMatrix(_pairs_to_complex(data.get("matrix"), (8, 8), "matrix",
                                               "mixed state needs an 8x8 matrix of pairs"))
    except TriqentError as exc:
        if isinstance(exc, StateFileError):
            raise
        raise StateFileError(str(exc)) from exc


def save_state_file(path: str, state: PureState | DensityMatrix) -> None:
    """Write a state as JSON; floats round-trip exactly.  Checked as measure_set checks it, before the file opens."""
    if isinstance(_require_state(state, "save_state_file"), PureState):
        data = {"kind": "pure", "amplitudes": [[z.real, z.imag] for z in state.amplitudes]}
    else:
        data = {
            "kind": "mixed",
            "matrix": [[[z.real, z.imag] for z in row] for row in state.matrix],
        }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh)
        fh.write("\n")


def _print_measures(ms: MeasureSet) -> None:
    for name in MEASURE_FIELDS:
        value = getattr(ms, name)
        if value is not None:
            print(f"  {name:13s} {_fmt(value)}")


def _cmd_classify(args) -> int:
    check_zero_tol(args.tol)
    state = load_state_file(args.path)
    if isinstance(state, PureState):
        res = classify_pure(state, zero_tol=args.tol)
        if args.json:
            print(json.dumps({
                "kind": "pure",
                "subtype": res.label.code,
                "description": res.label.describe(),
                "separable_qubit": res.label.separable_qubit,
                "entangled_pairs": list(res.label.entangled_pairs),
                "ambiguous": res.ambiguous,
                "measures": res.measures.as_dict(),
                "margins": res.margins,
            }))
        else:
            print(f"subtype: {res.label.code} ({res.label.describe()})")
            if res.label.separable_qubit:
                print(f"separable qubit: {res.label.separable_qubit}")
            if res.label.entangled_pairs:
                print(f"entangled reduced pairs: {', '.join(res.label.entangled_pairs)}")
            if res.ambiguous:
                print(_AMBIGUOUS_WARNING)
            print("measures:")
            _print_measures(res.measures)
            print("margins:")
            for k, v in res.margins.items():
                print(f"  {k:16s} {_fmt(v)}")
        return 3 if res.ambiguous else 0

    verdict = classify_mixed(state, zero_tol=args.tol)
    if args.json:
        print(json.dumps({
            "kind": "mixed",
            "certificates": [[c.claim, c.witness] for c in verdict.certificates],
            "ambiguous": verdict.ambiguous,
            "measures": verdict.measures.as_dict(),
        }))
    else:
        print("mixed-state verdict:")
        for c in verdict.certificates:
            print(f"  {c.claim} (witness {_fmt(c.witness)})")
        if verdict.ambiguous:
            print(_AMBIGUOUS_WARNING)
        print("measures:")
        _print_measures(verdict.measures)
    return 3 if verdict.ambiguous else 0


def _cmd_measure(args) -> int:
    state = load_state_file(args.path)
    ms = measure_set(state)
    if args.json:
        print(json.dumps(ms.as_dict()))
    else:
        _print_measures(ms)
    return 0


def _cmd_gsd(args) -> int:
    form = gsd(load_state_file(args.path), mode=args.mode)
    ambiguous = False
    try:
        pat = classify_gsd_pattern(form)
        pattern_line = f"{pat.pattern} (subtype {pat.subtype.code})"
    except AmbiguousNearThresholdError as exc:
        ambiguous = True
        pattern_line = f"ambiguous: {exc}"
    print(f"mode: {form.mode}")
    for name, z in zip(("alpha", "beta", "delta", "epsilon", "omega"), form.coefficients.tolist()):
        print(f"  {name:8s} {_fmt(z.real)} {'+' if z.imag >= 0 else '-'} {_fmt(abs(z.imag))}i"
              f"   |.| = {_fmt(abs(z))}")
    print(f"pattern: {pattern_line}")
    for name, u in (("u_a", form.u_a), ("u_b", form.u_b), ("u_c", form.u_c)):
        print(f"{name}:")
        for row in u:
            print("   " + "  ".join(f"{z.real:+.9f}{z.imag:+.9f}i" for z in row))
    return 3 if ambiguous else 0


def _write_sweep_chunk(fh, family: str, chunk) -> None:
    """The CSV lines of one chunk of ``families._sweep_chunks``, formatted by one % call.

    Numbers are formatted as ``_fmt`` formats them.  A measure the table
    lacks (a pure-only one, for a mixed family) and an oracle field the
    family lacks are blank cells.  Each row's verdict is written into the
    chunk's template, so the one call formats all of the chunk's numbers;
    no family name or verdict holds a %.  No cell needs quoting: the
    family names, numbers and verdicts hold no comma, quote or line break.
    """
    width = chunk.table.shape[1]
    fields = [f for f in ORACLE_FIELDS if f in chunk.oracle]
    oracle_cells = ["%.12g" if f in chunk.oracle else "" for f in ORACLE_FIELDS]
    measure_cells = ["%.12g" if c < width else "" for c in _SWEEP_COLUMNS]
    before = ",".join([family, "%.12g", *measure_cells, ""])
    after = ",".join(["", *oracle_cells, *oracle_cells]) + "\n"
    values = np.column_stack([
        chunk.params[:, 0], chunk.table[:, [c for c in _SWEEP_COLUMNS if c < width]],
        *(chunk.oracle[f] for f in fields), *(chunk.deviations[f] for f in fields),
    ])
    template = before + (after + before).join(chunk.verdicts) + after
    fh.write(template % tuple(values.ravel().tolist()))


def _cmd_sweep(args) -> int:
    spec = default_grid(args.family, args.points)
    # each chunk's lines are written as they are made, so memory stays
    # bounded for any --points; a sweep that fails removes its partial file
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for chunk in _sweep_chunks(spec):
                _write_sweep_chunk(fh, spec.family, chunk)
    except TriqentError:
        os.remove(args.out)
        raise
    print(f"wrote {len(spec.grid)} rows to {args.out}")
    return 0


def _cmd_random(args) -> int:
    if args.count < 1:
        raise ParamOutOfDomainError("--count must be >= 1")
    check_zero_tol(args.tol)
    _check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    key_counts = np.zeros(len(_KEY_CODES), dtype=np.int64)
    # each chunk's lines are written as they are made, so memory stays
    # bounded for any --count
    out = open(args.out, "w", encoding="utf-8", newline="\n") if args.out is not None else nullcontext(sys.stdout)
    with out as fh:
        for start in range(0, args.count, STACK_CHUNK):
            stop = min(args.count, start + STACK_CHUNK)
            # the chunk's rows of the one stream, measured and classified as
            # one stack; _haar_draws normalizes each row, so nothing is left to
            # validate, and the report and the decision read closed-form
            # columns only, so no eigensolve is made
            table = _pure_closed_form_table(_haar_draws(rng, stop - start))
            decisions = _classify_table(table, args.tol)
            keys = decisions.labels + len(_LABELS) * decisions.ambiguous
            key_counts += np.bincount(keys, minlength=len(_KEY_CODES))
            # one template for the chunk, each row's index and code written
            # into it, so one % call formats all of the chunk's numbers
            template = "".join([f"{i}\t{_KEY_CODES[k]}\t{_REPORT_VALUES}"
                                for i, k in zip(range(start, stop), keys.tolist())])
            fh.write(template % tuple(table[:, _REPORT_COLUMNS].ravel().tolist()))
        histogram: dict[str, int] = {}
        for code, n in zip(_KEY_CODES, key_counts.tolist()):
            if n:
                histogram[code] = histogram.get(code, 0) + n
        fh.write("subtype histogram:\n")
        fh.write("".join(f"  {code}\t{histogram[code]}\n" for code in sorted(histogram)))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call.

    ``parse_args`` returns a fresh namespace on every call, so reusing
    the parser carries no option from one ``main`` call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="triqent",
        description="Entanglement measures, canonical forms and classification of three-qubit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="subtype or certified verdict of a state file")
    p.add_argument("path")
    tol_help = f"zero threshold (default {DEFAULT_ZERO_TOL:g})"
    p.add_argument("--tol", type=float, default=DEFAULT_ZERO_TOL, help=tol_help)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("measure", help="print the full measure set of a state file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("gsd", help="canonical five-coefficient form of a pure state")
    p.add_argument("path")
    p.add_argument("--mode", choices=("raw", "normal"), default="raw")
    p.set_defaults(func=_cmd_gsd)

    p = sub.add_parser("sweep", help="tabulate a parametric family to CSV")
    p.add_argument("--family", required=True, choices=SWEEPABLE)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("random", help="classify Haar-random pure states")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="state i is row i of numpy's default_rng(SEED).standard_normal((COUNT, 16)): "
                        "8 real parts, then 8 imaginary parts, normalized (default 0)")
    p.add_argument("--tol", type=float, default=DEFAULT_ZERO_TOL, help=tol_help)
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(func=_cmd_random)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a report still in the buffer meets a closed pipe here, not at exit
        return code
    except BrokenPipeError:  # the reader closed early, which ends the output
        # stdout goes to devnull, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (TriqentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
