"""The four benchmark workloads: their inputs, the timed call and the output checks.

Each workload is a closed loop with one caller.  ``job(i)`` builds the
i-th input outside the timed region, ``execute(job)`` is the timed call
into triqent, and ``check(job, out, tally)`` verifies the output with
plain numpy (never with triqent's own code) and books the outcome.

Inputs come only from the workload seed.  Call ``i`` always gets the
same input for the same seed, so a traced pass over calls ``0..K-1``
repeats the untraced pass exactly.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

cli = importlib.import_module("triqent.cli")
errors = importlib.import_module("triqent.errors")
gsd_mod = importlib.import_module("triqent.gsd")
states = importlib.import_module("triqent.states")

#: acceptance tolerance of the oracle deviations in sweep CSVs
DEV_TOL = 1e-9
#: canonical zeros and reconstruction must hold to this
GSD_TOL = 1e-10
#: independent numpy negativities must agree with triqent's to this
NEG_TOL = 1e-9
#: failing inputs listed per failure, enough to rebuild and rerun them
EXAMPLES = 5


@dataclass
class Tally:
    """Outcome counts of one pass; ``units`` are states, grid points or calls."""

    attempted: int = 0
    failed: int = 0
    ambiguous: int = 0
    wrong: int = 0
    bytes_out: int = 0
    units_by_tag: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    #: ambiguous outcomes on inputs built to have a verdict, listed like failures
    undecided: Counter = field(default_factory=Counter)
    examples: defaultdict = field(default_factory=lambda: defaultdict(list))

    def fail(self, units: int, what: str, cause: str, wrong: bool = False,
             example: str | None = None) -> None:
        """Books a failure under "what: cause"; ``example`` names the input when ``what`` does not."""
        self.failed += units
        if wrong:
            self.wrong += units
        self._book(self.failures, units, f"{what}: {cause}", example)

    def undecide(self, units: int, what: str, cause: str, example: str | None = None) -> None:
        """Books an ambiguous outcome where construction fixed the verdict, by input and cause."""
        self.ambiguous += units
        self._book(self.undecided, units, f"{what}: {cause}", example)

    def _book(self, counter: Counter, units: int, key: str, example: str | None) -> None:
        counter[key] += units
        if example is not None and len(self.examples[key]) < EXAMPLES:
            self.examples[key].append(example)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.ambiguous += other.ambiguous
        self.wrong += other.wrong
        self.bytes_out += other.bytes_out
        self.units_by_tag.update(other.units_by_tag)
        self.failures.update(other.failures)
        self.undecided.update(other.undecided)
        for key, examples in other.examples.items():
            self.examples[key] = (self.examples[key] + examples)[:EXAMPLES]


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliOutput:
    """In-process ``triqent`` call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is booked as a failed call, not a dead benchmark
            code = -1
            print(f"crash: {type(exc).__name__}: {exc}", file=err)
    return CliOutput(code, out.getvalue(), err.getvalue())


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else "(no output)"


def _haar_unitary(rng) -> np.ndarray:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def negativity_np(rho: np.ndarray, side: int) -> float:
    """Doubled negativity of the partial transpose over qubit ``side`` (0, 1, 2)."""
    t = rho.reshape((2,) * 6).swapaxes(side, side + 3).reshape(8, 8)
    w = np.linalg.eigvalsh(t)
    return float(-2.0 * w[w < 0.0].sum())


class HaarRandom:
    """``triqent random --count 200`` over Haar pure states, one call per 200 states.

    200 states per call is the batch size the project's roadmap names for
    this command.  The set-up probe is a one-state call, so that
    ``setup_s`` is import plus first state and does not repeat the
    throughput the timed loop measures.
    """

    name = "haar_random"
    unit = "state"
    pass_calls = 1
    count = 200
    codes = {"0-0", "1^1-1", "2-0", "2-1", "2-2", "2-3"}

    def __init__(self, seed: int, workdir: str):
        self.base = int(np.random.default_rng(seed).integers(1, 2**40))
        self.first_report = None

    def argv(self, i: int) -> list[str]:
        return ["random", "--count", str(self.count), "--seed", str(self.base + self.count * i)]

    def job(self, i: int):
        return ("random", self.argv(i))

    def warmup(self) -> None:
        run_cli(["random", "--count", "1", "--seed", str(self.base - 1)])

    def probe(self) -> tuple[str, list[str]]:
        return PROBE_CLI, ["random", "--count", "1", "--seed", str(self.base)]

    @staticmethod
    def execute(job) -> CliOutput:
        return run_cli(job[1])

    def check(self, job, out: CliOutput, tally: Tally) -> None:
        what = " ".join(job[1])
        tally.attempted += self.count
        tally.units_by_tag[job[0]] += self.count
        tally.bytes_out += len(out.stdout.encode())
        if out.code not in (0, 3):
            tally.fail(self.count, what, f"exit {out.code}: {_last_line(out.stderr)}")
            return
        if job[1] == self.argv(0):
            self.first_report = out.stdout
        problem, ambiguous = self.report_problem(out.stdout)
        if problem:
            tally.fail(self.count, what, problem, wrong=True)
        else:
            tally.ambiguous += ambiguous

    def report_problem(self, text: str) -> tuple[str | None, int]:
        """First defect in a ``random`` report, and the count of ``?`` verdicts."""
        lines = text.splitlines()
        if len(lines) < self.count + 2 or lines[self.count] != "subtype histogram:":
            return "malformed report", 0
        seen: Counter = Counter()
        for i, line in enumerate(lines[: self.count]):
            cells = line.split("\t")
            if len(cells) != 6 or cells[0] != str(i):
                return f"malformed line {i}", 0
            code = cells[1]
            if code.rstrip("?") not in self.codes:
                return f"unknown subtype {code!r}", 0
            seen[code] += 1
            values = {}
            for cell, key in zip(cells[2:], ("n_abc", "q_mult", "eta_mult", "three_tangle")):
                k, _, v = cell.partition("=")
                if k != key:
                    return f"line {i}: expected {key}", 0
                values[key] = float(v)
                if not 0.0 <= values[key] <= 1.0:
                    return f"line {i}: {key}={v} outside [0, 1]", 0
            if abs(values["q_mult"] - values["n_abc"] ** 2) > 1e-9:
                return f"line {i}: q_mult != n_abc^2", 0
        histogram: Counter = Counter()
        for line in lines[self.count + 1:]:
            code, _, n = line.strip().partition("\t")
            histogram[code] += int(n)
        if histogram != seen or sum(histogram.values()) != self.count:
            return "histogram does not match the report", 0
        return None, sum(n for code, n in seen.items() if code.endswith("?"))

    def recheck(self, tally: Tally) -> None:
        """The report must be byte-identical when the first call is rerun."""
        if run_cli(self.argv(0)).stdout != self.first_report:
            tally.wrong += 1
            tally.failures[f"{' '.join(self.argv(0))}: report differs on rerun"] += 1


class FamilySweep:
    """``triqent sweep`` of all five sweepable families at 101 points, CSV output.

    The grids are fixed, so the seed does not change the inputs.  A pass
    is one sweep of every family; a run always ends on a whole pass.
    """

    name = "family_sweep"
    unit = "point"
    families = ("ghz_like", "ghz_w_mix", "ghz_noise", "rho_epsilon", "sigma_b")
    pass_calls = len(families)
    points = 101

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.dev_max = 0.0

    def argv(self, family: str, points: int = points) -> list[str]:
        out = os.path.join(self.workdir, f"{family}.csv")
        return ["sweep", "--family", family, "--points", str(points), "--out", out]

    def job(self, i: int):
        family = self.families[i % len(self.families)]
        argv = self.argv(family)
        with contextlib.suppress(FileNotFoundError):
            os.remove(argv[-1])
        return (family, argv)

    def warmup(self) -> None:
        run_cli(self.argv("ghz_like", 3))

    def probe(self) -> tuple[str, list[str]]:
        return PROBE_CLI, self.argv(self.families[0])

    @staticmethod
    def execute(job) -> CliOutput:
        return run_cli(job[1])

    def check(self, job, out: CliOutput, tally: Tally) -> None:
        family, argv = job
        what = " ".join(argv[:5])
        tally.attempted += self.points
        tally.units_by_tag[family] += self.points
        path = argv[-1]
        rows = []
        if os.path.exists(path):
            tally.bytes_out += os.path.getsize(path)
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
        if out.code != 0:
            # a sweep that aborts leaves every grid point without a row
            tally.fail(self.points, what, f"exit {out.code}: {_last_line(out.stderr)}")
            return
        problem = self.csv_problem(family, rows)
        if problem:
            tally.fail(self.points, what, problem, wrong=True)
        self.dev_max = max([self.dev_max] + [self.row_dev(r) for r in rows])

    def csv_problem(self, family: str, rows: list[dict]) -> str | None:
        if len(rows) != self.points:
            return f"{len(rows)} rows for {self.points} grid points"
        params = [float(r["param"]) for r in rows]
        if any(b <= a for a, b in zip(params, params[1:])):
            return "grid parameters not increasing"
        for r in rows:
            if r["family"] != family:
                return f"row of family {r['family']!r}"
            if self.row_dev(r) > DEV_TOL:
                return f"oracle deviation {self.row_dev(r):.3e} at param {r['param']}"
        return None

    @staticmethod
    def row_dev(row: dict) -> float:
        devs = [float(v) for k, v in row.items() if k.startswith("dev_") and v != ""]
        return max(devs, default=0.0)


class MixedFiles:
    """``triqent classify FILE --json`` on Hilbert-Schmidt random mixed-state files."""

    name = "mixed_files"
    unit = "call"
    pass_calls = 1
    pool = 256

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.paths, self.matrices = [], []
        for k in range(self.pool):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            m = g @ g.conj().T
            m /= m.trace().real
            path = os.path.join(workdir, f"mixed_{k:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"kind": "mixed",
                           "matrix": [[[z.real, z.imag] for z in row] for row in m]}, fh)
            self.paths.append(path)
            self.matrices.append(m)

    def job(self, i: int):
        k = i % self.pool
        return ("classify", ["classify", self.paths[k], "--json"], k)

    def warmup(self) -> None:
        run_cli(["classify", self.paths[-1], "--json"])

    def probe(self) -> tuple[str, list[str]]:
        return PROBE_CLI, self.job(0)[1]

    @staticmethod
    def execute(job) -> CliOutput:
        return run_cli(job[1])

    def check(self, job, out: CliOutput, tally: Tally) -> None:
        tag, argv, k = job
        what = f"classify {os.path.basename(argv[1])}"
        tally.attempted += 1
        tally.units_by_tag[tag] += 1
        tally.bytes_out += len(out.stdout.encode())
        if out.code not in (0, 3):
            tally.fail(1, what, f"exit {out.code}: {_last_line(out.stderr)}")
            return
        tally.ambiguous += out.code == 3
        problem = self.verdict_problem(out.stdout, self.matrices[k])
        if problem:
            tally.fail(1, what, problem, wrong=True)

    @staticmethod
    def verdict_problem(text: str, rho: np.ndarray) -> str | None:
        try:
            data = json.loads(text)
            ms = data["measures"]
            claims = [c[0] for c in data["certificates"]]
            sides = [float(ms[k]) for k in ("n_a_bc", "n_b_ac", "n_c_ab")]
            n_abc = float(ms["n_abc"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparsable output ({exc!r})"
        if data.get("kind") != "mixed":
            return f"kind {data.get('kind')!r}"
        if not any(c.startswith("undetermined") for c in claims):
            return "no undetermined certificate"
        mean = math.prod(sides) ** (1.0 / 3.0) if min(sides) > 0.0 else 0.0
        if abs(n_abc - mean) > 1e-12:
            return f"n_abc {n_abc!r} is not the geometric mean {mean!r}"
        for side, value in enumerate(sides):
            ref = negativity_np(rho, side)
            if abs(value - ref) > NEG_TOL:
                return f"negativity of qubit {'ABC'[side]} is {value!r}, numpy gives {ref!r}"
        return None


#: canonical classes: nonzero coefficients of (alpha, beta, delta, epsilon, omega)
#: and the subtype (code, separable qubit) known from construction
CANONICAL_CLASSES = (
    ("generic", (1, 1, 1, 1, 1), ("2-3", None)),
    ("ghz_like", (1, 0, 0, 0, 1), ("2-0", None)),
    ("w", (1, 0, 1, 1, 0), ("2-3", None)),
    ("biseparable", (1, 0, 0, 1, 0), ("1^1-1", "B")),
    ("near_biseparable", (1, 0, 0, 1, 0), None),
)
#: amplitude index of each canonical coefficient: |000>, |100>, |110>, |101>, |111>
CANONICAL_INDEX = (0, 4, 6, 5, 7)


class CanonicalForm:
    """``gsd`` plus ``classify_gsd_pattern`` per state, modes alternating raw/normal.

    States are built from canonical coefficients and hidden by random
    local unitaries.  The ghz_like class hides qubit A with a diagonal
    unitary only, which keeps its pencil linear; the w class has a
    double root; near_biseparable adds an omega of 2e-9..5e-9, which
    needs the refinement step and sits inside the ambiguity decade.

    ``AmbiguousNearThresholdError`` is the classifier's "too close to
    call" outcome and is booked as ambiguous, never as failed; on a class
    built with a verdict it is also listed by input.  The double root
    locates to about the square root of machine precision, so on roughly
    a third of w inputs |beta| or |omega| lands between 1e-9 and 1e-8.
    """

    name = "canonical_form"
    unit = "call"
    pass_calls = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def hidden_state(self, i: int, stream: int = 0) -> tuple[np.ndarray, str, tuple | None]:
        rng = np.random.default_rng([self.seed, stream, i])
        cls, mask, expected = CANONICAL_CLASSES[i % len(CANONICAL_CLASSES)]
        mags = rng.uniform(0.3, 1.0, 5) * np.array(mask)
        coeffs = mags * np.exp(2j * np.pi * rng.uniform(size=5))
        coeffs /= np.linalg.norm(coeffs)
        if cls == "near_biseparable":
            coeffs[4] = rng.uniform(2e-9, 5e-9) * np.exp(2j * np.pi * rng.uniform())
            coeffs /= np.linalg.norm(coeffs)
        amps = np.zeros(8, dtype=complex)
        amps[list(CANONICAL_INDEX)] = coeffs
        if cls == "ghz_like":
            u_a = np.diag(np.exp(2j * np.pi * rng.uniform(size=2)))
        else:
            u_a = _haar_unitary(rng)
        u = np.kron(np.kron(u_a, _haar_unitary(rng)), _haar_unitary(rng))
        return u @ amps, cls, expected

    def job(self, i: int, stream: int = 0):
        amps, cls, expected = self.hidden_state(i, stream)
        return (cls, amps, "raw" if i % 2 == 0 else "normal", expected, i)

    def warmup(self) -> None:
        self.execute(self.job(0, stream=1))

    def probe(self) -> tuple[str, list[str]]:
        path = os.path.join(self.workdir, "probe_state.json")
        amps = self.hidden_state(0)[0]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[z.real, z.imag] for z in amps], fh)
        return PROBE_GSD, [path, "raw"]

    @staticmethod
    def execute(job):
        try:
            form = gsd_mod.gsd(states.PureState(job[1]), mode=job[2])
            try:
                return form, gsd_mod.classify_gsd_pattern(form)
            except errors.AmbiguousNearThresholdError as exc:
                return form, exc
        except Exception as exc:  # a crash is booked as a failed call, not a dead benchmark
            return exc

    def check(self, job, out, tally: Tally) -> None:
        cls, amps, mode, expected, i = job
        what = f"gsd {cls} ({mode}), seed {self.seed}"
        example = f"call {i}"
        tally.attempted += 1
        tally.units_by_tag[cls] += 1
        if isinstance(out, Exception):
            tally.fail(1, what, f"{type(out).__name__}: {out}", example=example)
            return
        form, pattern = out
        problem = self.form_problem(form, amps)
        if problem is None and isinstance(pattern, errors.AmbiguousNearThresholdError):
            if expected is None:
                tally.ambiguous += 1
            else:
                # the form passed its checks, but a coefficient built as 0 (the
                # W double root) or as nonzero sits within a decade of the
                # pattern threshold: "too close to call", listed by input
                tally.undecide(1, what, "AmbiguousNearThresholdError", example=example)
            return
        if problem is None and expected is not None:
            got = (pattern.subtype.code, pattern.subtype.separable_qubit)
            if got != expected:
                problem = f"subtype {got} where {expected} was built"
        if problem:
            tally.fail(1, what, problem, wrong=True, example=example)

    @staticmethod
    def form_problem(form, amps: np.ndarray) -> str | None:
        u = np.kron(np.kron(np.asarray(form.u_a), np.asarray(form.u_b)), np.asarray(form.u_c))
        out = u @ amps
        zeros = np.abs(out[[1, 2, 3]])
        if zeros.max() >= GSD_TOL:
            return f"canonical zeros {zeros.max():.3e}"
        coeffs = np.array([form.alpha, form.beta, form.delta, form.epsilon, form.omega])
        if np.abs(out[list(CANONICAL_INDEX)] - coeffs).max() >= GSD_TOL:
            return "u_a x u_b x u_c psi does not reproduce the coefficients"
        return None


#: fresh-interpreter first call of a CLI workload: argv = [src dir, triqent args...]
PROBE_CLI = """
import sys
sys.path.insert(0, sys.argv[1])
from triqent import cli
sys.exit(0 if cli.main(sys.argv[2:]) in (0, 3) else 1)
"""

#: fresh-interpreter first call of canonical_form: argv = [src dir, amplitude file, mode]
PROBE_GSD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from triqent import AmbiguousNearThresholdError, PureState, classify_gsd_pattern, gsd
with open(sys.argv[2], encoding="utf-8") as fh:
    amps = [complex(re, im) for re, im in json.load(fh)]
form = gsd(PureState(amps), mode=sys.argv[3])
try:
    classify_gsd_pattern(form)
except AmbiguousNearThresholdError:
    pass
"""

WORKLOADS = {w.name: w for w in (HaarRandom, FamilySweep, MixedFiles, CanonicalForm)}
