"""Command-line surface: invariants, sweeps, series, decompositions.

Each command is a function from a validated generator tuple and typed
fields to data, a dict or, for ``sweep``, a list of rows; it prints
nothing.  Two tables hold the whole job schema: ``COMMANDS`` maps each
command to its function and renderers, and ``_FIELDS`` maps each field to
its JSON type, option spellings and help.  A command takes the fields its
function's signature names, and needs those without a default.  ``main``
reads argv through one flag table per command derived from these, and
``batch`` checks each JSON job against them.  Each job decision has one
reader that both routes share: ``_job_fields`` reads the signature,
``_check_types`` the JSON types of a batch job's fields and ``_parse_p``
the threshold p; argv keeps its own lexer, whose errors are argv's.

Exit codes are a stable contract: 0 success, 1 internal-consistency
failure, 2 input validation error.  JSON output is canonical (fixed field
order, compact separators, no floats); values that can exceed 2**53 —
Sylvester sums, power sums, denumerants — are emitted as decimal strings.
"""

from __future__ import annotations

import functools
import json
import sys

from .core import (
    GeneratorTuple,
    InternalConsistencyError,
    ValidationError,
    _digits,
    validate_generators,
)
from .enumeration import build_psemigroup, denumerant, minimal_generators_lower_half
from .hilbert import gaps_series, hilbert_direct
from .decompose import FiniteSemigroup, irreducible_decomposition
from .report import build_invariant_report, check_components, check_denumerant, check_series

SWEEP_RANGE_LIMIT = 10**4
# The Bernoulli recurrence (once per process) and the gap_power_sums expansion
# each cost about 4x per doubling of mu; PSG_MAX_TABLE does not bound them.
# At mu = 100, (90,150,211,269) with p = 20 takes 0.10-0.15 s per process on a
# 2-vCPU Xeon VM, about 0.025 s more than at mu = 0; (3,5) at mu = 400, 1 s.
MU_LIMIT = 100


# json.dumps with non-default arguments builds a new encoder on every call
canonical_json = json.JSONEncoder(separators=(",", ":")).encode


def cmd_invariants(
    gens: GeneratorTuple, p: int = 0, mu: int = 3, verify: bool = False
) -> dict:
    """Full invariant report for one p."""
    if not 0 <= mu <= MU_LIMIT:
        raise ValidationError(f"mu must be in 0..{MU_LIMIT}, got {mu}")
    report = build_invariant_report(gens, p, mu_max=mu, verify=verify)
    report["sylvester_sum"] = str(report["sylvester_sum"])
    report["power_sums"] = {str(k): str(v) for k, v in report["power_sums"].items()}
    return report


_SWEEP_COLUMNS = (
    "p ell0 frobenius genus sylvester_sum type "
    "symmetric pseudo_symmetric completely_symmetric irreducible"
).split()


def cmd_sweep(gens: GeneratorTuple, p: range = range(1), verify: bool = False) -> list[dict]:
    """One row per p: the invariants with mu = 1, cut down to the sweep columns."""
    if len(p) > SWEEP_RANGE_LIMIT:
        raise ValidationError(f"p range longer than {SWEEP_RANGE_LIMIT}")
    rows = []
    for q in p:
        data = cmd_invariants(gens, q, 1, verify)
        data.update(data["classification"])
        rows.append({k: data[k] for k in _SWEEP_COLUMNS})
    return rows


def cmd_hilbert(
    gens: GeneratorTuple, p: int = 0, trunc: int | None = None, verify: bool = False
) -> dict:
    """Membership and gap series, truncated at trunc."""
    semigroup = build_psemigroup(gens, p)
    if trunc is None:
        trunc = 4 * (semigroup.frobenius + 1)
    member_series = hilbert_direct(semigroup, trunc)
    gap_series = gaps_series(semigroup, trunc)
    if verify:
        check_series(semigroup, member_series, gap_series)
    return {
        "gens": list(gens.elements),
        "p": p,
        "truncation": trunc,
        "hilbert": member_series.coefficients,
        "gaps_series": gap_series.coefficients,
    }


def cmd_membership(gens: GeneratorTuple, n: int, p: int = 0, verify: bool = False) -> dict:
    """Denumerant of n and whether it exceeds p."""
    count = denumerant(gens, n) if n >= 0 else 0
    if verify:
        check_denumerant(gens, n, count, p)
    return {
        "gens": list(gens.elements),
        "p": p,
        "n": n,
        "denumerant": str(count),
        "member": count > p,
    }


def cmd_denumerant(gens: GeneratorTuple, n: int, verify: bool = False) -> dict:
    """Number of representations of n."""
    count = denumerant(gens, n)
    if verify:
        check_denumerant(gens, n, count)
    return {"gens": list(gens.elements), "n": n, "denumerant": str(count)}


def cmd_decompose(gens: GeneratorTuple, p: int = 0, verify: bool = False) -> dict:
    """Irreducible intersection decomposition."""
    base = FiniteSemigroup.from_psemigroup(build_psemigroup(gens, p))
    components = irreducible_decomposition(base)
    listed = [minimal_generators_lower_half(component) for component in components]
    if verify:
        check_components(gens, p, listed, components)
    return {
        "gens": list(gens.elements),
        "p": p,
        "count": len(components),
        "components": [
            {
                "generators": generators,
                "frobenius": component.frobenius,
                "genus": component.genus,
                # every component passed the pairing check inside its completion,
                # except the full monoid, which has no gap and pairs vacuously
                "irreducible": True,
            }
            for generators, component in zip(listed, components)
        ],
    }


def _json(data: dict) -> str:
    return canonical_json(data) + "\n"


def _json_rows(rows: list[dict]) -> str:
    return "".join(map(_json, rows))


def _report_text(data: dict) -> str:
    flat = dict(data)
    classification = flat.pop("classification")
    valuation = flat.pop("valuation")
    flat["power_sums"] = " ".join(f"mu={mu}:{v}" for mu, v in flat["power_sums"].items())
    flat["class"] = ", ".join(k for k, v in classification.items() if v is True) or "none"
    if classification["midpoint"] is not None:
        side = "member" if classification["midpoint_is_member"] else "gap"
        flat["midpoint"] = f"{classification['midpoint']} ({side})"
    if valuation is not None:
        flat["valuation"] = " ".join(f"{k}={v}" for k, v in valuation.items())
    width = max(map(len, flat))
    return "".join(f"{key:<{width}}  {value}\n" for key, value in flat.items())


def _sweep_cells(rows: list[dict]) -> list[list[str]]:
    """The header and one line per row, every cell a string."""
    return [list(rows[0]), *([str(v) for v in row.values()] for row in rows)]


def _sweep_csv(rows: list[dict]) -> str:
    # Cells are ints, digit strings and bools; lowering changes only the bools.
    return "".join(",".join(line).lower() + "\n" for line in _sweep_cells(rows))


def _sweep_text(rows: list[dict]) -> str:
    lines = _sweep_cells(rows)
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join(
        "  ".join(f"{cell:>{w}}" for cell, w in zip(line, widths)) + "\n" for line in lines
    )


def _hilbert_json(data: dict) -> str:
    """``_json`` of the data with each series as a list, written from its bytes."""
    head = canonical_json({key: data[key] for key in ("gens", "p", "truncation")})
    return (
        f'{head[:-1]},"hilbert":[{_digits(data["hilbert"], b",").decode()}],'
        f'"gaps_series":[{_digits(data["gaps_series"], b",").decode()}]}}\n'
    )


def _hilbert_text(data: dict) -> str:
    return (
        f"truncation {data['truncation']}\n"
        f"hilbert      {_digits(data['hilbert']).decode()}\n"
        f"gaps_series  {_digits(data['gaps_series']).decode()}\n"
    )


def _membership_text(data: dict) -> str:
    return f"d({data['n']}) = {data['denumerant']}; member (> {data['p']}): {data['member']}\n"


def _decompose_text(data: dict) -> str:
    lines = [f"{data['count']} irreducible component(s)\n"]
    for entry in data["components"]:
        lines.append(
            f"  frobenius {entry['frobenius']:>4}  genus {entry['genus']:>4}  "
            f"<{','.join(map(str, entry['generators']))}>\n"
        )
    return "".join(lines)


# Each command's function and renderers, the default format first.
COMMANDS = {
    "invariants": (cmd_invariants, {"text": _report_text, "json": _json}),
    "sweep": (cmd_sweep, {"csv": _sweep_csv, "json": _json_rows, "text": _sweep_text}),
    "hilbert": (cmd_hilbert, {"json": _hilbert_json, "text": _hilbert_text}),
    "membership": (cmd_membership, {"text": _membership_text, "json": _json}),
    "denumerant": (cmd_denumerant, {"text": lambda d: d["denumerant"] + "\n", "json": _json}),
    "decompose": (cmd_decompose, {"text": _decompose_text, "json": _json}),
}


def _parse_p(text: str, command: str) -> int | range:
    """The one reader of p, for argv and batch alike: '5' -> 5; 'A..B' -> range(A, B + 1).

    Sweep takes the whole range, and '5' as range(5, 6); every other
    command takes one p, so a range of more than one value is refused.  A
    batch job's p, an integer, is read as its decimal text.
    """
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValidationError(f"-p expects N or A..B, got {text!r}")
    if lo < 0 or hi < lo:
        raise ValidationError(f"bad p range {text!r}")
    if command == "sweep":
        return range(lo, hi + 1)
    if lo != hi:
        raise ValidationError("this command expects a single p, not a range")
    return lo


def _parse_gens(text: str) -> GeneratorTuple:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"--gens expects comma-separated integers, got {text!r}")
    return validate_generators(values)


def _warn_non_minimal(gens: GeneratorTuple, quiet: bool) -> None:
    if not gens.minimal and not quiet:
        print(
            f"warning: {list(gens.elements)} is not a minimal generating set; "
            "results for p > 0 depend on the tuple as given",
            file=sys.stderr,
        )


# Every field a command may take: its batch JSON type, its argv spellings and
# their help.  A command takes the fields its function names, and needs those
# without a default, on argv and in batch alike.  On argv a bool field is a
# switch and an int field takes one value, but -p is read as text because
# sweep takes a range there.
_FIELDS = {
    "p": (int, ("-p", "--p"), "threshold: N, or A..B for sweep"),
    "n": (int, ("-n",), "the integer n"),
    "mu": (int, ("--mu",), f"largest power-sum exponent, 0..{MU_LIMIT}"),
    "trunc": (int, ("--trunc",), "truncation (default 4*(frobenius+1))"),
    "verify": (bool, ("--verify",), "run the independent oracles too and exit 1 on any mismatch"),
}


def _check_types(fields: dict) -> None:
    """The one type check of a batch job's fields, run on every job.

    It rejects the first field, in ``_FIELDS`` order, whose JSON type is
    wrong, whatever the order of the job's keys; unknown keys pass here.
    """
    for key, (kind, _, _) in _FIELDS.items():
        if key in fields and type(fields[key]) is not kind:
            name = "an integer" if kind is int else "true or false"
            raise ValidationError(f"batch job field {key!r} must be {name}, got {fields[key]!r}")


@functools.cache
def _job_fields(command: str) -> tuple[frozenset[str], tuple[str, ...]]:
    """The one reader of a command's signature: the fields a job may give, and those it must.

    Argv and batch both read it.  The names come off the code object of the
    command's function, whose positional parameters come first in
    ``co_varnames``; ``gens`` leads them and is left out, because every job
    gives it and it is checked first, and the defaults belong to the last.
    """
    function = COMMANDS[command][0]
    code = function.__code__
    names = code.co_varnames[1 : code.co_argcount]
    return frozenset(names), names[: len(names) - len(function.__defaults__ or ())]


def _parse_job(line: str) -> tuple[str, GeneratorTuple, dict]:
    """The command, generators and fields of one batch line, or ValidationError."""
    try:
        job = json.loads(line)
    except ValueError as exc:  # not JSON, or an integer too long to convert
        raise ValidationError(str(exc))
    except RecursionError:
        raise ValidationError("batch job is nested too deeply to parse")
    if not isinstance(job, dict):
        raise ValidationError("batch job must be a JSON object")
    command = job.pop("command", "invariants")
    if not isinstance(command, str) or command not in COMMANDS:
        raise ValidationError(f"unknown batch command {command!r}")
    if not isinstance(job.get("gens"), list):
        raise ValidationError("batch job needs a 'gens' list")
    gens = validate_generators(job.pop("gens"))
    _check_types(job)
    takes, needs = _job_fields(command)
    if not takes.issuperset(job):
        untaken = sorted(job.keys() - takes)
        raise ValidationError(f"batch command {command!r} does not take {untaken}")
    missing = [key for key in needs if key not in job]
    if missing:
        raise ValidationError(f"batch command {command!r} needs {missing}")
    if "p" in job:
        job["p"] = _parse_p(str(job["p"]), command)
    return command, gens, job


def _answer(command: str, gens: GeneratorTuple, fields: dict, fmt: str = "json") -> str:
    """One command run on validated input, rendered: the dispatch of argv and batch."""
    function, renderers = COMMANDS[command]
    return renderers[fmt](function(gens, **fields))


def cmd_batch(jobs: str) -> int:
    """JSON-lines jobs from a file or '-': one line out per job, its JSON or its error."""
    if jobs == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(jobs, "rb") as handle:
            data = handle.read()
    # one decode for both routes: a byte that is not UTF-8 fails its line's JSON parse
    lines = data.decode("utf-8", "surrogateescape").splitlines()
    failures = set()
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            out = _answer(*_parse_job(line))
        except ValidationError as exc:
            failures.add(2)
            out = _json({"error": str(exc), "exit": 2, "line": number})
        except InternalConsistencyError as exc:
            failures.add(1)
            out = _json({"error": str(exc), "exit": 1, "line": number})
        sys.stdout.write(out)
    return min(failures, default=0)  # exit 1 outranks exit 2


@functools.cache
def _argv_table(command: str) -> tuple[dict, list[str], str]:
    """The argv flags of one command, its required flags and its help text.

    Each flag maps to the field it sets and how: ``int`` or ``str`` reads one
    value, anything else is the constant a switch stores.  The fields are
    those a batch job takes, so argv and batch agree by construction.
    """
    function, renderers = COMMANDS[command]
    takes, needs = _job_fields(command)
    options = [
        (("--gens",), "gens", str, "comma-separated generators"),
        *(
            (flags, key, True if kind is bool else str if key == "p" else kind, text)
            for key, (kind, flags, text) in _FIELDS.items()
            if key in takes
        ),
        *(((f"--{key}",), "format", key, f"{key} output") for key in renderers),
        (("--quiet",), "quiet", True, "suppress warnings"),
    ]
    table = {flag: (key, how) for flags, key, how, _ in options for flag in flags}
    required = ["--gens", *(_FIELDS[key][1][0] for key in needs)]
    usage = " ".join(f"{flag} {table[flag][0].upper()}" for flag in required)
    text = f"usage: psg {command} {usage} [options]\n{function.__doc__.splitlines()[0]}\n"
    text += "".join(f"  {', '.join(flags):<9} {line}\n" for flags, _, _, line in options)
    return table, required, text


def _parse_argv(command: str, args: list[str]) -> dict | None:
    """The fields of one argv job by the flag table, or None for ``-h``.

    A value follows its flag as the next word or after ``=``, or right
    after a short flag (``-p5``); the last repeat of an option wins.  A word
    that is no flag of the command, a missing value, a switch given a value,
    a non-integer value and a second format raise ValidationError.
    """
    table, required, _ = _argv_table(command)
    fields = {}
    words = iter(args)
    for word in words:
        flag, eq, value = word.partition("=")
        if flag not in table and word[:2] in table:  # a short flag and its value
            flag, eq, value = word[:2], "=", word[2:]
        if flag in ("-h", "--help") and not eq:
            return None
        if flag not in table:
            raise ValidationError(f"unrecognized argument {word!r}")
        key, how = table[flag]
        if how is int or how is str:
            if not eq:
                value = next(words, "-")
                if value[:1] == "-" and not value[1:].isdigit():  # a flag, or nothing
                    raise ValidationError(f"argument {flag}: expected one argument")
            if how is int:
                try:
                    value = int(value)
                except ValueError:
                    raise ValidationError(f"argument {flag}: invalid int value: {value!r}")
        elif eq:
            raise ValidationError(f"argument {flag}: ignored explicit argument {value!r}")
        else:
            if fields.get(key, how) != how:  # only formats differ
                raise ValidationError(f"argument {flag}: not allowed with argument --{fields[key]}")
            value = how
        fields[key] = value
    missing = [flag for flag in required if table[flag][0] not in fields]
    if missing:
        raise ValidationError(f"the following arguments are required: {', '.join(missing)}")
    return fields


def _usage() -> str:
    """Each command with the first line of its function's docstring."""
    entries = [*COMMANDS.items(), ("batch", (cmd_batch, {}))]
    return "usage: psg COMMAND [-h] ... | psg batch FILE|-\n" + "".join(
        f"  {name:<11} {function.__doc__.splitlines()[0]}\n" for name, (function, _) in entries
    )


def main(argv=None) -> int:
    command, *args = (sys.argv[1:] if argv is None else argv) or [""]
    try:
        if command == "batch" and len(args) == 1:
            return cmd_batch(*args)
        if command not in COMMANDS:
            helped = command in ("-h", "--help")
            print(_usage(), end="", file=sys.stdout if helped else sys.stderr)
            return 0 if helped else 2
        fields = _parse_argv(command, args)
        if fields is None:
            sys.stdout.write(_argv_table(command)[2])
            return 0
        fmt = fields.pop("format", next(iter(COMMANDS[command][1])))
        gens = _parse_gens(fields.pop("gens"))
        _warn_non_minimal(gens, fields.pop("quiet", False))
        if "p" in fields:
            fields["p"] = _parse_p(fields["p"], command)
        sys.stdout.write(_answer(command, gens, fields, fmt))
        return 0
    except (ValidationError, OSError) as exc:  # OSError: a batch file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
