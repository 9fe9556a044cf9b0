"""Command-line surface: invariants, sweeps, series, decompositions.

Exit codes are a stable contract: 0 success, 1 internal-consistency
failure, 2 input validation error.  JSON output is canonical (fixed field
order, compact separators, no floats); values that can exceed 2**53 —
Sylvester sums, power sums, denumerants — are emitted as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Callable

from .core import (
    GeneratorTuple,
    InternalConsistencyError,
    ValidationError,
    validate_generators,
)
from .enumeration import (
    build_psemigroup,
    denumerant_oracle,
    denumerant_table,
    membership_oracle,
    minimal_generators_scan,
)
from .apery import apery_set
from .closed_forms import two_var_membership
from .hilbert import gaps_series, hilbert_direct, hilbert_from_apery
from .decompose import (
    FiniteSemigroup,
    intersect,
    irreducible_decomposition,
    is_irreducible_classic,
    verify_decomposition,
)
from .report import InvariantReport, build_invariant_report

SWEEP_RANGE_LIMIT = 10**4


def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def _parse_gens(text: str) -> GeneratorTuple:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(f"--gens expects comma-separated integers, got {text!r}")
    return validate_generators(values)


def _parse_p(text: str) -> tuple[int, int]:
    """'5' -> (5, 5); '0..5' -> (0, 5)."""
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
    return lo, hi


def _single_p(args) -> int:
    lo, hi = _parse_p(args.p)
    if lo != hi:
        raise ValidationError("this command expects a single p, not a range")
    return lo


def _warn_non_minimal(gens: GeneratorTuple, quiet: bool) -> None:
    if gens.minimality_checked and not gens.minimal and not quiet:
        print(
            f"warning: {list(gens.elements)} is not a minimal generating set; "
            "results for p > 0 depend on the tuple as given",
            file=sys.stderr,
        )


def _format_choice(args) -> str:
    if getattr(args, "json", False):
        return "json"
    if getattr(args, "csv", False):
        return "csv"
    if getattr(args, "text", False):
        return "text"
    return args.default_format


def _big(value: int) -> str:
    return str(value)


def _report_dict(report: InvariantReport) -> dict:
    cls = report.classification
    valuation = None
    if cls.valuation is not None:
        d1, d2, d3 = cls.valuation
        valuation = {"d1": d1, "d2": d2, "d3": d3}
    return {
        "gens": list(report.gens.elements),
        "gens_minimal": report.gens.minimal,
        "p": report.p,
        "ell0": report.least_element,
        "frobenius": report.frobenius,
        "genus": report.genus,
        "sylvester_sum": _big(report.sylvester_sum),
        "power_sums": {str(mu): _big(v) for mu, v in report.power_sums},
        "apery": list(report.apery.by_residue),
        "pf": list(cls.pseudo_frobenius_numbers),
        "type": cls.type_number,
        "classification": {
            "symmetric": cls.symmetric,
            "pseudo_symmetric": cls.pseudo_symmetric,
            "completely_symmetric": cls.completely_symmetric,
            "irreducible": cls.irreducible,
            "midpoint": cls.midpoint,
            "midpoint_is_member": cls.midpoint_is_member,
        },
        "valuation": valuation,
        "embedding_dimension": report.embedding_dimension,
    }


def _print_report_text(data: dict) -> None:
    flat = dict(data)
    classification = flat.pop("classification")
    valuation = flat.pop("valuation")
    flat["power_sums"] = " ".join(
        f"mu={mu}:{v}" for mu, v in flat["power_sums"].items()
    )
    width = max(len(k) for k in flat)
    for key, value in flat.items():
        print(f"{key:<{width}}  {value}")
    flags = ", ".join(k for k, v in classification.items() if v is True) or "none"
    print(f"{'class':<{width}}  {flags}")
    if classification["midpoint"] is not None:
        side = "member" if classification["midpoint_is_member"] else "gap"
        print(f"{'midpoint':<{width}}  {classification['midpoint']} ({side})")
    if valuation is not None:
        print(
            f"{'valuation':<{width}}  d1={valuation['d1']} d2={valuation['d2']} "
            f"d3={valuation['d3']}"
        )


def cmd_invariants(args) -> int:
    gens = _parse_gens(args.gens)
    _warn_non_minimal(gens, args.quiet)
    p = _single_p(args)
    report = build_invariant_report(gens, p, mu_max=args.mu, verify=args.verify)
    data = _report_dict(report)
    if _format_choice(args) == "json":
        print(canonical_json(data))
    else:
        _print_report_text(data)
    return 0


_SWEEP_FIELDS = [
    "p",
    "ell0",
    "frobenius",
    "genus",
    "sylvester_sum",
    "type",
    "symmetric",
    "pseudo_symmetric",
    "completely_symmetric",
    "irreducible",
]


def _sweep_row(gens: GeneratorTuple, p: int, verify: bool) -> dict:
    report = build_invariant_report(gens, p, mu_max=1, verify=verify)
    cls = report.classification
    return {
        "p": p,
        "ell0": report.least_element,
        "frobenius": report.frobenius,
        "genus": report.genus,
        "sylvester_sum": _big(report.sylvester_sum),
        "type": cls.type_number,
        "symmetric": cls.symmetric,
        "pseudo_symmetric": cls.pseudo_symmetric,
        "completely_symmetric": cls.completely_symmetric,
        "irreducible": cls.irreducible,
    }


def cmd_sweep(args) -> int:
    gens = _parse_gens(args.gens)
    _warn_non_minimal(gens, args.quiet)
    lo, hi = _parse_p(args.p)
    if hi - lo + 1 > SWEEP_RANGE_LIMIT:
        raise ValidationError(f"p range longer than {SWEEP_RANGE_LIMIT}")
    rows = [_sweep_row(gens, p, args.verify) for p in range(lo, hi + 1)]
    fmt = _format_choice(args)
    if fmt == "json":
        for row in rows:
            print(canonical_json(row))
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=_SWEEP_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    k: (str(v).lower() if isinstance(v, bool) else v)
                    for k, v in row.items()
                }
            )
        sys.stdout.write(buffer.getvalue())
    else:
        widths = {
            name: max(len(name), *(len(str(row[name])) for row in rows))
            for name in _SWEEP_FIELDS
        }
        print("  ".join(f"{name:>{widths[name]}}" for name in _SWEEP_FIELDS))
        for row in rows:
            print(
                "  ".join(f"{str(row[name]):>{widths[name]}}" for name in _SWEEP_FIELDS)
            )
    return 0


def cmd_hilbert(args) -> int:
    gens = _parse_gens(args.gens)
    _warn_non_minimal(gens, args.quiet)
    p = _single_p(args)
    semigroup = build_psemigroup(gens, p)
    trunc = args.trunc
    if trunc is None:
        trunc = 4 * (semigroup.frobenius + 1)
    member_series = hilbert_direct(semigroup, trunc)
    gap_series = gaps_series(semigroup, trunc)
    if args.verify:
        if membership_oracle(gens, p, semigroup.frontier) != semigroup.membership:
            raise InternalConsistencyError("count table disagrees with the Apery tuple")
        from_apery = hilbert_from_apery(apery_set(semigroup), trunc)
        if from_apery != member_series:
            raise InternalConsistencyError("Apery Hilbert series != direct series")
        if any(
            a + b != 1
            for a, b in zip(member_series.coefficients, gap_series.coefficients)
        ):
            raise InternalConsistencyError("H + Psi is not the all-ones series")
    data = {
        "gens": list(gens.elements),
        "p": p,
        "truncation": trunc,
        "hilbert": list(member_series.coefficients),
        "gaps_series": list(gap_series.coefficients),
    }
    if _format_choice(args) == "json":
        print(canonical_json(data))
    else:
        print(f"truncation {trunc}")
        print("hilbert     ", "".join(str(c) for c in member_series.coefficients))
        print("gaps_series ", "".join(str(c) for c in gap_series.coefficients))
    return 0


def cmd_membership(args) -> int:
    gens = _parse_gens(args.gens)
    _warn_non_minimal(gens, args.quiet)
    p = _single_p(args)
    n = args.n
    count = denumerant_table(gens, max(n, 0)).counts[n] if n >= 0 else 0
    member = count > p
    if args.verify:
        if n >= 0 and denumerant_oracle(gens, n) != count:
            raise InternalConsistencyError("denumerant oracle disagrees with table")
        elements = gens.elements
        if len(elements) == 2:
            if two_var_membership(n, elements[0], elements[1], p) != member:
                raise InternalConsistencyError(
                    "standard-form membership disagrees with denumerant threshold"
                )
    data = {
        "gens": list(gens.elements),
        "p": p,
        "n": n,
        "denumerant": _big(count),
        "member": member,
    }
    if _format_choice(args) == "json":
        print(canonical_json(data))
    else:
        print(f"d({n}) = {count}; member (> {p}): {member}")
    return 0


def cmd_denumerant(args) -> int:
    gens = _parse_gens(args.gens)
    _warn_non_minimal(gens, args.quiet)
    n = args.n
    if n < 0:
        raise ValidationError("n must be non-negative")
    count = denumerant_table(gens, n).counts[n]
    if args.verify and denumerant_oracle(gens, n) != count:
        raise InternalConsistencyError("denumerant oracle disagrees with table")
    data = {"gens": list(gens.elements), "n": n, "denumerant": _big(count)}
    if _format_choice(args) == "json":
        print(canonical_json(data))
    else:
        print(count)
    return 0


def cmd_decompose(args) -> int:
    gens = _parse_gens(args.gens)
    _warn_non_minimal(gens, args.quiet)
    p = _single_p(args)
    base = FiniteSemigroup.from_psemigroup(build_psemigroup(gens, p))
    components = irreducible_decomposition(base)
    if intersect(components) != base:
        raise InternalConsistencyError("decomposition intersection mismatch")
    if args.verify and not verify_decomposition(base, components):
        raise InternalConsistencyError("decomposition failed the validity checker")
    payload = []
    for component in components:
        payload.append(
            {
                "generators": minimal_generators_scan(component),
                "frobenius": component.frobenius,
                "genus": component.genus,
                "irreducible": is_irreducible_classic(component),
            }
        )
    data = {
        "gens": list(gens.elements),
        "p": p,
        "count": len(components),
        "components": payload,
    }
    if _format_choice(args) == "json":
        print(canonical_json(data))
    else:
        print(f"{len(components)} irreducible component(s)")
        for entry in payload:
            print(
                f"  frobenius {entry['frobenius']:>4}  genus {entry['genus']:>4}  "
                f"<{','.join(str(g) for g in entry['generators'])}>"
            )
    return 0


_BATCH_COMMANDS = {
    "invariants": cmd_invariants,
    "sweep": cmd_sweep,
    "hilbert": cmd_hilbert,
    "membership": cmd_membership,
    "denumerant": cmd_denumerant,
    "decompose": cmd_decompose,
}


def cmd_batch(args) -> int:
    if args.jobs == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.jobs, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    saw_validation = saw_internal = False
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            handler, namespace = _parse_job(line)
            handler(namespace)
        except (ValidationError, json.JSONDecodeError) as exc:
            print(canonical_json({"error": str(exc), "exit": 2, "line": number}))
            saw_validation = True
        except InternalConsistencyError as exc:
            print(canonical_json({"error": str(exc), "exit": 1, "line": number}))
            saw_internal = True
    if saw_internal:
        return 1
    return 2 if saw_validation else 0


# Integer job fields and their defaults; None means "use the command's default".
_INT_FIELDS = {"n": 0, "mu": 3, "trunc": None}


def _parse_job(line: str) -> tuple[Callable[[argparse.Namespace], int], argparse.Namespace]:
    """The handler and argument namespace for one batch line, or ValidationError."""
    job = json.loads(line)
    if not isinstance(job, dict):
        raise ValidationError("batch job must be a JSON object")
    command = job.get("command", "invariants")
    handler = _BATCH_COMMANDS.get(command) if isinstance(command, str) else None
    if handler is None:
        raise ValidationError(f"unknown batch command {command!r}")
    return handler, _job_namespace(job)


def _job_namespace(job: dict) -> argparse.Namespace:
    gens = job.get("gens")
    if not isinstance(gens, list):
        raise ValidationError("batch job needs a 'gens' list")
    ints = {}
    for key, default in _INT_FIELDS.items():
        value = job.get(key, default)
        if value is not default and type(value) is not int:
            raise ValidationError(f"batch job field {key!r} must be an integer, got {value!r}")
        ints[key] = value
    p_value = job.get("p", 0)
    return argparse.Namespace(
        gens=",".join(str(g) for g in gens),
        p=str(p_value),
        **ints,
        verify=bool(job.get("verify", False)),
        quiet=True,
        json=True,
        csv=False,
        text=False,
        default_format="json",
    )


def _add_common(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--gens", required=True, help="comma-separated generators")
    parser.add_argument("-p", "--p", default="0", help="threshold: N or A..B")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    fmt.add_argument("--text", action="store_true", help="aligned text output")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="re-derive closed-form results by enumeration and fail on mismatch",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress warnings")
    parser.set_defaults(default_format=default_format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psg",
        description="Exact invariants of numerical semigroups filtered by "
        "representation count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="full invariant report for one p")
    _add_common(inv, "text")
    inv.add_argument("--mu", type=int, default=3, help="largest power-sum exponent")
    inv.set_defaults(func=cmd_invariants)

    sweep = sub.add_parser("sweep", help="one row per p over a range")
    _add_common(sweep, "csv")
    sweep.set_defaults(func=cmd_sweep)

    hil = sub.add_parser("hilbert", help="membership and gap series")
    _add_common(hil, "json")
    hil.add_argument(
        "--trunc",
        type=int,
        default=None,
        help="series truncation (default 4*(frobenius+1))",
    )
    hil.set_defaults(func=cmd_hilbert)

    mem = sub.add_parser("membership", help="denumerant and threshold verdict")
    _add_common(mem, "text")
    mem.add_argument("-n", type=int, required=True, help="integer to test")
    mem.set_defaults(func=cmd_membership)

    den = sub.add_parser("denumerant", help="number of representations")
    _add_common(den, "text")
    den.add_argument("-n", type=int, required=True, help="integer to count")
    den.set_defaults(func=cmd_denumerant)

    dec = sub.add_parser("decompose", help="irreducible intersection decomposition")
    _add_common(dec, "text")
    dec.set_defaults(func=cmd_decompose)

    batch = sub.add_parser("batch", help="JSON-lines jobs from a file or '-'")
    batch.add_argument("jobs", help="path to JSON-lines job file, or '-' for stdin")
    batch.set_defaults(func=cmd_batch)

    return parser


# One parser per process, built on the first call so importing stays cheap.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
