"""Command-line entry point.

Subcommands: build, analyze, constant, recipe, ito, timechange, selftest.
Artifacts are JSON (machine interchange: paths, tables, constants, checks)
or CSV (plotting interchange: the variation profiles of ``analyze`` and
``recipe --profile-csv``).  A path is always a path document, and so is the
change-of-variable residual that ``ito`` writes: it is a function on the
path's own grid, so ``analyze`` reads it like any path.  Every run records
the fully resolved configuration and its hash, either inside the JSON
artifact or in a sibling ``<output>.manifest.json`` (``analyze`` and
``ito``).  File locations are left out of the configuration; each file read
is recorded by the digest of its bytes instead.  Identical arguments and
inputs produce byte-identical artifacts wherever they are written: the only
randomness is the named seed (default 0) and nothing is time-based.  JSON
and CSV outputs are streamed to their files, never assembled as one string
first: a JSON document piece by piece, each number array base64-encoded
slice by slice as it is written, and a CSV block by block in the writing
process (see ``serialize``).  A command writes all its outputs or, if any
write fails, none of them.
The argument parser is built once per process, on the first ``run``.

Exit codes: 0 success, 2 validation/usage/I-O error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance, serialize
from .calculus import FunctionWithDerivatives, change_of_variable_residual
from .construct import (
    TARGET_DENSITIES,
    UniformMagnitudeSpec,
    recipe,
    reference_path,
)
from .errors import BudgetError, ValidationError
from .oracle import variation_constant
from .partition import power_table, qadic_table, random_refining_table
from .schauder import SampledPath
from .timechange import HPRIME_RULE, pullback_path, transported_pvar_check, transported_recipe
from .variation import DEFAULT_EVAL_LEVEL, pvar_profile


def _write_all(outputs) -> None:
    """Write each ``(path, content)`` output in turn: ``content`` is a JSON
    document, or a function that writes to the open binary stream.  If any step
    fails, the files already created are removed, so a failed command
    leaves none of its outputs behind."""
    created = []
    try:
        for path, content in outputs:
            with open(path, "wb") as stream:
                created.append(path)
                if callable(content):
                    content(stream)
                else:
                    serialize.write_json(content, stream)
    except BaseException:
        for path in created:
            Path(path).unlink(missing_ok=True)
        raise


# Arguments naming files: where a run reads or writes does not change what
# it computes, so they stay out of the recorded configuration.
_FILE_ARGS = frozenset({"output", "input", "path", "table", "table_out", "profile_csv"})


def _manifest(args: argparse.Namespace, extra: dict | None = None) -> dict:
    """The run's configuration and its hash.  A flag the command does not use
    is recorded too, so a non-finite one (``timechange --mode pullback --p
    nan``) is refused here rather than written as NaN."""
    config = {k: v for k, v in sorted(vars(args).items())
              if k != "func" and k not in _FILE_ARGS}
    if extra:
        config.update(extra)
    for key, value in config.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{key} must be finite to be recorded, got {value}")
    return {"config": config, "config_hash": serialize.config_hash(config)}


def _numbers(text: str, flag: str) -> tuple:
    """The comma-separated numbers given to ``flag``, which names an empty or
    bad item; the manifest records the flag's text."""
    values = []
    for item in text.split(","):
        try:
            values.append(float(item))
        except ValueError:
            shown = item if item.strip() else repr(item)   # an empty item would vanish
            raise ValidationError(f"{flag} takes comma-separated numbers, got {shown}") from None
    return tuple(values)


def _weights_from_args(args: argparse.Namespace):
    return None if args.a is None else _numbers(args.a, "--a")


def _spec_from_args(args: argparse.Namespace) -> UniformMagnitudeSpec:
    signs = "plus" if args.signs == "plus" else int(args.seed)
    return UniformMagnitudeSpec(q=args.q, p=args.p, signs=signs, a=_weights_from_args(args))


def _target_from_args(args: argparse.Namespace):
    """The density and the target variation of ``--target`` at ``--rate``,
    as functions of t.  Each density is monotone in t, so its values at
    t = 0 and t = 1 bound it on [0, 1]; a rate that makes either the density
    or the target non-finite there, or the density negative, is refused."""
    hprime, h = TARGET_DENSITIES[args.target]
    ends = np.array([0.0, 1.0])
    with np.errstate(all="ignore"):
        dens, target = hprime(ends, args.rate), h(ends, args.rate)
    if not (np.all(np.isfinite(dens)) and np.all(np.isfinite(target)) and np.all(dens >= 0)):
        raise ValidationError(
            f"--rate {args.rate:g} is out of range for --target {args.target}: on [0, 1] its "
            "density must be finite and nonnegative, and its target variation finite")
    return (lambda t: hprime(t, args.rate)), (lambda t: h(t, args.rate))


def _trend_verdict(trend) -> str | None:
    """The recipe's multiplier-trend verdict as the manifest records it, or
    None below level 4.  The slope stays out: a constant multiplier has
    slope -inf, which a manifest cannot hold."""
    return None if trend is None else trend.trend


def _load(path: str, from_dict):
    """The object ``from_dict`` builds from the JSON document at ``path``, and
    the first 16 hex digits of the sha256 of the file's bytes (for a
    canonical artifact, equal to ``config_hash`` of the document).

    The bytes are read, hashed and then decoded by ``serialize.read_json``
    straight from them, so no array's text becomes a ``str``.  The bytes are
    released before the object is built, and the parsed document as soon as
    it is built, so a large artifact is not held twice over.  A file that
    cannot be read, or a document that is not JSON or is nested too deep to
    parse, is refused with one line."""
    try:
        raw = Path(path).read_bytes()
        digest = hashlib.sha256(raw).hexdigest()[:16]
        doc = serialize.read_json(raw)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    del raw
    return from_dict(doc), digest


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_build(args) -> int:
    spec = _spec_from_args(args)
    path = reference_path(spec, args.levels)
    doc = serialize.path_to_dict(path)
    doc["manifest"] = _manifest(args)
    _write_all([(args.output, doc)])
    return 0


def _cmd_analyze(args) -> int:
    path, input_hash = _load(args.input, serialize.path_from_dict)
    if args.q is not None and args.q != path.q:
        raise ValidationError(f"artifact has q={path.q}, requested q={args.q}")
    levels = args.levels if args.levels is not None else path.level
    if not 0 <= levels <= path.level:
        raise ValidationError(
            f"artifact holds level {path.level} samples, --levels must lie in "
            f"[0, {path.level}], got {levels}"
        )
    profiles = [
        pvar_profile(path.restrict(n), args.p, eval_level=args.eval_level)
        for n in range(levels + 1)
    ]
    _write_all([
        (args.output, lambda stream: serialize.write_profiles_csv(profiles, stream)),
        (args.output + ".manifest.json", _manifest(args, {"input_hash": input_hash})),
    ])
    return 0


def _cmd_constant(args) -> int:
    report = variation_constant(
        args.p, args.q, _weights_from_args(args), method=args.method, J=args.J, N=args.N,
        seed=args.seed, tol=args.tol,
    )
    doc = serialize.constant_to_dict(report)
    doc["manifest"] = _manifest(args)
    if args.output:
        _write_all([(args.output, doc)])
    else:
        sys.stdout.write(serialize.canonical_dumps(doc))
    return 0


def _cmd_recipe(args) -> int:
    spec = _spec_from_args(args)
    hprime, h = _target_from_args(args)
    result = recipe(hprime, spec, args.levels)
    prof = pvar_profile(result.y, args.p, eval_level=args.eval_level)
    target_vals = h(prof.eval_points)
    gap = float(np.max(np.abs(prof.values - target_vals)))
    doc = serialize.path_to_dict(result.y)
    doc["manifest"] = _manifest(args, {
        "constant": result.constant.value,
        "target_sup_gap": gap,
        "multiplier_trend": _trend_verdict(result.multiplier_trend),
    })
    outputs = [(args.output, doc)]
    if args.profile_csv:
        outputs.append((args.profile_csv,
                        lambda stream: serialize.write_profiles_csv([prof], stream)))
    _write_all(outputs)
    return 0


def _cmd_ito(args) -> int:
    f = FunctionWithDerivatives.polynomial(_numbers(args.f, "--f"))
    path, input_hash = _load(args.input, serialize.path_from_dict)
    if args.level is not None:
        if args.level > path.level:
            raise ValidationError(
                f"artifact holds level {path.level}, cannot evaluate at level {args.level}"
            )
        path = path.restrict(args.level)
    report = change_of_variable_residual(f, path, args.p)
    residual = SampledPath(grid=path.grid, values=report.residuals)
    _write_all([
        (args.output, serialize.path_to_dict(residual)),
        (args.output + ".manifest.json",
         _manifest(args, {"sup_residual": report.sup, "input_hash": input_hash})),
    ])
    return 0


def _cmd_timechange(args) -> int:
    if args.mode in ("check", "pullback") and not args.path:
        raise ValidationError(f"--mode {args.mode} needs --path")
    if args.table and args.table_out:
        raise ValidationError("--table-out persists a generated table; it cannot go with --table")
    inputs, outputs = {}, []
    if args.table:
        table, inputs["table_hash"] = _load(args.table, serialize.table_from_dict)
    else:
        makers = {
            "qadic": lambda: qadic_table(args.q, args.levels),
            "power": lambda: power_table(args.q, args.levels, args.exponent),
            "random": lambda: random_refining_table(args.q, args.levels, seed=args.seed),
        }
        table = makers[args.make_table]()
        if args.table_out:
            outputs.append((args.table_out, serialize.table_to_dict(table)))

    if args.mode in ("check", "pullback"):
        src, inputs["path_hash"] = _load(args.path, serialize.path_from_dict)
        if args.mode == "check":
            doc = {"identity_gap": transported_pvar_check(src, table, args.p)}
        else:
            doc = serialize.path_to_dict(pullback_path(src, table))
        doc["manifest"] = _manifest(args, inputs)
        _write_all(outputs + [(args.output, doc)])
        return 0
    # mode == "recipe"
    spec = _spec_from_args(args)
    _, h = _target_from_args(args)
    result = transported_recipe(h, spec, table, args.levels)
    doc = serialize.path_to_dict(result.y)
    doc["manifest"] = _manifest(args, {
        "target_sup_gap": result.sup_gap,
        "multiplier_trend": _trend_verdict(result.qadic.multiplier_trend),
        "hprime_rule": HPRIME_RULE,
        **inputs,
    })
    _write_all(outputs + [(args.output, doc)])
    return 0


def _criteria(text: str) -> list:
    """``--criteria``: comma-separated criterion indices, each in 1..N."""
    total = len(acceptance.ALL_CRITERIA)
    indices = []
    for item in text.split(","):
        try:
            index = int(item)
        except ValueError:
            index = 0
        if not 1 <= index <= total:
            shown = item if item.strip() else repr(item)   # an empty item would vanish
            raise argparse.ArgumentTypeError(
                f"criterion index must be in 1..{total}, got {shown}")
        indices.append(index)
    return indices


def _cmd_selftest(args) -> int:
    results = acceptance.run_all(args.criteria)
    n_pass = sum(r.passed for r in results)
    if args.json:
        for r in results:
            sys.stdout.write(serialize.canonical_dumps(dataclasses.asdict(r)))
        sys.stdout.write(serialize.canonical_dumps({"passed": n_pass, "total": len(results)}))
    else:
        for r in results:
            print(r.line())
        print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    """The flags ``constant`` shares with the commands that build a spec."""
    p.add_argument("--q", type=int, default=2, help="branching factor (default 2)")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")
    p.add_argument("--a", type=str, default=None,
                   help="comma-separated branch weights (default all ones)")


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    _add_oracle_flags(p)
    p.add_argument("--p", type=float, default=2.0, help="variation exponent (default 2)")
    p.add_argument("--levels", type=int, default=16, help="grid level")
    p.add_argument("--signs", choices=("plus", "random"), default="plus",
                   help="dyadic coefficient signs")


def _add_target_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", choices=tuple(TARGET_DENSITIES), default="linear",
                   help="target variation h(t) (default linear)")
    p.add_argument("--rate", type=float, default=1.0, help="target growth parameter")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one line, like every other
    error, instead of the usage block; its subparsers are of this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared parser of every ``run`` in this process, built on the first
    call.  It holds no per-call state: ``parse_args`` returns a fresh
    namespace, and no argument appends to a default."""
    parser = _Parser(
        prog="pvarpath",
        description="Paths with prescribed p-th variation along refining partitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="synthesize a reference path artifact")
    _add_spec_flags(b)
    b.add_argument("-o", "--output", required=True, help="output path JSON")
    b.set_defaults(func=_cmd_build)

    a = sub.add_parser("analyze", help="per-level variation profiles of a path artifact")
    a.add_argument("input", help="path JSON artifact")
    a.add_argument("--p", type=float, default=2.0, help="variation exponent (default 2)")
    a.add_argument("--q", type=int, default=None, help="expected q (validated against artifact)")
    a.add_argument("--levels", type=int, default=None, help="finest level to profile")
    a.add_argument("--eval-level", type=int, default=DEFAULT_EVAL_LEVEL,
                   help="profile evaluation subgrid level")
    a.add_argument("-o", "--output", required=True, help="output profile CSV")
    a.set_defaults(func=_cmd_analyze)

    c = sub.add_parser("constant", help="limiting variation constant by one of three oracles")
    _add_oracle_flags(c)
    c.add_argument("--p", type=float, required=True, help="variation exponent")
    c.add_argument("--method", choices=("exact", "mc", "closed"), default="exact",
                   help="exact enumeration, Monte Carlo or closed form (default exact)")
    c.add_argument("--J", type=int, default=None, help="enumeration truncation depth")
    c.add_argument("--N", type=int, default=10 ** 6, help="monte-carlo sample count")
    c.add_argument("--tol", type=float, default=1e-6, help="target truncation bound")
    c.add_argument("-o", "--output", default=None, help="output JSON (stdout if omitted)")
    c.set_defaults(func=_cmd_constant)

    r = sub.add_parser("recipe", help="construct a path with prescribed variation")
    _add_spec_flags(r)
    _add_target_flags(r)
    r.add_argument("--eval-level", type=int, default=DEFAULT_EVAL_LEVEL,
                   help="profile evaluation subgrid level")
    r.add_argument("--profile-csv", default=None, help="also write the empirical profile CSV")
    r.add_argument("-o", "--output", required=True, help="output path JSON")
    r.set_defaults(func=_cmd_recipe)

    i = sub.add_parser(
        "ito", help="compensated-sum change-of-variable residual",
        description="Write the change-of-variable residual of a path artifact as a path "
        "JSON on the path's grid (the document `build` writes, so `analyze` reads it), "
        "and its manifest, with sup_residual and input_hash, to <output>.manifest.json. "
        "Earlier versions wrote a t,residual CSV.")
    i.add_argument("input", help="path JSON artifact")
    i.add_argument("--f", required=True, help="ascending polynomial coefficients, e.g. 0,0,1")
    i.add_argument("--p", type=float, default=2.0, help="even variation order")
    i.add_argument("--level", type=int, default=None, help="restrict to a coarser level")
    i.add_argument("-o", "--output", required=True, help="output residual path JSON; "
                   "the manifest goes to <output>.manifest.json")
    i.set_defaults(func=_cmd_ito)

    t = sub.add_parser("timechange", help="transport paths/targets through a time change")
    _add_spec_flags(t)
    t.add_argument("--mode", choices=("check", "pullback", "recipe"), required=True,
                   help="check the transport identity on --path, pull --path back onto "
                   "the table, or transport a target variation")
    t.add_argument("--table", default=None, help="refining table JSON")
    t.add_argument("--make-table", choices=("qadic", "power", "random"), default="power",
                   help="generate a --levels deep table instead of reading one")
    t.add_argument("--exponent", type=float, default=2.0, help="power-table exponent")
    t.add_argument("--table-out", default=None, help="persist the generated table")
    t.add_argument("--path", default=None, help="path JSON (check / pullback modes)")
    _add_target_flags(t)
    t.add_argument("-o", "--output", required=True, help="output JSON")
    t.set_defaults(func=_cmd_timechange)

    s = sub.add_parser("selftest", help="run the acceptance criteria")
    s.add_argument("--criteria", type=_criteria, default=None,
                   help="comma-separated criterion indices")
    s.add_argument("--json", action="store_true",
                   help="one JSON object per criterion, then a summary object")
    s.set_defaults(func=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
