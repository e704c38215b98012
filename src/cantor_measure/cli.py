"""Batch command line front end.

Every command reads one expression, runs deterministically, and emits a JSON
report (stdout, and --json PATH for a file copy).  Reports carry a schema
tag, the inputs with their sha256 digest, exact values as num/2^exp strings,
and named pass/fail assertions.  Nothing time- or machine-dependent goes
into a report, so identical inputs and seeds give byte-identical output.

Exit codes: 0 ok, 2 expression syntax or command-line usage, 3 validation,
4 broken certificate or budget, 5 statistical gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from functools import cache

from .codes import (
    annotate_min_ranks,
    denotation,
    evaluate,
    fold,
    make_alternating,
    normalize_demorgan,
    support_depth,
)
from .decoration import (
    DecorationGenerator,
    check_preservation,
    decorate,
    empty_generator,
    split_generator,
)
from .dsl import code_to_json, parse_dsl, print_dsl
from .errors import (
    BudgetError,
    CertificateError,
    ParseError,
    StatisticalGateError,
    ValidationError,
)
from .measure import Certificate, build_decomposition
from .ordinals import OrdinalNotation
from .sampling import mc_integral
from .space import (ClopenSet, EventuallyPeriodicPoint, SeededPoint, enumerate_eventually_periodic,
                    mu_I)
from .stepfn import StepFunction

SCHEMA = "cantor-measure/1"

# the deepest code, in edges from root to leaf, whose JSON tree a parse
# report embeds: the report encoder recurses about twice per level
MAX_REPORT_TREE_DEPTH = 400

# the largest tests-combine --depth: its table has (depth + 1)^2 entries, and
# at this depth takes about 60 MB to build and writes about 4 MB
MAX_TESTS_COMBINE_DEPTH = 512

# the most --mc trials an estimate draws: 10^6 take about 0.6 s
MAX_MC_TRIALS = 10**6

# the largest decorate --depth: it checks about 4^(depth + 1) points, and
# depth 8 takes about 0.6 s and 80 MB
MAX_DECORATE_DEPTH = 8


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(text: str) -> int | None:
    """The integer an optional '-' and ASCII digits write, or None for any
    other text: int() alone also reads other scripts' digits, '_' and
    surrounding blanks.  None too past Python's int/str digit limit."""
    if not _DECIMAL.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _parse_point(spec: str):
    if spec.startswith("seed="):
        seed = _decimal(spec[5:])
        if seed is None:
            raise ValidationError(f"bad seed in point spec {spec!r}")
        return SeededPoint(seed)
    if spec.startswith("u=") and ":v=" in spec:
        u, _, v = spec[2:].partition(":v=")
        return EventuallyPeriodicPoint(u, v)
    raise ValidationError(
        f"point spec {spec!r} is neither 'u=<bits>:v=<bits>' nor 'seed=<int>'"
    )


def _addr_str(addr) -> str:
    return ".".join(str(a) for a in addr)


def _prepared(args):
    """Parse and apply the shared shaping flags; the shaped code."""
    code = parse_dsl(args.expr)
    if args.normalize or args.alternating:
        code = normalize_demorgan(code)
    if args.alternating:
        code = make_alternating(annotate_min_ranks(code))
    return code


def _report(args, verb: str, payload: dict) -> dict:
    inputs = {"expr": args.expr}
    for k in ("normalize", "alternating") + _VERB_FLAGS[verb]:
        v = getattr(args, k)
        if v not in (None, False):
            inputs[k] = v
    digest = hashlib.sha256(
        json.dumps([verb, inputs], sort_keys=True).encode()
    ).hexdigest()
    out = {"schema": SCHEMA, "command": verb, "inputs": inputs, "digest": digest}
    out.update(payload)
    return out


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _require_normalized(code):
    return code if code.complement_free else normalize_demorgan(code)


def _tree_depth(node, depths: list[int], flip: bool) -> int:
    return max(depths, default=-1) + 1


def _cmd_parse(args) -> dict:
    shaped = _prepared(args)
    depth = fold(shaped, _tree_depth)
    if depth > MAX_REPORT_TREE_DEPTH:
        raise ValidationError(
            f"code depth {depth} exceeds MAX_REPORT_TREE_DEPTH = {MAX_REPORT_TREE_DEPTH}, "
            "the deepest tree a parse report embeds"
        )
    payload = {
        "expr": print_dsl(shaped),
        "code": code_to_json(shaped),
        "complement_free": shaped.complement_free,
        "assertions": [],
    }
    if shaped.complement_free:
        payload["support_depth"] = support_depth(shaped)
    if args.rank is not None:
        want = OrdinalNotation.parse(args.rank)
        ranked = annotate_min_ranks(_require_normalized(shaped))
        got = ranked.rank
        ok = got == want
        payload["assertions"].append({"name": "root rank", "pass": ok,
                                      "want": str(want), "got": str(got)})
        if not ok:
            return payload, 3
    return payload


def _cmd_eval(args) -> dict:
    if args.point is None:
        raise ValidationError("eval needs --point")
    shaped = _require_normalized(_prepared(args))
    x = _parse_point(args.point)
    emap = evaluate(shaped, x)
    return {
        "point": x.describe(),
        "member": bool(emap[()]),
        "eval_map": {_addr_str(a): v for a, v in emap.items()},
    }


def _cmd_measure(args) -> dict:
    shaped = _prepared(args)
    den = denotation(_require_normalized(shaped))
    exact = mu_I(den)
    payload = {"measure": str(exact)}
    if args.mc is not None:
        est = mc_integral(StepFunction.from_char(den), args.mc, args.seed)
        payload["estimate"] = str(est)
        payload["trials"] = args.mc
        payload["seed"] = args.seed
        payload["abs_delta"] = str(abs(exact - est))
    return payload


def _verified_decomposition(shaped):
    """build_decomposition and its certificate, once the certificate's verdict
    has passed every law; a failed law is a certificate error."""
    d = build_decomposition(shaped)
    cert = Certificate(shaped, d)
    res = cert.verdict()
    if not res:
        raise CertificateError(
            f"decomposition fails the {res.law} law at address {res.address}"
        )
    return d, cert


def _budgeted_stages(shaped, size: int) -> tuple[StepFunction, list[list[str]]]:
    """The verified root's limit and the assembled test's stage measures at
    levels and stages 0..size, each within its budget.  The decomposition
    and the test are released on return: report samples the root alone."""
    d, cert = _verified_decomposition(shaped)
    t = cert.test()
    table = [[str(mu_I(t.stage(n, s))) for s in range(size + 1)] for n in range(size + 1)]
    return d[()].exact_limit(), table


def _cmd_decompose(args) -> dict:
    shaped = _require_normalized(_prepared(args))
    d, _ = _verified_decomposition(shaped)
    rows = []
    for addr in d:  # preorder, which is address order: slots ascend
        lim = d[addr].exact_limit()
        rows.append({"address": _addr_str(addr), "integral": str(lim.integral())})
    return {
        "addresses": rows,
        "measure": str(d[()].exact_limit().integral()),
        "assertions": [{"name": "decomposition laws", "pass": True}],
    }


def _cmd_tests_combine(args) -> dict:
    size = args.depth if args.depth is not None else 3
    if size > MAX_TESTS_COMBINE_DEPTH:
        raise ValidationError(
            f"--depth {size} exceeds MAX_TESTS_COMBINE_DEPTH = {MAX_TESTS_COMBINE_DEPTH}, "
            "the largest stage table tests-combine prints"
        )
    _, table = _budgeted_stages(_require_normalized(_prepared(args)), size)
    return {
        "levels": size + 1,
        "stages": size + 1,
        "stage_measures": table,
        "assertions": [{"name": "stage budgets", "pass": True}],
    }


def _load_targets(path: str) -> list[ClopenSet]:
    """Split targets: a JSON list of lists of bit strings."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError):  # not JSON, not UTF-8, or nested too deep
            raw = None
    if not isinstance(raw, list) or not all(
            isinstance(gens, list) and all(isinstance(g, str) and set(g) <= {"0", "1"} for g in gens)
            for gens in raw):
        raise ValidationError(f"{path}: targets must be a JSON list of lists of bit strings")
    return [ClopenSet(tuple(gens)) for gens in raw]


def _load_generator(args, root_rank):
    spec = args.generator or "empty"
    if spec == "empty":
        if args.budget:
            return DecorationGenerator.empty(OrdinalNotation.parse(b) for b in args.budget.split(","))
        return empty_generator(root_rank)
    if spec == "split" or spec.startswith("split:"):
        if not args.budget:
            raise ValidationError("split generator needs --budget")
        budgets = [OrdinalNotation.parse(b) for b in args.budget.split(",")]
        targets = None
        if spec.startswith("split:"):
            targets = _load_targets(spec[6:])
        return split_generator(budgets, targets)
    raise ValidationError(f"unknown generator {spec!r}")


def _cmd_decorate(args) -> dict:
    k = args.depth if args.depth is not None else 2
    if k > MAX_DECORATE_DEPTH:
        raise ValidationError(f"--depth {k} exceeds MAX_DECORATE_DEPTH = {MAX_DECORATE_DEPTH}")
    shaped = _prepared(args)
    shaped = make_alternating(annotate_min_ranks(_require_normalized(shaped)))
    gen = _load_generator(args, shaped.rank)
    out = decorate(shaped, gen)
    points = list(enumerate_eventually_periodic(k, k))
    rep = check_preservation(shaped, gen, points, out)
    return {
        "expr": print_dsl(out),
        "rank": str(out.rank),
        "budgets": [str(b) for b in gen.budgets()],
        "checked_points": rep.checked,
        "preserved": rep.preserved,
        "captured": list(rep.captured),
        "assertions": [
            {"name": "membership outside footprint", "pass": rep.ok},
            {"name": "evaluation maps clause-valid", "pass": not rep.violations},
        ],
    }


def _cmd_report(args) -> dict:
    shaped = _require_normalized(_prepared(args))
    root, _ = _budgeted_stages(shaped, 2)
    payload = {
        "expr": print_dsl(shaped),
        "support_depth": support_depth(shaped),
        "measure": str(root.integral()),
    }
    assertions = [{"name": "decomposition laws", "pass": True},
                  {"name": "stage budgets", "pass": True}]
    if args.mc is not None:
        payload["estimate"] = str(mc_integral(root, args.mc, args.seed))
        payload["seed"] = args.seed
        payload["trials"] = args.mc
    payload["assertions"] = assertions
    return payload


_COMMANDS = {
    "parse": _cmd_parse,
    "eval": _cmd_eval,
    "measure": _cmd_measure,
    "decompose": _cmd_decompose,
    "tests-combine": _cmd_tests_combine,
    "decorate": _cmd_decorate,
    "report": _cmd_report,
}


def _int_at_least(low: int | None, kind: str):
    """argparse type: a _decimal integer, at least low unless low is None;
    anything else is a usage error (exit 2)."""
    def parse(text: str) -> int:
        n = _decimal(text)
        if n is None or (low is not None and n < low):
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return n
    return parse


_FLAGS = {
    "rank": dict(default=None, metavar="CNF",
                 help="assert the minimal root rank equals this notation"),
    "point": dict(default=None, metavar="SPEC",
                  help="'u=<bits>:v=<bits>' or 'seed=<int>'"),
    "mc": dict(type=_int_at_least(1, "positive"), default=None, metavar="N",
               help="Monte Carlo trial count"),
    "seed": dict(type=_int_at_least(None, "decimal"), default=0, metavar="S"),
    "depth": dict(type=_int_at_least(0, "nonnegative"), default=None, metavar="D"),
    "generator": dict(default=None, metavar="G",
                      help="'empty' or 'split' or 'split:<targets.json>'"),
    "budget": dict(default=None, metavar="CNFS",
                   help="comma-separated ordinal notations"),
}

# the flags each verb reads, beyond those every verb takes; any other flag
# is a usage error rather than an ignored input hashed into the digest
_VERB_FLAGS = {
    "parse": ("rank",),
    "eval": ("point",),
    "measure": ("mc", "seed"),
    "decompose": (),
    "tests-combine": ("depth",),
    "decorate": ("depth", "generator", "budget"),
    "report": ("mc", "seed"),
}


@cache  # built once per process, however many times main() runs in it
def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cantor-measure",
        description="Exact measure computations on Borel codes over Cantor space.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb in _COMMANDS:
        p = sub.add_parser(verb)
        p.add_argument("expr", help="expression in the cyl/union/inter DSL")
        p.add_argument("--normalize", action="store_true",
                       help="push complements to the leaves")
        p.add_argument("--alternating", action="store_true",
                       help="normalize, rank, and fuse to alternating form")
        p.add_argument("--json", default=None, metavar="PATH",
                       help="also write the report to this file")
        for flag in _VERB_FLAGS[verb]:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return ap


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if getattr(args, "mc", None) is not None and args.mc > MAX_MC_TRIALS:
            raise ValidationError(f"--mc {args.mc} exceeds MAX_MC_TRIALS = {MAX_MC_TRIALS}")
        result = _COMMANDS[args.verb](args)
        rc = 0
        if isinstance(result, tuple):
            result, rc = result
        _emit(_report(args, args.verb, result), args.json)
        return rc
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (BudgetError, CertificateError) as e:
        print(f"certificate error: {e}", file=sys.stderr)
        return 4
    except StatisticalGateError as e:
        print(f"statistical gate: {e}", file=sys.stderr)
        return 5
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
