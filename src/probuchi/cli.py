"""Command-line surface tying the engines together.

Query subcommands print a single JSON document on stdout; construction
subcommands print the serialized result automaton so they can be piped back
in (``-`` means stdin for any FILE argument); ``monitor`` streams one exact
rational per line.  Human summaries go to stderr.  Exit status: 0 answered,
2 unknown or resource limit, 1 input error, a malformed command line included.

Start-up cost: run as ``python -m probuchi.cli``, a process imports only
``core``, ``graphs`` and ``textio`` up front; each handler imports the engine
it calls when it runs.  ``validate`` and ``rank`` need nothing more; ``prob``
imports ``markov``; ``mc`` and ``monitor`` import ``sim`` (and through it
``markov``); ``gen``, ``decompose`` and the constructions import
``construct``; ``complement``, ``empty``, ``universal``, ``witness`` and
``contain`` import ``decide``, which loads the rest.

Imported as a module (``import probuchi.cli``, as the installed ``probuchi``
script does), the foot of this file still binds every engine.  The only
reason is ``bench/spans.py``: a traced run imports this module and then
wraps functions in every engine it finds in ``sys.modules``, so an engine
loaded later by a handler would go untraced.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import import_module

from . import textio
from .core import (
    Automaton,
    AutomatonError,
    LassoWord,
    ResourceLimitError,
    infer_hierarchy,
    validate,
)

EXIT_ANSWERED = 0
EXIT_INPUT_ERROR = 1
EXIT_UNKNOWN = 2


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> Automaton:
    name = "stdin" if path == "-" else path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return textio.parse(_read_file(path), name=name)


def _emit(args, doc: dict, summary: str) -> int:
    """Print a JSON answer, its ``command`` first, and the summary; the exit
    code follows from the answer: 2 if it is unknown or a resource limit."""
    print(json.dumps({"command": args.command} | doc, indent=2))
    print(summary, file=sys.stderr)
    return EXIT_UNKNOWN if doc.get("answer") in ("unknown", "resource-limit") else EXIT_ANSWERED


def _emit_automaton(aut: Automaton, summary: str) -> int:
    sys.stdout.write(_text(aut))
    print(summary, file=sys.stderr)
    return EXIT_ANSWERED


def _text(x: Fraction | Automaton) -> str:
    """An exact rational, or an automaton serialized, as text of any length.

    Python caps int-to-str conversion at 4,300 digits by default; the cap is
    lifted for this conversion only, so parsing input keeps it.
    """
    render = textio.serialize if isinstance(x, Automaton) else str
    if not hasattr(sys, "set_int_max_str_digits"):
        return render(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return render(x)
    finally:
        sys.set_int_max_str_digits(limit)


def _number(read):
    """``read`` as an argparse type: its error message, which quotes at most
    a bad value's first 40 characters, replaces argparse's whole-value one."""

    def parse(text: str):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_INTEGER, _RATIONAL = _number(textio.integer), _number(textio.rational)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error (exit 1)."""

    def error(self, message: str):
        raise AutomatonError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="probuchi",
        description="Probabilistic omega-automata toolkit (exact arithmetic)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, handler, *, files: int = 1, help: str = "",
            build=None) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler, build=build)
        if files == 1:
            sp.add_argument("file", metavar="FILE")
        elif files == 2:
            sp.add_argument("file1", metavar="FILE1")
            sp.add_argument("file2", metavar="FILE2")
        return sp

    add("validate", _cmd_validate, help="report every violated invariant")
    add("rank", _cmd_rank, help="infer a hierarchy ranking")
    sp = add("prob", _cmd_prob, help="exact lasso acceptance probability")
    sp.add_argument("lasso", metavar="LASSO")
    sp = add("mc", _cmd_mc, help="Monte Carlo estimate of lasso acceptance")
    sp.add_argument("lasso", metavar="LASSO")
    sp.add_argument("--samples", type=_INTEGER, default=10_000)
    sp.add_argument("--seed", type=_INTEGER, default=0)
    add("monitor", _cmd_monitor,
        help="stream exact rejection probabilities (symbols on stdin)")
    sp = add("complement", _cmd_construct, help="complement an NBA (rank-based)",
             build="decide.nba_complement")
    sp.add_argument("--complement-cap", type=_INTEGER, default=None)
    add("product", _cmd_construct, files=2,
        help="monitor product (acceptance multiplies)", build="construct.fpm_product")
    add("union", _cmd_construct, files=2, help="almost-sure union of two PBAs",
        build="construct.almost_sure_union")
    add("intersect", _cmd_construct, files=2, help="almost-sure intersection of two PBAs",
        build="construct.almost_sure_intersection")
    add("dra2hpba", _cmd_construct, help="deterministic Rabin to hierarchical PBA",
        build="construct.dra_to_hpba")
    add("hpba2nba", _cmd_construct, help="hierarchical PBA to NBA (positive semantics)",
        build="construct.hpba_to_nba")
    add("closure", _cmd_construct,
        help="safety closure of a hierarchical PBA's positive language",
        build="construct.safety_closure")
    sp = add("decompose", _cmd_decompose, help="Rabin decomposition into PBA pairs")
    sp.add_argument("--cap", type=_INTEGER, default=6)
    for name, what in (("empty", "emptiness"), ("universal", "universality")):
        sp = add(name, _cmd_decide, help=f"decide {what} under a semantics")
        sp.add_argument(
            "--semantics", choices=["positive", "almost-sure"], default="positive"
        )
        sp.add_argument("--monoid-cap", type=_INTEGER, default=None)
    sp = add("witness", _cmd_witness, help="bounded strongly-asymptotic witness search")
    sp.add_argument("--max-len", type=_INTEGER, required=True)
    sp.add_argument("--max-j", type=_INTEGER, required=True)
    sp.add_argument("--x", type=_RATIONAL, default="0")
    sp = add("contain", _cmd_contain, files=2, help="bounded containment refutation")
    sp.add_argument(
        "--semantics", choices=["positive", "almost-sure"], required=True
    )
    sp.add_argument("--bound", type=_INTEGER, required=True)
    sp = add("gen", _cmd_gen, files=0, help="generate a named example automaton")
    sp.add_argument("name_", metavar="NAME")
    sp.add_argument("params", nargs="*", metavar="PARAMS")
    return p


def _cmd_validate(args) -> int:
    aut = _load(args.file)
    report = validate(aut)
    return _emit(
        args,
        {"valid": report.ok, "violations": list(report.violations)},
        "valid" if report.ok else f"{len(report.violations)} violation(s)",
    )


def _cmd_rank(args) -> int:
    aut = _load(args.file)
    rk = infer_hierarchy(aut)
    if rk is None:
        return _emit(args, {"hierarchical": False}, "not hierarchical")
    return _emit(
        args,
        {
            "hierarchical": True,
            "levels": {q: rk.levels[q] for q in aut.states},
            "k": rk.k,
        },
        f"hierarchical with {rk.k + 1} level(s)",
    )


def _cmd_prob(args) -> int:
    from .markov import lasso_acceptance

    aut = _load(args.file)
    w = textio.parse_lasso(args.lasso, aut.alphabet)
    p = _text(lasso_acceptance(aut, w))
    return _emit(
        args,
        {"lasso": textio.format_lasso(w, aut.alphabet), "probability": p},
        f"acceptance probability {p}",
    )


def _cmd_mc(args) -> int:
    from . import sim

    aut = _load(args.file)
    w = textio.parse_lasso(args.lasso, aut.alphabet)
    est = sim.mc_lasso_estimate(aut, w, args.samples, args.seed)
    return _emit(
        args,
        {
            "lasso": textio.format_lasso(w, aut.alphabet),
            "mean": est.mean,
            "stderr": est.stderr,
            "samples": est.samples,
            "seed": est.seed,
        },
        f"mean {est.mean:.6f} (stderr {est.stderr:.6f})",
    )


def _cmd_monitor(args) -> int:
    from . import sim

    symbols = (line.strip() for line in sys.stdin)
    lines = sim.monitor_text(_load(args.file), (a for a in symbols if a))
    for fed, line in enumerate(lines):
        print(line)
    print(f"monitored {fed} symbol(s)", file=sys.stderr)
    return EXIT_ANSWERED


def _certificate(aut: Automaton, w: LassoWord) -> dict:
    """Independent check of a lasso: NBA membership, else exact acceptance."""
    from . import decide
    from .markov import lasso_acceptance

    if aut.role == "nba":
        return {"member": decide.nba_lasso_member(aut, w)}
    return {"acceptance": _text(lasso_acceptance(aut, w))}


def _cmd_decide(args) -> int:
    """``empty`` and ``universal`` under either semantics."""
    from . import decide

    aut = _load(args.file)
    empty = args.command == "empty"
    what = "emptiness" if empty else "universality"
    cap = {"monoid_cap": args.monoid_cap}
    if args.semantics == "almost-sure":
        if aut.role not in ("pba", "fpm", "hpba"):
            raise AutomatonError("almost-sure decisions need a Buchi PBA role")
        w = (decide.almost_sure_empty(aut, **cap) if empty
             else decide.almost_sure_universal(aut, **cap))
    elif aut.role == "nba":
        w = (decide.nba_emptiness(aut) if empty
             else decide.nba_universality(aut, **cap))
    elif aut.role == "fpm":
        w = (decide.fpm_positive_empty(aut, **cap) if empty
             else decide.fpm_positive_universal(aut, **cap))
    elif aut.role in ("hpba", "pba"):
        if aut.role == "pba" and infer_hierarchy(aut) is None:
            hint = "; use the bounded 'witness' search" if empty else ""
            raise AutomatonError(
                f"positive {what} of a non-hierarchical PBA is undecidable{hint}"
            )
        w = (decide.hpba_probable_empty(aut) if empty
             else decide.hpba_probable_universal(aut, **cap))
    else:
        raise AutomatonError(f"no {what} procedure for role {aut.role}")
    doc = {"semantics": args.semantics}
    if w is None:  # the answer is the command's name
        return _emit(args, doc | {"answer": args.command}, args.command)
    answer, key = (("nonempty", "witness") if empty
                   else ("non-universal", "counterexample"))
    found = {}
    if isinstance(w, decide.SubsetWitness):
        found = {
            "states": sorted(w.states),
            "u": textio.format_word(w.u, aut.alphabet),
            "v": textio.format_word(w.v, aut.alphabet),
        }
        w = w.lasso()
    lasso = textio.format_lasso(w, aut.alphabet)
    found |= {"lasso": lasso, "certificate": _certificate(aut, w)}
    return _emit(args, doc | {"answer": answer, key: found}, f"{answer}, {key} {lasso}")


def _cmd_witness(args) -> int:
    from . import decide

    aut = _load(args.file)
    w = decide.pba_positive_nonempty_bounded(aut, args.max_len, args.max_j, args.x)
    if w is None:
        return _emit(
            args,
            {"answer": "unknown", "max_len": args.max_len, "max_j": args.max_j},
            "unknown (no witness within bounds)",
        )
    bound = decide.acceptance_lower_bound(aut, w)
    return _emit(
        args,
        {
            "answer": "nonempty",
            "witness": {
                "states": sorted(w.states),
                "u": textio.format_word(w.u, aut.alphabet),
                "segments": [textio.format_word(s, aut.alphabet) for s in w.segments],
                "start_index": w.start_index,
            },
            "lower_bound": _text(bound.value),
            "asymptotic": bound.asymptotic,
            "assembled_lasso": textio.format_lasso(bound.lasso, aut.alphabet),
            "certificate": _certificate(aut, bound.lasso),
        },
        f"nonempty, lower bound {_text(bound.value)}",
    )


def _cmd_contain(args) -> int:
    from . import decide
    from .markov import lasso_acceptance

    b1, b2 = _load(args.file1), _load(args.file2)
    w = decide.containment_refute(b1, b2, args.semantics, args.bound)
    if w is None:
        return _emit(
            args,
            {"semantics": args.semantics, "answer": "unknown", "bound": args.bound},
            "unknown (no refutation within bound)",
        )
    text = textio.format_lasso(w, b1.alphabet)
    return _emit(
        args,
        {
            "semantics": args.semantics,
            "answer": "refuted",
            "witness": {
                "lasso": text,
                "certificate": {
                    "left_acceptance": _text(lasso_acceptance(b1, w)),
                    "right_acceptance": _text(lasso_acceptance(b2, w)),
                },
            },
        },
        f"refuted by {text}",
    )


def _cmd_decompose(args) -> int:
    from . import construct

    aut = _load(args.file)
    members = construct.rabin_decomposition(aut, cap=args.cap)
    return _emit(
        args,
        {
            "members": [
                {
                    "I": sorted(index_set),
                    "j": j,
                    "positive": _text(pos),
                    "negative": _text(neg),
                }
                for (index_set, j), pos, neg in members
            ],
        },
        f"{len(members)} member(s)",
    )


def _cmd_gen(args) -> int:
    from . import construct

    out = construct.generate_example(args.name_, *args.params)
    return _emit_automaton(out, f"generated {out.name}")


def _cmd_construct(args) -> int:
    """Construction subcommands: print the automaton that ``args.build``,
    a ``module.function`` name in this package, makes of the FILE arguments."""
    module, name = args.build.split(".")
    build = getattr(import_module(f".{module}", __package__), name)
    if "file" in args:
        inputs = [_load(args.file)]
    else:
        inputs = [_load(args.file1), _load(args.file2)]
    kw = {"cap": args.complement_cap} if "complement_cap" in args else {}
    out = build(*inputs, **kw)
    return _emit_automaton(out, f"{len(out.states)} state(s)")


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except ResourceLimitError as exc:
        return _emit(
            args,
            {"answer": "resource-limit", "cap": exc.cap_name, "detail": str(exc)},
            f"resource limit: {exc}",
        )
    except (AutomatonError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
else:  # imported as a module: bind every engine (see the module docstring)
    from . import construct, decide, markov, sim  # noqa: F401
