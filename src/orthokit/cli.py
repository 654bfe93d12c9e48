"""Command line interface.

Subcommands:
  check      property report for an orthoset file
  lattice    orthoclosed-set lattice (or a lattice file) with law verdicts
  sasaki     Sasaki map search: whole space, or one orthoclosed target
  oml        orthomodular-lattice tools: projections, induced point maps
  finch      induced-map laws over a Sasaki space
  hermitian  exact Hermitian space checks and the seeded fuzz harness
  corpus     bundled fixtures: list, show, run-golden, generate

Output is deterministic: identical inputs, flags, and seeds produce
byte-identical stdout.  `--format json` wraps every result in the same
envelope: tool, command, input, seed, budgets, result.

Exit codes: 0 success, 1 expected-value or property-check mismatch or a
failed cross-check, 2 invalid input, 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any, Callable

from . import corpus as corpus_mod
from .config import BUDGETS, budgets, snapshot
from .errors import BudgetExceededError, CrossCheckError, InputError, OrthokitError
from .hermitian import (
    _LIST,
    format_vector,
    fuzz_hermitian,
    line,
    make_space,
    perp_subspace,
    sasaki_line,
    subspace,
)
from .lattice import (
    atoms_and_covering,
    build_lattice,
    is_orthomodular,
    lattice_to_dot,
    oml_to_orthoset,
    orthoclosed_lattice,
    projection_facts,
    roundtrip_check,
    set_label,
    wilce_check,
)
from .orthoset import Orthoset, Verdict, _expect, document_kind
from .sasaki import (
    RefutationTrace,
    count_sasaki_maps,
    find_sasaki_map,
    finch_report,
    is_sasaki_space,
    property_report,
    sasaki_from_oml,
    shortcut_construct,
    verify_refutation,
)

Handler = Callable[[argparse.Namespace], tuple[Any, list[str], int]]


def _jsonable(value: Any) -> Any:
    if isinstance(value, Verdict):
        out: dict[str, Any] = {"holds": value.holds}
        if value.witness is not None:
            out["witness"] = _jsonable(value.witness)
        if value.note is not None:
            out["note"] = value.note
        return out
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    return value


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _verdict_line(label: str, v: Verdict | None) -> str:
    if v is None:
        return f"{label}: skipped"
    text = f"{label}: {_yesno(v.holds)}"
    if v.witness is not None:
        text += f"  [witness: {json.dumps(_jsonable(v.witness))}]"
    if v.note is not None:
        text += f"  ({v.note})"
    return text


def _parse_json(raw: str, source: str) -> Any:
    """The JSON value in raw; a syntax error or a nesting too deep for the
    parser is an input error naming `source`."""
    try:
        return json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer over int's digit limit
        raise InputError(f"invalid JSON in {source}: {exc}") from None
    except RecursionError:
        raise InputError(f"invalid JSON in {source}: nested too deeply") from None


def _read_doc(path: str) -> Any:
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None
    return _parse_json(raw, repr(path))


def _orthoset_arg(args: argparse.Namespace) -> Orthoset:
    return Orthoset.from_json(_read_doc(args.file))


def _split_labels(raw: str) -> list[str]:
    """Comma-separated labels; inside a label, `\\,` is a comma and `\\\\` a
    backslash, as set_label writes them."""
    if not re.fullmatch(r"(?:[^\\]|\\[\\,])*", raw):
        raise InputError(f"in {raw!r}, a backslash must escape ',' or '\\'")
    return [re.sub(r"\\(.)", r"\1", part) for part in re.findall(r"(?:[^\\,]|\\[\\,])+", raw)]


# ------------------------------------------------------------------ handlers


def _cmd_check(args: argparse.Namespace) -> tuple[Any, list[str], int]:
    x = _orthoset_arg(args)
    rep = property_report(x, name=args.name)
    result = {
        "name": rep.name,
        "n": rep.n,
        "rank": rep.rank,
        "point_closed": _jsonable(rep.point_closed),
        "irreducible": _jsonable(rep.irreducible),
        "dacey": _jsonable(rep.dacey),
        "sasaki_naive": _jsonable(rep.sasaki_naive),
        "sasaki_reduced": _jsonable(rep.sasaki_reduced),
        "modes_agree": rep.sasaki_naive.holds == rep.sasaki_reduced.holds,
        "transitive": _jsonable(rep.transitive) if rep.transitive is not None else None,
    }
    lines = [
        f"orthoset {rep.name}: n={rep.n} rank={rep.rank}",
        _verdict_line("point-closed", rep.point_closed),
        _verdict_line("irreducible", rep.irreducible),
        _verdict_line("dacey", rep.dacey),
        _verdict_line("sasaki (naive)", rep.sasaki_naive),
        _verdict_line("sasaki (reduced)", rep.sasaki_reduced),
        _verdict_line("transitive", rep.transitive),
    ]
    return result, lines, 0


def _cmd_lattice(args: argparse.Namespace) -> tuple[Any, list[str], int]:
    doc = _read_doc(args.file)
    if document_kind(doc) == "lattice":
        lat = build_lattice(doc)
        source = "lattice"
    else:
        x = Orthoset.from_json(doc)
        lat = orthoclosed_lattice(x)
        source = "orthoclosed-family"
    if args.dot is not None:
        dot = lattice_to_dot(lat, name=args.name)
        if args.dot == "-":
            return {"dot": dot}, [dot.rstrip("\n")], 0
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            raise InputError(f"cannot write {args.dot!r}: {exc}") from None
    om = is_orthomodular(lat)
    cov = atoms_and_covering(lat)
    result: dict[str, Any] = {
        "source": source,
        "size": lat.n,
        "height": lat.height(lat.top),
        "atoms": [lat.labels[a] for a in lat.atoms],
        "orthomodular": _jsonable(om),
        "atomistic": _jsonable(cov.atomistic),
        "covering": _jsonable(cov.covering),
    }
    lines = [
        f"lattice ({source}): size={lat.n} height={lat.height(lat.top)}",
        "atoms: " + (",".join(lat.labels[a] for a in lat.atoms) or "(none)"),
        _verdict_line("orthomodular", om),
        _verdict_line("atomistic", cov.atomistic),
        _verdict_line("covering", cov.covering),
    ]
    if args.roundtrip:
        rt = roundtrip_check(lat)
        result["roundtrip"] = {
            "ok": rt.ok,
            "direction": rt.direction,
            "hypothesis_failure": _jsonable(rt.hypothesis_failure),
            "detail": rt.detail,
        }
        note = rt.detail
        if note is None and rt.hypothesis_failure is not None:
            name, witness = rt.hypothesis_failure
            note = f"hypothesis {name} fails, witness {json.dumps(_jsonable(witness))}"
        lines.append(f"roundtrip: {_yesno(rt.ok)}" + (f"  ({note})" if note else ""))
    if args.dot is not None:
        result["dot_path"] = args.dot
        lines.append(f"dot written to {args.dot}")
    return result, lines, 0


def _add_refutation(x: Orthoset, ref: RefutationTrace | None,
                    result: dict[str, Any], lines: list[str]) -> None:
    """Add a refutation, and the verdict of verify_refutation on it, to a sasaki result."""
    assert ref is not None
    result["refutation"] = ref.to_json(x)
    result["refutation_verified"] = verify_refutation(x, ref)
    lines.append(
        f"refutation: {len(ref.entries)} pruned branches, "
        f"verified={_yesno(result['refutation_verified'])}"
    )


def _cmd_sasaki(args: argparse.Namespace) -> tuple[Any, list[str], int]:
    x = _orthoset_arg(args)
    if args.target is None:
        verdict = is_sasaki_space(x, mode=args.mode)
        result: dict[str, Any] = {
            "is_sasaki": verdict.is_sasaki,
            "mode": verdict.mode,
            "targets": len(verdict.targets),
        }
        lines = [
            f"sasaki space ({verdict.mode}): {_yesno(verdict.is_sasaki)} "
            f"over {len(verdict.targets)} targets"
        ]
        if verdict.is_sasaki:
            if args.witnesses:
                result["witnesses"] = {
                    set_label(x, a): w.to_json(x) for a, w in verdict.witnesses.items()
                }
                for a in verdict.targets:
                    table = verdict.witnesses[a].to_json(x)["map"]
                    lines.append(f"  {set_label(x, a)}: {json.dumps(table)}")
        else:
            assert verdict.first_failure is not None and verdict.failure is not None
            result["first_failure"] = list(x.labels_of(verdict.first_failure))
            lines.append(f"first failure: {set_label(x, verdict.first_failure)}")
            _add_refutation(x, verdict.failure.refutation, result, lines)
        return result, lines, 0
    a = x.subset(_split_labels(args.target))
    if args.count:
        found = count_sasaki_maps(x, a, limit=args.limit)
        result = {
            "target": list(x.labels_of(a)),
            "count": len(found),
            "limit": args.limit,
            "maps": [w.to_json(x) for w in found],
        }
        lines = [
            f"target {set_label(x, a)}: {len(found)} map(s) found (limit {args.limit})"
        ]
        return result, lines, 0
    shortcut = shortcut_construct(x, a)
    v = find_sasaki_map(x, a)
    result = {
        "target": list(x.labels_of(a)),
        "exists": v.exists,
        "nodes": v.nodes,
        "shortcut": shortcut.clause if shortcut is not None else None,
    }
    lines = [f"target {set_label(x, a)}: map {'exists' if v.exists else 'does not exist'}"]
    if v.exists:
        assert v.witness is not None
        result["witness"] = v.witness.to_json(x)
        lines.append(f"map: {json.dumps(v.witness.to_json(x)['map'])}")
        if shortcut is not None:
            lines.append(f"shortcut clause: {shortcut.clause}")
    else:
        _add_refutation(x, v.refutation, result, lines)
    return result, lines, 0


def _cmd_oml(args: argparse.Namespace) -> tuple[Any, list[str], int]:
    doc = _read_doc(args.file)
    if document_kind(doc) != "lattice":
        raise InputError("the oml command expects a lattice document")
    lat = build_lattice(doc)
    if args.project is not None:
        i = lat.index(args.project)
        table = {lat.labels[y]: lat.labels[p] for y, p in enumerate(lat.projection_row(i))}
        result: dict[str, Any] = {"project": args.project, "table": table}
        lines = [f"sasaki projection to {args.project}:"] + [
            f"  {y} -> {table[y]}" for y in lat.labels
        ]
        return result, lines, 0
    if args.induced is not None:
        x = oml_to_orthoset(lat)
        a = x.subset(_split_labels(args.induced))
        witness = sasaki_from_oml(lat, a, x)
        result = {"induced": witness.to_json(x)}
        lines = [
            f"induced map onto {set_label(x, a)}:",
            f"  {json.dumps(witness.to_json(x)['map'])}",
        ]
        return result, lines, 0
    om = is_orthomodular(lat)
    result = {"orthomodular": _jsonable(om)}
    lines = [_verdict_line("orthomodular", om)]
    if om.holds:
        facts = projection_facts(lat)
        result["projection_facts"] = {k: _jsonable(v) for k, v in facts.items()}
        lines += [_verdict_line(f"  {k}", v) for k, v in facts.items()]
        wr = wilce_check(lat)
        result["covering"] = _jsonable(wr.covering)
        result["basic_to_basic"] = _jsonable(wr.basic_to_basic)
        result["agree"] = wr.agree
        lines.append(_verdict_line("covering", wr.covering))
        lines.append(_verdict_line("projections basic-to-basic", wr.basic_to_basic))
        lines.append(f"sides agree: {_yesno(wr.agree)}")
    return result, lines, 0


def _cmd_finch(args: argparse.Namespace) -> tuple[Any, list[str], int]:
    x = _orthoset_arg(args)
    rep = finch_report(x)
    result = {"ok": rep.ok, "laws": {k: _jsonable(v) for k, v in rep.laws.items()}}
    lines = [f"induced-map laws: {'all hold' if rep.ok else 'FAILED'}"]
    lines += [_verdict_line(f"  {k}", v) for k, v in rep.laws.items()]
    return result, lines, 0 if rep.ok else 1


def _cmd_hermitian(args: argparse.Namespace) -> tuple[Any, list[str], int]:
    if args.action == "fuzz":
        try:
            dims = tuple(int(d) for d in _split_labels(args.dims))
        except ValueError:
            raise InputError(f"--dims must list integers, got {args.dims!r}") from None
        if not dims:
            raise InputError("--dims must name at least one dimension")
        rep = fuzz_hermitian(args.field, args.count, seed=args.seed, dims=dims)
        result = {
            "field": rep.field,
            "instances": rep.instances,
            "checks": rep.checks,
            "failures": rep.failures,
            "ok": rep.ok,
        }
        lines = [
            f"hermitian fuzz over {rep.field}: {rep.instances} instances, "
            f"{'all checks passed' if rep.ok else f'{len(rep.failures)} FAILURES'}"
        ]
        lines += [f"  {name}: {count} checks" for name, count in sorted(rep.checks.items())]
        lines += [f"  failure: {f}" for f in rep.failures]
        return result, lines, 0 if rep.ok else 1
    doc = _read_doc(args.file)
    if not isinstance(doc, dict) or "gram" not in doc or "field" not in doc:
        raise InputError("hermitian document needs 'field' and 'gram'")
    space = make_space(doc["gram"], doc["field"])
    result = {"field": space.field, "dim": space.dim, "anisotropic": True}
    lines = [f"hermitian space over {space.field}: dim={space.dim}, gram anisotropic"]
    if "subspace" in doc:
        sub = subspace(space, doc["subspace"])
        perp = perp_subspace(space, sub)
        result["subspace_dim"] = sub.dim
        result["perp_basis"] = [format_vector(b) for b in perp.basis]
        lines.append(f"subspace: dim={sub.dim}, perp dim={perp.dim}")
        images = []
        for entries in _expect(doc.get("lines", []), _LIST, "'lines' must be a list of vectors"):
            ln = line(space, entries)
            img = sasaki_line(space, sub, ln)
            images.append({
                "line": format_vector(ln.rep),
                "image": format_vector(img.rep),
            })
            lines.append(
                f"  <{','.join(format_vector(ln.rep))}> -> "
                f"<{','.join(format_vector(img.rep))}>"
            )
        if images:
            result["images"] = images
    elif "lines" in doc:
        raise InputError("'lines' requires a 'subspace' to map onto")
    return result, lines, 0


def _cmd_corpus(args: argparse.Namespace) -> tuple[Any, list[str], int]:
    if args.action == "list":
        fixtures = [corpus_mod.get(name) for name in corpus_mod.list_names()]
        result = {
            "fixtures": [
                {"name": f.name, "kind": f.kind, "doc": f.doc} for f in fixtures
            ]
        }
        lines = [f"{f.name} ({f.kind}): {f.doc}" for f in fixtures]
        return result, lines, 0
    if args.action == "show":
        doc = corpus_mod.load(args.name)
        return doc, [json.dumps(doc, indent=2, sort_keys=True)], 0
    if args.action == "run-golden":
        names = _split_labels(args.only) if args.only else None
        outcomes = corpus_mod.run_golden(names)
        result = {"outcomes": [o.to_json() for o in outcomes]}
        lines = []
        for o in outcomes:
            if o.ok:
                lines.append(f"fixture {o.name}: ok")
            else:
                bad = [
                    f"{key}: expected {json.dumps(c.expected)}, got {json.dumps(_jsonable(c.actual))}"
                    for key, c in o.checks.items()
                    if not c.ok
                ]
                lines.append(f"fixture {o.name}: MISMATCH ({'; '.join(bad)})")
        good = sum(1 for o in outcomes if o.ok)
        lines.append(f"golden: {good}/{len(outcomes)} ok")
        result["ok"] = good == len(outcomes)
        return result, lines, 0 if good == len(outcomes) else 1
    # generate
    params = _parse_json(args.params, "--params")
    if not isinstance(params, dict):
        raise InputError("--params must be a JSON object")
    obj = corpus_mod.generate(args.kind, params, seed=args.seed)
    doc = obj.to_json(name=args.kind)
    return doc, [json.dumps(doc, indent=2, sort_keys=True)], 0


# --------------------------------------------------------------------- main


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=0)
    for *_, flag in BUDGETS.values():
        p.add_argument(flag, type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthokit",
        description="exact computations on finite orthosets, ortholattices, "
        "Sasaki maps, and Hermitian spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="property report for an orthoset file")
    p.add_argument("file")
    p.add_argument("--name", default="orthoset")
    _add_common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("lattice", help="orthoclosed-set lattice or lattice file report")
    p.add_argument("file")
    p.add_argument("--name", default="lattice")
    p.add_argument("--dot", default=None, metavar="PATH",
                   help="write a DOT Hasse diagram ('-' prints it instead of the report)")
    p.add_argument("--roundtrip", action="store_true",
                   help="include the point-space / lattice roundtrip result")
    _add_common(p)
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("sasaki", help="Sasaki map search on an orthoset file")
    p.add_argument("file")
    p.add_argument("--target", default=None,
                   help="comma-separated labels of one orthoclosed target "
                   "(in a label, \\, is a comma and \\\\ a backslash)")
    p.add_argument("--mode", choices=("naive", "reduced"), default="naive")
    p.add_argument("--count", action="store_true",
                   help="count maps to --target up to --limit")
    p.add_argument("--limit", type=int, default=2)
    p.add_argument("--witnesses", action="store_true",
                   help="include every witness table in the space verdict")
    _add_common(p)
    p.set_defaults(handler=_cmd_sasaki)

    p = sub.add_parser("oml", help="orthomodular lattice tools on a lattice file")
    p.add_argument("file")
    p.add_argument("--project", default=None, metavar="X",
                   help="print the Sasaki projection table onto element X")
    p.add_argument("--induced", default=None, metavar="LABELS",
                   help="induced point map onto the principal set with these "
                   "comma-separated elements, escaped as in --target")
    _add_common(p)
    p.set_defaults(handler=_cmd_oml)

    p = sub.add_parser("finch", help="induced-map laws over a Sasaki space")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(handler=_cmd_finch)

    p = sub.add_parser("hermitian", help="exact Hermitian space tools")
    hsub = p.add_subparsers(dest="action", required=True)
    pc = hsub.add_parser("check", help="validate a gram document, map given lines")
    pc.add_argument("file")
    _add_common(pc)
    pc.set_defaults(handler=_cmd_hermitian)
    pf = hsub.add_parser("fuzz", help="seeded random property run")
    pf.add_argument("--field", choices=("Q", "Qi"), required=True)
    pf.add_argument("--count", type=int, default=100)
    pf.add_argument("--dims", default="2,3,4")
    _add_common(pf)
    pf.set_defaults(handler=_cmd_hermitian)

    p = sub.add_parser("corpus", help="bundled fixtures and generators")
    csub = p.add_subparsers(dest="action", required=True)
    pl = csub.add_parser("list", help="list bundled fixtures")
    _add_common(pl)
    pl.set_defaults(handler=_cmd_corpus)
    ps = csub.add_parser("show", help="print one fixture document")
    ps.add_argument("name")
    _add_common(ps)
    ps.set_defaults(handler=_cmd_corpus)
    pg = csub.add_parser("run-golden", help="re-derive every frozen fixture value")
    pg.add_argument("--only", default=None, help="comma-separated fixture names")
    _add_common(pg)
    pg.set_defaults(handler=_cmd_corpus)
    pge = csub.add_parser("generate", help="deterministic object generators")
    pge.add_argument("kind")
    pge.add_argument("--params", default="{}", help="JSON object of parameters")
    _add_common(pge)
    pge.set_defaults(handler=_cmd_corpus)

    return parser


def _command_name(args: argparse.Namespace) -> str:
    action = getattr(args, "action", None)
    return f"{args.command}.{action}" if action else args.command


def _input_echo(args: argparse.Namespace) -> Any:
    if hasattr(args, "file"):
        return args.file
    if getattr(args, "command", "") == "corpus":
        if args.action == "show":
            return args.name
        if args.action == "generate":
            return {"kind": args.kind, "params": _parse_json(args.params, "--params")}
        if args.action == "run-golden":
            return {"only": _split_labels(args.only) if args.only else None}
        return None
    if getattr(args, "action", None) == "fuzz":
        return {"field": args.field, "count": args.count, "dims": args.dims}
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # resolved first, so that a bad budget is an input error whether
        # or not the command reads it; the command runs under the budgets
        # the envelope echoes, and the earlier budgets are back afterwards
        run = snapshot(**{name: getattr(args, flag[2:].replace("-", "_"))  # argparse's dest
                          for name, (*_, flag) in BUDGETS.items()})
        with budgets(**run):
            result, lines, code = args.handler(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: budget exceeded: {exc}\n")
        return 3
    except CrossCheckError as exc:
        sys.stderr.write(f"error: cross-check failed: {exc}\n")
        return 1
    except OrthokitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.format == "json":
        envelope = {
            "tool": "orthokit",
            "command": _command_name(args),
            "input": _input_echo(args),
            "seed": args.seed,
            "budgets": run,
            "result": result,
        }
        sys.stdout.write(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    else:
        for ln in lines:
            sys.stdout.write(ln + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
