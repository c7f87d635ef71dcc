"""Command-line surface: every library operation over JSON files.

Exit codes: 0 success (or a check that came back true), 1 a check that
came back false, 2 malformed input or violated precondition.  Output is
always canonical JSON on stdout (or ``--out``); errors are emitted as
{"error": {"code", "message", "path"}}.

Each handler imports the filters, embeddings and products functions it
calls, so a call loads only the modules its verb uses.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import jsonio
from .core import generate_sigma_algebra
from .errors import InputFormatError, MeaspaceError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2) with plain text
        raise InputFormatError(message)


def _path_error(message: str, path: str) -> InputFormatError:
    err = InputFormatError(message)
    err.path = path
    return err


def _read_json(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _path_error(f"cannot read {path}: {exc.strerror or exc}", path) from None
    except UnicodeDecodeError:
        raise _path_error(f"cannot read {path}: not UTF-8 text", path) from None
    try:
        return json.loads(text)
    except ValueError as exc:  # a syntax error, or an integer too long to convert
        raise _path_error(f"not valid JSON: {exc}", path) from None
    except RecursionError:
        raise _path_error("not valid JSON: nested too deeply", path) from None


def _load(path: str, loader):
    raw = _read_json(path)
    try:
        return loader(raw)
    except MeaspaceError as exc:
        exc.path = path
        raise


def _set_arg(args) -> list[str]:
    try:
        labels = json.loads(args.set)
    except (ValueError, RecursionError):
        raise InputFormatError("--set must be a JSON array of labels") from None
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise InputFormatError("--set must be a JSON array of labels")
    return labels


# ------------------------------------------------------------- handlers

def _cmd_generate(args):
    ground, gens = _load(args.space, jsonio.generators_from_obj)
    return 0, jsonio.algebra_to_obj(generate_sigma_algebra(ground, gens))


def _cmd_atoms(args):
    return 0, jsonio.optional_space_to_obj(*_load(args.space, jsonio.optional_space_from_obj))


def _measure_like(args, op):
    ms = _load(args.space, jsonio.space_from_obj)
    s = ms.ground.mask(_set_arg(args))
    return 0, {"value": jsonio.value_to_str(op(ms, s))}


def _cmd_measure(args):
    return _measure_like(args, lambda ms, s: ms.measure_of(s))


def _cmd_inner(args):
    return _measure_like(args, lambda ms, s: ms.inner_measure(s))


def _cmd_outer(args):
    return _measure_like(args, lambda ms, s: ms.outer_measure(s))


def _cmd_thick(args):
    ms = _load(args.space, jsonio.space_from_obj)
    witness = ms._thick_witness(ms.ground.mask(_set_arg(args)))
    if witness is None:
        return 0, {"ok": True}
    return 1, {"ok": False, "witness": jsonio.labels_list(witness)}


def _cmd_ultrafilters(args):
    from .filters import enumerate_ultrafilters

    algebra, ms = _load(args.space, jsonio.optional_space_from_obj)
    space_obj = jsonio.optional_space_to_obj(algebra, ms)
    items = []
    for record in enumerate_ultrafilters(algebra):
        obj = jsonio.record_to_obj(record, space_obj)
        del obj["space"]
        items.append(obj)
    return 0, {"space": space_obj, "count": len(items), "ultrafilters": items}


def _cmd_family(args):
    """classify-family and extend-uf: the record of the family, or of its extension."""
    from .filters import classify_family, extend_to_ultrafilter

    op = classify_family if args.verb == "classify-family" else extend_to_ultrafilter
    family, ms = _load(args.space, jsonio.family_from_obj)
    space_obj = jsonio.optional_space_to_obj(family.algebra, ms)
    return 0, jsonio.record_to_obj(op(family), space_obj)


def _cmd_uf_to_measure(args):
    from .filters import measure_from_ultrafilter

    record, _ = _load(args.space, jsonio.record_from_obj)
    zm = measure_from_ultrafilter(record)
    return 0, jsonio.space_to_obj(zm.ms)


def _cmd_measure_to_uf(args):
    from .filters import ZeroOneMeasure, ultrafilter_from_01_measure

    ms = _load(args.space, jsonio.space_from_obj)
    record = ultrafilter_from_01_measure(ZeroOneMeasure(ms))
    return 0, jsonio.record_to_obj(record, jsonio.space_to_obj(ms))


def _cmd_check_embed(args):
    from .embeddings import measure_embedding_report

    small = _load(args.small, jsonio.space_from_obj)
    big = _load(args.big, jsonio.space_from_obj)
    report = measure_embedding_report(small, big)
    if report.ok:
        return 0, {"ok": True}
    return 1, {
        "ok": False,
        "reason": report.reason,
        "witness": jsonio.labels_list(report.witness),
    }


def _cmd_decompose(args):
    from .embeddings import decompose_extension

    big = _load(args.big, jsonio.space_from_obj)
    x = big.ground.mask(_set_arg(args))
    return 0, jsonio.decomposition_to_obj(decompose_extension(big, x))


def _cmd_construct(args):
    from .embeddings import construct_extension

    # a kit that loads but builds nothing is still the file's fault
    big = _load(args.kit, lambda raw: construct_extension(jsonio.kit_from_obj(raw)))
    return 0, jsonio.space_to_obj(big)


def _cmd_validate_kit(args):
    from .embeddings import validate_kit

    kit = _load(args.kit, jsonio.kit_from_obj)
    problems = validate_kit(kit)
    if problems:
        return 1, {"ok": False, "problems": problems}
    return 0, {"ok": True}


def _cmd_enumerate_extensions(args):
    from .embeddings import enumerate_extensions

    base = _load(args.space, jsonio.space_from_obj)
    # an empty label between commas is refused like any other; no flag, or
    # an empty one, means no fresh points
    extras = args.extra.split(",") if args.extra else []
    spaces = enumerate_extensions(base, extras)
    return 0, {
        "count": len(spaces),
        "extensions": [jsonio.space_to_obj(ms) for ms in spaces],
    }


def _cmd_classify_points(args):
    from .embeddings import classify_outside_points

    big = _load(args.big, jsonio.space_from_obj)
    x = big.ground.mask(_set_arg(args))
    return 0, jsonio.outside_points_to_obj(classify_outside_points(big, x))


def _cmd_product(args):
    from .products import product_space

    left = _load(args.small, jsonio.space_from_obj)
    right = _load(args.big, jsonio.space_from_obj)
    return 0, jsonio.product_to_obj(product_space(left, right))


def _cmd_section(args):
    from .products import y_section

    ps = _load(args.space, jsonio.product_from_obj)
    s = ps.product.ground.mask(_set_arg(args))
    section = y_section(ps, s, args.point)
    return 0, {"section": jsonio.labels_list(section)}


def _cmd_lift_uf(args):
    from .filters import classify_family
    from .products import lift_ultrafilter, product_space

    family, ms = _load(args.space, jsonio.family_from_obj)
    if ms is None:
        raise InputFormatError("lift-uf needs measure values on the ultrafilter's space")
    right = _load(args.big, jsonio.space_from_obj)
    ps = product_space(ms, right)
    record = classify_family(family)
    lifted = lift_ultrafilter(ps, record, args.point)
    return 0, jsonio.record_to_obj(lifted, jsonio.product_to_obj(ps))


def _cmd_project_uf(args):
    from .products import project_ultrafilter

    ps, record = _load(args.space, jsonio.product_record_from_obj)
    left, right = project_ultrafilter(ps, record)
    return 0, {
        "left": jsonio.record_to_obj(left, jsonio.space_to_obj(ps.left)),
        "right": jsonio.record_to_obj(right, jsonio.space_to_obj(ps.right)),
    }


_VERBS = {
    "generate": (_cmd_generate, ["space"]),
    "atoms": (_cmd_atoms, ["space"]),
    "measure": (_cmd_measure, ["space", "set"]),
    "inner": (_cmd_inner, ["space", "set"]),
    "outer": (_cmd_outer, ["space", "set"]),
    "thick": (_cmd_thick, ["space", "set"]),
    "ultrafilters": (_cmd_ultrafilters, ["space"]),
    "classify-family": (_cmd_family, ["space"]),
    "extend-uf": (_cmd_family, ["space"]),
    "uf-to-measure": (_cmd_uf_to_measure, ["space"]),
    "measure-to-uf": (_cmd_measure_to_uf, ["space"]),
    "check-embed": (_cmd_check_embed, ["small", "big"]),
    "decompose": (_cmd_decompose, ["big", "set"]),
    "construct": (_cmd_construct, ["kit"]),
    "validate-kit": (_cmd_validate_kit, ["kit"]),
    "enumerate-extensions": (_cmd_enumerate_extensions, ["space", "extra"]),
    "classify-points": (_cmd_classify_points, ["big", "set"]),
    "product": (_cmd_product, ["small", "big"]),
    "section": (_cmd_section, ["space", "set", "point"]),
    "lift-uf": (_cmd_lift_uf, ["space", "big", "point"]),
    "project-uf": (_cmd_project_uf, ["space"]),
}

_FLAG_HELP = {
    "space": "path to the verb's primary JSON input ('-' for stdin)",
    "small": "path to the small/left space",
    "big": "path to the big/right space",
    "kit": "path to an extension-kit JSON file",
    "set": "JSON array of point labels",
    "point": "a single point label",
    "extra": "comma-separated fresh labels, each nonempty (omit it, or pass '', for none)",
}


def _parser(argv: list[str]) -> _Parser:
    """The parser for ``argv``: when it starts with a known verb, with that
    verb's subparser only; otherwise (an unknown verb, no verb, ``-h``)
    with all of them, so usage, help and the invalid-choice message list
    every verb."""
    parser = _Parser(prog="measpace", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = argv[:1] if argv and argv[0] in _VERBS else _VERBS
    for verb in verbs:
        flags = _VERBS[verb][1]
        p = sub.add_parser(verb)
        for flag in flags:
            required = flag != "extra"
            p.add_argument(f"--{flag}", required=required, help=_FLAG_HELP[flag])
        p.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def _emit(payload: dict, out: str | None) -> None:
    text = jsonio.canonical_dumps(payload)
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise _path_error(f"cannot write {out}: {exc.strerror or exc}", out) from None


def run(argv: list[str]) -> int:
    """Execute one verb; returns the process exit code."""
    try:
        args = _parser(argv).parse_args(argv)
        handler, _ = _VERBS[args.verb]
        code, payload = handler(args)
        _emit(payload, args.out)
        return code
    except MeaspaceError as exc:
        error = {"code": exc.code, "message": str(exc), "path": getattr(exc, "path", None)}
    except MemoryError:
        # reported once this clause has dropped the traceback, and with it
        # the frames that hold the partial result
        error = {"code": "out-of-memory", "message": "ran out of memory", "path": None}
    sys.stdout.write(jsonio.canonical_dumps({"error": error}))
    return 2


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
