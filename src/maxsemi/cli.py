"""Command-line front end.

Three subcommands: ``maximal`` computes the maximal subsemigroups,
``analyze`` reports Green's structure only, and ``dot`` renders one of
the associated graphs as DOT text.

Input is a JSON document on stdin or in a file, one of three kinds::

    {"kind": "transformations", "generators": [[1,3,4,1,5,5,5], ...]}
    {"kind": "cayley_table", "table": [[0,1],[1,0]], "generators": [1]}
    {"kind": "rzms", "group_degree": 4,
     "group_generators": ["(1 2)", "(1 2 3 4)"],
     "matrix": [["(3 4)", "0"], ["0", "(1 2)"]]}

Human-facing indices are 1-based (transformation image rows, cycle
notation, Rees matrix I indices); Lambda indices print as negative
numbers.  Everything is 0-based internally.  Output is deterministic:
identical inputs produce byte-identical documents unless ``--timings``
is given.

Exit codes: 0 success, 1 input error, 2 capacity bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import oracle as oracle_mod
from .errors import CapacityError, InputError
from .graphs import to_dot
from .max_subsemigroups import build_jclass_graphs, max_subsemigroups
from .perm_group import Permutation, cycle_string, generate_group, parse_cycles
from .rees_matrix import (
    ReesZeroMatrixSemigroup,
    ZERO,
    _elem_key,
    gh_vertex_label,
    graham_houghton,
    max_subsemigroups_rzms,
)
from .semigroup_core import (
    Transformation,
    closure,
    from_table,
    greens_structure,
    semigroup_from_rzms,
    x_prime,
)

SCHEMA_VERSION = 1
TYPE_TAGS = frozenset(
    [f"R{k}" for k in range(1, 7)] + ["MAX-TRIVIAL"]
    + [f"MAX-R{k}" for k in range(3, 7)] + [f"S{k}" for k in range(1, 7)])


# ---------------------------------------------------------------------------
# input parsing

def _load_spec(path):
    if path is None or path == "-":
        text = sys.stdin.read()
        source = "<stdin>"
    else:
        try:
            with open(path) as f:
                text = f.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
        source = path
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError(f"{source}: input must be an object with a 'kind' field")
    return spec


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


def _build_transformations(spec, max_size):
    gens_rows = spec.get("generators")
    if not gens_rows or not isinstance(gens_rows, list):
        raise InputError("transformations input needs a non-empty 'generators' list")
    if not all(_is_int_list(row) for row in gens_rows):
        raise InputError("each transformation generator must be a list of integers")
    degree = len(gens_rows[0])
    gens = []
    for row in gens_rows:
        if len(row) != degree:
            raise InputError("all transformation image rows must have equal length")
        if any(not 1 <= x <= degree for x in row):
            raise InputError(f"image row {row} must use 1-based points up to {degree}")
        gens.append(Transformation.one_based(row))
    return closure(gens, lambda a, b: a * b, max_size=max_size)


def _build_cayley_table(spec, max_size):
    table = spec.get("table")
    if not table or not isinstance(table, list):
        raise InputError("cayley_table input needs a non-empty 'table'")
    if not all(_is_int_list(row) for row in table):
        raise InputError("each table row must be a list of integers")
    gens = spec.get("generators")
    if gens is not None and not _is_int_list(gens):
        raise InputError("cayley_table 'generators' must be a list of integers")
    if len(table) > max_size:
        raise CapacityError(
            f"table has {len(table)} elements, over the bound {max_size}", bound=max_size)
    return from_table(table, gens)


def _build_rzms(spec, max_size) -> ReesZeroMatrixSemigroup:
    degree = spec.get("group_degree")
    if type(degree) is not int or degree < 1:
        raise InputError("rzms input needs a positive integer 'group_degree'")
    gen_texts = spec.get("group_generators", [])
    if not isinstance(gen_texts, list) or not all(isinstance(t, str) for t in gen_texts):
        raise InputError("rzms 'group_generators' must be a list of cycle strings")
    # |R| > |G|, so a group over the bound puts R over it: stop enumerating there
    group = generate_group(degree, [parse_cycles(t, degree) for t in gen_texts], max_size)
    matrix_rows = spec.get("matrix")
    if not matrix_rows or not isinstance(matrix_rows, list):
        raise InputError("rzms input needs a non-empty 'matrix'")
    rows = []
    for row in matrix_rows:
        if not isinstance(row, list):
            raise InputError("each rzms matrix row must be a list")
        parsed = []
        for entry in row:
            if not (isinstance(entry, str) or type(entry) is int and entry == 0):
                raise InputError(
                    f"matrix entry {entry!r} must be a cycle string or 0")
            if entry == "0" or entry == 0:
                parsed.append(None)
            else:
                p = parse_cycles(entry, degree)
                if p not in group.element_set:
                    raise InputError(f"matrix entry {entry!r} is not in the group")
                parsed.append(p)
        rows.append(tuple(parsed))
    return ReesZeroMatrixSemigroup(group, tuple(rows))


def _build_semigroup(spec, args):
    kind = spec["kind"]
    max_size = args.bound_closure
    if max_size < 1:
        raise InputError(f"--bound-closure must be at least 1, got {max_size}")
    if kind == "transformations":
        return _build_transformations(spec, max_size), None
    if kind == "cayley_table":
        return _build_cayley_table(spec, max_size), None
    if kind == "rzms":
        rzms = _build_rzms(spec, max_size)
        if rzms.size > max_size:
            raise CapacityError(
                f"Rees matrix semigroup has {rzms.size} elements, over the "
                f"bound {max_size}", bound=max_size)
        return None, rzms
    raise InputError(f"unknown input kind {kind!r}")


# ---------------------------------------------------------------------------
# element serialisation

def _element_out(kind, payload):
    if kind == "transformations":
        return [x + 1 for x in payload.images]
    if kind == "cayley_table":
        return payload
    if payload == ZERO:
        return "0"
    i, g, lam = payload
    return [i + 1, cycle_string(g), -(lam + 1)]


def _witness_out(tag, witness):
    if witness is None:
        return None
    if tag in ("R3", "MAX-R3"):
        return {"removed_lambda": -(witness[0] + 1)}
    if tag in ("R4", "MAX-R4"):
        return {"removed_i": witness[0] + 1}
    if tag in ("R5", "MAX-R5"):
        x, y = witness
        return {"kept_i": [i + 1 for i in x], "kept_lambda": [-(l + 1) for l in y]}
    if tag in ("R6", "MAX-R6", "S2"):
        subgroup_gens, cosets = witness
        return {
            "subgroup_generators": [cycle_string(Permutation(t)) for t in subgroup_gens],
            "coset_tuple": [cycle_string(Permutation(t)) for t in cosets],
        }
    if tag == "S3":
        return {"l_classes": list(witness[0]), "r_classes": list(witness[1])}
    if tag == "S4":
        return {"l_classes": list(witness[0])}
    if tag == "S5":
        return {"r_classes": list(witness[0])}
    return {"data": [list(w) if isinstance(w, tuple) else w for w in witness]}


def _jclass_summaries(sg, gs):
    out = []
    maximal = gs.maximal_j_classes()
    for j, members in enumerate(gs.j_classes):
        out.append({
            "id": j,
            "size": len(members),
            "regular": gs.regular_j[j],
            "maximal": j in maximal,
            "n_r_classes": len({gs.r_class[e] for e in members}),
            "n_l_classes": len({gs.l_class[e] for e in members}),
            "n_idempotents": sum(1 for e in members if e in gs.idempotents),
            "contains_generator": any(gs.j_class[g] == j for g in sg.generator_indices),
        })
    return out


def _rzms_jclass_summaries(rzms):
    return [
        {
            "id": 0,
            "size": rzms.size - 1,
            "regular": True,
            "maximal": True,
            "n_r_classes": rzms.num_cols,
            "n_l_classes": rzms.num_rows,
            "n_idempotents": sum(
                1 for row in rzms.matrix for e in row if e is not None),
            "contains_generator": True,
        },
        {
            "id": 1,
            "size": 1,
            "regular": True,
            "maximal": False,
            "n_r_classes": 1,
            "n_l_classes": 1,
            "n_idempotents": 1,
            "contains_generator": True,
        },
    ]


def _emit(doc, args, stream):
    if not args.timings:
        doc.pop("timings", None)
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_maximal(args, stream) -> int:
    wanted = set(args.types.split(",")) if args.types else None
    if wanted and not wanted <= TYPE_TAGS:
        unknown = ", ".join(map(repr, sorted(wanted - TYPE_TAGS)))
        raise InputError(f"unknown type tag {unknown} in --types; known tags are "
                         "R1-R6, MAX-TRIVIAL, MAX-R3-MAX-R6 and S1-S6")
    spec = _load_spec(args.input)
    started = time.perf_counter()
    sg, rzms = _build_semigroup(spec, args)
    kind = spec["kind"]

    # each result as (result, J-class, generator payloads, element indices);
    # the Rees results' indices are read lazily, only under --verify
    if rzms is not None:
        results = max_subsemigroups_rzms(rzms)
        results.sort(key=lambda r: (r.type_tag, sorted(map(_elem_key, r.element_set))))
        sg = semigroup_from_rzms(rzms) if args.verify else None
        rows = [(r, 0, r.generators, (sg.index(x) for x in r.element_set))
                for r in results]
        size = rzms.size
        summaries = _rzms_jclass_summaries(rzms)
    else:
        gs = greens_structure(sg)
        rows = [(r, r.j_class, [sg.elements[e] for e in r.generators], r.element_indices)
                for r in max_subsemigroups(sg)]
        size = sg.size
        summaries = _jclass_summaries(sg, gs)

    results_out = []
    counts: dict[str, int] = {}
    for r, j_class, gens, indices in rows:
        if wanted is not None and r.type_tag not in wanted:
            continue
        entry = {
            "type": r.type_tag,
            "j_class": j_class,
            "size": r.size,
            "generators": [_element_out(kind, x) for x in gens],
            "witness": _witness_out(r.type_tag, r.witness),
        }
        if args.verify:
            ok, msg = oracle_mod.verify_maximal(sg, indices)
            entry["verified"] = ok
            if not ok:
                entry["verify_diagnostic"] = msg
        counts[r.type_tag] = counts.get(r.type_tag, 0) + 1
        results_out.append(entry)

    doc = {
        "schema": SCHEMA_VERSION,
        "input": spec,
        "size": size,
        "j_classes": summaries,
        "maximal_subsemigroups": results_out,
        "counts_by_type": counts,
        "timings": {"total_s": round(time.perf_counter() - started, 6)},
    }
    _emit(doc, args, stream)
    return 0


def cmd_analyze(args, stream) -> int:
    spec = _load_spec(args.input)
    started = time.perf_counter()
    sg, rzms = _build_semigroup(spec, args)
    if rzms is not None:
        size = rzms.size
        summaries = _rzms_jclass_summaries(rzms)
        extra = {
            "graham_houghton_edges": len(graham_houghton(rzms).edges),
            "group_order": rzms.group.order,
        }
    else:
        gs = greens_structure(sg)
        size = sg.size
        summaries = _jclass_summaries(sg, gs)
        extra = {}
    doc = {
        "schema": SCHEMA_VERSION,
        "input": spec,
        "size": size,
        "j_classes": summaries,
        "timings": {"total_s": round(time.perf_counter() - started, 6)},
    }
    doc.update(extra)
    _emit(doc, args, stream)
    return 0


def _resolve_jclass(args, sg, gs):
    if args.jclass_of_generator is not None:
        k = args.jclass_of_generator
        if not 1 <= k <= len(sg.generator_indices):
            raise InputError(f"no generator number {k}")
        return gs.j_class[sg.generator_indices[k - 1]]
    if args.jclass is None:
        raise InputError("this graph needs --jclass or --jclass-of-generator")
    if not 0 <= args.jclass < len(gs.j_classes):
        raise InputError(f"no J-class {args.jclass}")
    return args.jclass


def cmd_dot(args, stream) -> int:
    spec = _load_spec(args.input)
    sg, rzms = _build_semigroup(spec, args)
    if args.graph == "gh":
        if rzms is None:
            raise InputError("--graph gh requires an rzms input")
        gh = graham_houghton(rzms)
        labels = {v: gh_vertex_label(rzms, v) for v in range(gh.vertex_count)}
        stream.write(to_dot(gh, labels=labels))
        return 0
    if rzms is not None:
        sg = semigroup_from_rzms(rzms)
    gs = greens_structure(sg)
    j = _resolve_jclass(args, sg, gs)
    if not gs.regular_j[j]:
        raise InputError(f"J-class {j} is not regular; no graphs are defined for it")
    jg = build_jclass_graphs(sg, gs, j, x_prime(sg, gs, j))
    nl = jg.gamma_l.component_count
    if args.graph == "gamma-l":
        labels = [f"L{jg.l_class_ids[v]}" for v in range(len(jg.l_class_ids))]
        stream.write(to_dot(jg.gamma_l, labels=labels))
        return 0
    if args.graph == "gamma-r":
        labels = [f"R{jg.r_class_ids[v]}" for v in range(len(jg.r_class_ids))]
        stream.write(to_dot(jg.gamma_r, labels=labels))
        return 0
    comp_labels = {}
    for k, comp in enumerate(jg.gamma_l.components):
        comp_labels[k] = "{" + ",".join(
            f"L{jg.l_class_ids[v]}" for v in sorted(comp)) + "}"
    for k, comp in enumerate(jg.gamma_r.components):
        comp_labels[nl + k] = "{" + ",".join(
            f"R{jg.r_class_ids[v]}" for v in sorted(comp)) + "}"
    target = jg.delta if args.graph == "delta" else jg.theta
    stream.write(to_dot(target, labels=comp_labels))
    return 0


# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maxsemi",
        description="Maximal subsemigroups of finite semigroups.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("input", nargs="?", default=None,
                        help="input JSON file (defaults to stdin)")
        sp.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the output")
        sp.add_argument("--bound-closure", type=int, default=100_000,
                        help="maximum number of elements to enumerate")

    m = sub.add_parser("maximal", help="compute all maximal subsemigroups")
    add_common(m)
    m.add_argument("--types", default=None,
                   help="comma-separated type tags to keep, from R1-R6, MAX-TRIVIAL, "
                        "MAX-R3-MAX-R6 and S1-S6 (e.g. R5,R6 or S3,S4)")
    m.add_argument("--verify", action="store_true",
                   help="check every result with the brute-force verifier")

    a = sub.add_parser("analyze", help="Green's structure summary only")
    add_common(a)

    d = sub.add_parser("dot", help="render an associated graph as DOT")
    add_common(d)
    d.add_argument("--graph", required=True,
                   choices=["gh", "gamma-l", "gamma-r", "delta", "theta"])
    d.add_argument("--jclass", type=int, default=None,
                   help="J-class id as reported by analyze")
    d.add_argument("--jclass-of-generator", type=int, default=None,
                   help="1-based generator number whose J-class to use")
    return p


def run(argv, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    args = _parser().parse_args(argv)
    handlers = {"maximal": cmd_maximal, "analyze": cmd_analyze, "dot": cmd_dot}
    try:
        return handlers[args.command](args, stream)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
