"""Workload inputs, seeded relabelling and the representation-independent
correctness gate.

This module never imports maxsemi: the set-up probes time the package
import, and the gate must judge results without trusting the code under
test.  Every element is written in the input's human-facing notation of
the seed-0 input (1-based transformation rows, ``i|cycles|-lambda``
triples, ``0`` for the zero), so a change of internal representation does
not move the digest.

Seed 0 reproduces the pinned inputs exactly.  Any other seed draws an
isomorphic relabelling: the group conjugated and the matrix rows and
columns permuted for the Rees workloads, the points conjugated and the
generators reordered for the transformation workload.  The relabelled
input has the same structure and cost, which keeps the run-to-run spread
across seeds small; the gate maps results back through the relabelling
and compares them with the one reference recorded at seed 0.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass

WORKLOADS = ("semigroup-s4", "brandt-a5", "transform-t6")

# tests/data/rzms_s4.json, the paper's running example
S4_SPEC = {
    "kind": "rzms",
    "group_degree": 4,
    "group_generators": ["(1 2)", "(1 2 3 4)"],
    "matrix": [
        ["(3 4)", "(1 3 2 4)", "(1 4)(2 3)", "0", "0", "0"],
        ["(2 4)", "0", "(1 3 2)", "0", "0", "0"],
        ["0", "(3 4)", "0", "0", "0", "0"],
        ["0", "0", "0", "(1 4 3)", "(1 3)(2 4)", "0"],
        ["0", "0", "0", "(1 4)", "(1 4 2)", "0"],
        ["0", "0", "0", "0", "0", "(1 4 2)"],
    ],
}

# Brandt(A5, 3)
A5_SPEC = {
    "kind": "rzms",
    "group_degree": 5,
    "group_generators": ["(1 2 3)", "(1 2 3 4 5)"],
    "matrix": [["()", "0", "0"], ["0", "()", "0"], ["0", "0", "()"]],
}

# a seeded random draw inside T6: 1 274 elements, 8 J-classes,
# non-maximal regular generator classes, H-classes of order at most 6
T6_SPEC = {
    "kind": "transformations",
    "generators": [[3, 1, 3, 5, 2, 6], [4, 6, 6, 5, 5, 4],
                   [2, 5, 5, 2, 4, 6], [5, 4, 4, 4, 5, 2]],
}

PINNED = {"semigroup-s4": S4_SPEC, "brandt-a5": A5_SPEC, "transform-t6": T6_SPEC}


# ---------------------------------------------------------------------------
# permutations as 0-based image tuples; ``compose(a, b)`` applies a first,
# the left-to-right convention of the input notation

def compose(a, b):
    return tuple(b[x] for x in a)


def invert(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def parse_cycles(text, degree):
    images = list(range(degree))
    for body in text.replace(")", "(").split("("):
        points = [int(tok) - 1 for tok in body.split()]
        cycle = list(range(degree))
        for a, b in zip(points, points[1:] + points[:1]):
            cycle[a] = b
        images = [cycle[x] for x in images]
    return tuple(images)


def cycle_string(p):
    seen = set()
    out = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = p[nxt]
        out.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(out) or "()"


def _random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


# ---------------------------------------------------------------------------
# seeded inputs

@dataclass(frozen=True)
class Relabel:
    """The isomorphism from the seed-0 input onto the generated one.

    Rees workloads: (i, g, lam) -> (col[i], conj^-1 g conj, row[lam]).
    Transformation workload: t -> conj^-1 t conj."""

    conj: tuple
    col: tuple = ()
    row: tuple = ()


def make_input(workload, seed):
    """(spec, relabel): the input the program receives for this seed."""
    base = PINNED[workload]
    rng = random.Random(f"{workload}:{seed}")
    if base["kind"] == "rzms":
        degree = base["group_degree"]
        m, n = len(base["matrix"][0]), len(base["matrix"])
        if seed == 0:
            rel = Relabel(tuple(range(degree)), tuple(range(m)), tuple(range(n)))
        else:
            rel = Relabel(_random_perm(rng, degree), _random_perm(rng, m),
                          _random_perm(rng, n))
        cinv = invert(rel.conj)

        def conj(text):
            return cycle_string(compose(compose(cinv, parse_cycles(text, degree)), rel.conj))

        matrix = [["0"] * m for _ in range(n)]
        for lam, entries in enumerate(base["matrix"]):
            for i, e in enumerate(entries):
                matrix[rel.row[lam]][rel.col[i]] = "0" if e == "0" else conj(e)
        spec = dict(base, group_generators=[conj(t) for t in base["group_generators"]],
                    matrix=matrix)
        return spec, rel
    degree = len(base["generators"][0])
    if seed == 0:
        return base, Relabel(tuple(range(degree)))
    rel = Relabel(_random_perm(rng, degree))
    cinv = invert(rel.conj)
    gens = []
    for row in base["generators"]:
        t = tuple(x - 1 for x in row)
        gens.append([x + 1 for x in compose(compose(cinv, t), rel.conj)])
    rng.shuffle(gens)
    return dict(base, generators=gens), rel


# ---------------------------------------------------------------------------
# canonical element notation (seed-0 labels)

def _canon_rees(rel, degree):
    inv_col, inv_row = invert(rel.col), invert(rel.row)
    cinv = invert(rel.conj)

    def canon(i, g, lam):
        g0 = compose(compose(rel.conj, g), cinv)
        return f"{inv_col[i] + 1}|{cycle_string(g0)}|{-(inv_row[lam] + 1)}"

    return canon


def canon_library_elements(spec, rel, elements):
    """Canonical strings for the raw payload list a worker reports for a
    library workload: 0, [i, images, lam] or transformation images."""
    if spec["kind"] == "rzms":
        canon = _canon_rees(rel, spec["group_degree"])
        return ["0" if e == 0 else canon(e[0], tuple(e[1]), e[2]) for e in elements]
    cinv = invert(rel.conj)
    return [" ".join(str(x + 1) for x in compose(compose(rel.conj, tuple(e)), cinv))
            for e in elements]


class ReesModel:
    """Independent integer model of a Rees 0-matrix semigroup given as a
    CLI spec, used to regenerate each result from its generators."""

    def __init__(self, spec, rel):
        degree = spec["group_degree"]
        gens = [parse_cycles(t, degree) for t in spec["group_generators"]]
        elems = [tuple(range(degree))]
        seen = set(elems)
        for p in elems:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    elems.append(q)
        self.degree = degree
        self.g_index = {g: k for k, g in enumerate(elems)}
        order = len(elems)
        mul = [[self.g_index[compose(a, b)] for b in elems] for a in elems]
        matrix = [[-1 if e == "0" else self.g_index[parse_cycles(e, degree)] for e in row]
                  for row in spec["matrix"]]
        triples = [(i, g, lam) for i in range(len(matrix[0])) for g in range(order)
                   for lam in range(len(matrix))]
        self.code = {t: k + 1 for k, t in enumerate(triples)}
        size = len(triples) + 1
        self.table = [[0] * size]
        for i, g, lam in triples:
            row = [0]
            for k, h, mu in triples:
                p = matrix[lam][k]
                row.append(0 if p < 0 else self.code[(i, mul[mul[g][p]][h], mu)])
            self.table.append(row)
        canon = _canon_rees(rel, degree)
        self.canon = ["0"] + [canon(i, elems[g], lam) for i, g, lam in triples]

    def element_code(self, out):
        """Code of a CLI element: "0" or [i, "cycles", -lambda]."""
        if out == "0":
            return 0
        i, cycles, lam = out
        return self.code[(i - 1, self.g_index[parse_cycles(cycles, self.degree)], -lam - 1)]

    def closure(self, gen_codes):
        gens = list(dict.fromkeys(gen_codes))
        members = set(gens)
        queue = list(gens)
        table = self.table
        while queue:
            frontier = []
            for a in queue:
                row = table[a]
                for g in gens:
                    b = row[g]
                    if b not in members:
                        members.add(b)
                        frontier.append(b)
            queue = frontier
        return members


# ---------------------------------------------------------------------------
# fingerprints and the gate

@dataclass(frozen=True)
class Result:
    type_tag: str
    declared_size: int
    elements: frozenset  # canonical element strings


def canonical_results(spec, rel, output, model=None):
    """The operation's results as canonical element sets."""
    if "document" in output:
        doc = json.loads(output["document"])
        model = model or ReesModel(spec, rel)
        out = []
        for entry in doc["maximal_subsemigroups"]:
            codes = model.closure(model.element_code(x) for x in entry["generators"])
            out.append(Result(entry["type"], entry["size"],
                              frozenset(model.canon[c] for c in codes)))
        return out
    names = canon_library_elements(spec, rel, output["elements"])
    return [Result(tag, size, frozenset(names[k] for k in indices))
            for tag, size, indices in output["results"]]


def _result_digest(r):
    body = "\n".join(sorted(r.elements)).encode()
    return f"{r.type_tag} {len(r.elements)} {hashlib.sha256(body).hexdigest()}"


def fingerprint(results):
    """Counts by type, the multiset of sizes and one digest over the
    canonical element sets.  Generators are deliberately left out."""
    sizes = Counter(len(r.elements) for r in results)
    lines = sorted(_result_digest(r) for r in results)
    return {
        "counts": dict(sorted(Counter(r.type_tag for r in results).items())),
        "sizes": {str(k): v for k, v in sorted(sizes.items())},
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def gate(results, reference):
    """Problems found in one operation's results; empty means correct."""
    problems = []
    for r in results:
        if r.declared_size != len(r.elements):
            problems.append(f"a {r.type_tag} result declares size {r.declared_size} "
                            f"but holds {len(r.elements)} elements")
            break
    got = fingerprint(results)
    for key in ("counts", "sizes", "digest"):
        if got[key] != reference[key]:
            problems.append(f"{key} differ from the reference: {got[key]} != {reference[key]}")
    return problems
