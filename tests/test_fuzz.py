# Seeded mutation fuzzing of the command line: every bundled fixture, a
# Hermitian document and the generator parameters, each with one or two
# values replaced or deleted at random paths, run through main(argv) in
# process under small budgets.  Whatever the document, a run ends in exit
# code 0, 1, 2 or 3, never in an uncaught exception, and a refusal (2 or 3)
# prints one error line and nothing on stdout.

import copy
import io
import json
import random
import sys
from functools import reduce
from operator import getitem

from orthokit import cli, corpus
from test_cli import HERMITIAN_DOC

# no integer near the orthoset generators' cap: K2000 alone takes seconds
POOL = (None, True, False, 0, 1, 3, -1, 0.5, -2.0, 2**70, -(2**70), 2**100,
        "", "a", "1/0", "0/0", "1/0+i", [], [[]], [["a", "b"]], [1, [2, [3]]],
        {}, {"a": "b"}, {"ortho": {}, "payload": []})

GENERATORS = {
    "complete_graph": {"n": 3},
    "random_orthoset": {"n": 5, "p": 0.5},
    "boolean": {"n": 2},
    "mo_n": {"n": 2},
    "horizontal_sum": {"ranks": [1, 2]},
}
COMMANDS = {
    "orthoset": (["check"], ["lattice"], ["lattice", "--roundtrip"], ["sasaki"], ["finch"]),
    "lattice": (["oml"], ["lattice"], ["lattice", "--roundtrip"]),
    "hermitian": (["hermitian", "check"],),
}
SMALL_BUDGETS = ["--family-budget", "64", "--clique-budget", "256", "--node-budget", "2000",
                 "--lattice-cap", "32", "--automorphism-bound", "5"]


def _paths(value, path=()):
    """Every path into a JSON value, the value's own (empty) path first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, path + (key,))


def mutate(doc, rng):
    """A copy of doc with the value at one random path deleted from its
    container, or replaced by a pool value or by the value at another path
    of doc (which keeps more documents valid)."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    path = rng.choice(paths)
    if rng.random() < 0.5:
        value = rng.choice(POOL)
    else:
        value = reduce(getitem, rng.choice(paths), doc)
    value = copy.deepcopy(value)
    if not path:
        return value
    parent = reduce(getitem, path[:-1], doc)
    if rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def cases(seed, count):
    """count (argv, document) pairs, a function of seed alone; argv reads
    the document from stdin ("-"), and a generator run reads none."""
    rng = random.Random(seed)
    fixtures = [corpus.load(name) for name in corpus.list_names()]
    subjects = [(f["kind"], {"kind": f["kind"], "payload": f["payload"]}) for f in fixtures]
    subjects.append(("hermitian", HERMITIAN_DOC))
    for _ in range(count):
        if rng.random() < 0.2:
            kind = rng.choice(sorted(GENERATORS))
            params = GENERATORS[kind]
            for _ in range(rng.randint(1, 2)):
                params = mutate(params, rng)
            yield ["corpus", "generate", kind, "--params", json.dumps(params)], None
            continue
        kind, doc = rng.choice(subjects)
        command = rng.choice(COMMANDS[kind])
        for _ in range(rng.randint(1, 2)):
            doc = mutate(doc, rng)
        yield [*command, "-"], doc


def test_mutated_documents_end_in_an_exit_code(capsys, monkeypatch):
    codes = []
    for argv, doc in cases(seed=0, count=400):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code = cli.main([*argv, *SMALL_BUDGETS])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        if code in (2, 3):
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, doc, err)
        codes.append(code)
    # the mutations leave some documents valid and refuse others
    assert codes.count(0) > 20 and codes.count(2) > 200
