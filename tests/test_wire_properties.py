"""Mutated gluing, ``koszul`` and ``torsion-roundtrip`` inputs at the wire:
a clean verdict or a named refusal.

The ``--family`` and ``--filtration`` inputs of the recorded ``glue``,
``compat-check``, ``lemma-equiv`` and ``localize`` cases in
``data/cli_golden.json`` are mutated: fields dropped, values swapped for
another JSON type, lists shortened, ints replaced by +-10^9, 10^18 + 3 or
10^400 + 1, and every breakpoint shifted by +-10^9.  Each call must exit 0, 1 or 2 within a
second, never raise, and an exit 2 must name a field of the input, a bound or
the order check that failed; a refusal by the degree-span bound needs
breakpoints that lie that far apart.  The ring JSON and ``--generators`` of
the recorded ``koszul`` cases take the same mutations; those calls get two
seconds, and an exit 2 must name a field of the ring or the generators, an
element of the ring, or a bound.  The ring JSON of the recorded
``torsion-roundtrip`` cases takes them too, under the same two seconds and
the same names.  Hypothesis runs derandomized, so the suite stays
deterministic.
"""

import contextlib
import io
import json
import re
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from spectral_glue.cli import main
from spectral_glue.thomason import MAX_DEGREE_SPAN

with open(Path(__file__).parent / "data" / "cli_golden.json") as _fh:
    GOLDEN = json.load(_fh)

VERBS = ("glue", "compat-check", "lemma-equiv", "localize")
CASES = [
    (name, case["argv"])
    for name, case in sorted(GOLDEN.items())
    if any(verb in case["argv"] for verb in VERBS)
]
# a quoted wire field, a whole argument's JSON, a bound, an order refusal, a
# verb that runs on finite posets only, or over Z the one default that cannot
# be glued
NAMED = re.compile(
    r"'(low_tail|high_tail|breakpoints|n|set|elements|leq|default|exceptions)'"
    r"|\b(family|poset|filtration) JSON\b|\bbreakpoint ind(ex|ices)\b|\bring kind\b"
    r"|MAX_[A-Z_]+ = \d+"
    r"|\bfiltration not decreasing\b|\btails differ\b"
    r"|\bruns on finite posets only\b|\bdefault populates the closed point\b"
)
# a quoted field of the ring or generators JSON, the ring kind, an element
# of the named ring, or a bound
KOSZUL_NAMED = re.compile(
    r"'(kind|n|p|f|factors|generators|ring element)'|\bring JSON\b|\bring kind\b"
    r"|\ban element of\b|\bbound\b"
)
SWAPS = [5, -1, 2.5, True, None, "x", "full", [], {}]
# a far degree, and Z primes over the trial-division bound: the last two took
# minutes or raised before they were refused
BIGS = [10**9, -(10**9), 10**18 + 3, 10**400 + 1]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _input_index(argv):
    return argv.index("--family" if "--family" in argv else "--filtration") + 1


def _breakpoint_degrees(node):
    """Every integer "n" of a breakpoint in the JSON ``node``."""
    if isinstance(node, dict):
        if type(node.get("n")) is int:
            yield node["n"]
        for value in node.values():
            yield from _breakpoint_degrees(value)
    elif isinstance(node, list):
        for value in node:
            yield from _breakpoint_degrees(value)


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _put(root, path, value):
    if not path:
        return value
    _get(root, path[:-1])[path[-1]] = value
    return root


@st.composite
def mutated(draw, data):
    """``data`` after one to three mutations."""
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        kind = draw(st.sampled_from(["drop", "swap", "shorten", "big", "shift"]))
        ints = [p for p in paths if type(_get(data, p)) is int]
        if kind == "big" and ints:
            data = _put(data, draw(st.sampled_from(ints)), draw(st.sampled_from(BIGS)))
            continue
        if kind == "shift":
            # every breakpoint moves by the same far offset, which keeps a valid
            # input valid: the members that are constant stay where they were
            offset = draw(st.sampled_from([10**9, -(10**9)]))
            for path in ints:
                if path and path[-1] == "n":
                    _put(data, path, _get(data, path) + offset)
            continue
        path = draw(st.sampled_from(paths))
        value = _get(data, path)
        if kind == "drop" and path:
            del _get(data, path[:-1])[path[-1]]
        elif kind == "shorten" and isinstance(value, list) and value:
            del value[draw(st.integers(0, len(value) - 1)) :]
        else:
            swap = draw(st.sampled_from([v for v in SWAPS if type(v) is not type(value)]))
            data = _put(data, path, json.loads(json.dumps(swap)))
    return data


@st.composite
def mutated_argv(draw):
    name, argv = draw(st.sampled_from(CASES))
    k = _input_index(argv)
    data = draw(mutated(json.loads(argv[k])))
    return name, argv[:k] + [json.dumps(data)] + argv[k + 1 :]


DERANDOMIZED = settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _exits_cleanly(name, argv, seconds, named) -> str:
    """Run one call; assert exit 0, 1 or 2 within ``seconds``, no traceback,
    and an exit 2 whose message ``named`` matches.  Returns the stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.monotonic() - start < seconds, (name, argv)
    assert code in (0, 1, 2), (name, argv)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert named.search(err.getvalue()), (name, argv, err.getvalue())
    return err.getvalue()


@DERANDOMIZED
@given(mutated_argv())
def test_mutated_gluing_inputs_exit_cleanly(case):
    name, argv = case
    if "MAX_DEGREE_SPAN" in _exits_cleanly(name, argv, 1, NAMED):
        # every member's window lies inside its own breakpoints, so only input
        # whose breakpoints lie that far apart may be refused by the span bound
        ns = list(_breakpoint_degrees(json.loads(argv[_input_index(argv)])))
        assert max(ns) - min(ns) > MAX_DEGREE_SPAN, (name, argv)


KOSZUL_CASES = [
    (name, case["argv"]) for name, case in sorted(GOLDEN.items()) if "koszul" in case["argv"]
]


@st.composite
def mutated_koszul_argv(draw):
    """A recorded ``koszul`` call with its ring JSON, its generators or both mutated."""
    name, argv = draw(st.sampled_from(KOSZUL_CASES))
    argv = list(argv)
    for option in draw(st.sampled_from([["--ring"], ["--generators"], ["--ring", "--generators"]])):
        k = argv.index(option) + 1
        argv[k] = json.dumps(draw(mutated(json.loads(argv[k]))))
    return name, argv


@DERANDOMIZED
@given(mutated_koszul_argv())
def test_mutated_koszul_inputs_exit_cleanly(case):
    _exits_cleanly(*case, 2, KOSZUL_NAMED)


TORSION_CASES = [
    (name, case["argv"])
    for name, case in sorted(GOLDEN.items())
    if case["argv"][0] == "torsion-roundtrip"
]


@st.composite
def mutated_torsion_argv(draw):
    """A recorded ``torsion-roundtrip`` call with its ring JSON mutated."""
    name, argv = draw(st.sampled_from(TORSION_CASES))
    k = argv.index("--ring") + 1
    return name, argv[:k] + [json.dumps(draw(mutated(json.loads(argv[k]))))] + argv[k + 1 :]


@DERANDOMIZED
@given(mutated_torsion_argv())
def test_mutated_torsion_roundtrip_inputs_exit_cleanly(case):
    _exits_cleanly(*case, 2, KOSZUL_NAMED)
