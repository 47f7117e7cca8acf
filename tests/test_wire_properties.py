"""Mutated gluing, ``koszul``, ``torsion-roundtrip``, ``derived-hom`` and
``cohomology`` inputs at the wire: a clean verdict or a named refusal.

The ``--family`` and ``--filtration`` inputs of the recorded ``glue``,
``compat-check``, ``lemma-equiv`` and ``localize`` cases in
``data/cli_golden.json`` are mutated: fields dropped, values swapped for
another JSON type, lists shortened, ints replaced by +-10^9, 10^18 + 3 or
10^400 + 1, every breakpoint shifted by +-10^9, and a label that the input
names put into a level, which may lie outside the down-set of a member.  Each call must exit 0, 1 or 2 within a
second, never raise, and an exit 2 must name a field of the input, a bound or
the order check that failed; a refusal by the degree-span bound needs
breakpoints that lie that far apart.  The ring JSON and ``--generators`` of
the recorded ``koszul`` cases take the same mutations; those calls get two
seconds, and an exit 2 must name a field of the ring or the generators, an
element of the ring, or a bound.  The ring JSON of the recorded
``torsion-roundtrip`` cases takes them too, under the same two seconds and
the same names.  The ``--complex``, ``--target`` and ``--degree`` of the
recorded ``derived-hom`` cases and the ``--complex`` of the recorded
``cohomology`` case take them too, under two seconds; an exit 2 must name a
field of the complex or module JSON, a term or differential by its degree,
the ``--degree`` option (which argparse refuses with exit 2 unless it is an
integer), the enumeration bound or the d o d check.  The ``--cosilting`` and
``--family`` JSON of the recorded cosilting verbs and the ``--filtration`` and
``--complex`` of the recorded ``coaisle-test`` cases on a differential take
them too, under two seconds; an exit 2 must name a field of the input, a
whole argument's JSON, an element of the ring, a term or differential by its
degree, a bound or the invariant that failed.  The ``--filtration``,
``--complex`` and ``--module`` of ``tests/test_cli.py``'s ``aisle-test``,
``tstr-classify``, ``tstr-localize`` and ``torsion`` calls, and the
``--ring`` of its ``spec`` calls, take them too, under two seconds and the
same kinds of names; so does the ``--set`` of its ``torsion`` calls, whose
refusals must name the field ``'set'``.  Each complex among these inputs may
also have one term or differential copied or moved to the degree key
+-10^9; a refusal by the degree-span bound needs terms that lie that far
apart.  The ``--max-poset``, ``--max-ring``
and ``--window`` of ``fuzz`` take integers around and far past the catalog
bounds, with every sweep replaced by an empty report; each call must exit 0
or 2 within two seconds, and an exit 2 must name a bound or the reversed
window.  No exit 2 of any of these calls may carry Python's own exception
text, such as "'int' object is not iterable": a reader names the field
whose shape it refuses.  Hypothesis runs derandomized, so the suite stays
deterministic.
"""

import contextlib
import io
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spectral_glue import sweeps
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
# far degree keys of a complex's terms and differentials: every degree
# between the lowest and highest term was walked before they were refused
FAR_KEYS = [str(10**9), str(-(10**9))]
# a far degree, and Z primes over the trial-division bound: the last two took
# minutes or raised before they were refused
BIGS = [10**9, -(10**9), 10**18 + 3, 10**400 + 1]
# the texts of Python's TypeError on a value of the wrong JSON type
PYTHON_TEXTS = ("object is not iterable", "object is not subscriptable", "indices must be integers")


LEVEL_KEYS = ("low_tail", "high_tail", "set")


def _labels(data, paths):
    """The labels that the poset elements or the levels of ``data`` name."""
    values = [_get(data, p) for p in paths if len(p) > 1 and p[-2] in LEVEL_KEYS + ("elements",)]
    return sorted({v for v in values if isinstance(v, str)})


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
        kind = draw(st.sampled_from(["drop", "swap", "shorten", "big", "shift", "relabel"]))
        ints = [p for p in paths if type(_get(data, p)) is int]
        if kind == "relabel":
            levels = [p for p in paths if p and p[-1] in LEVEL_KEYS]
            labels = _labels(data, paths)
            if levels and labels:
                path = draw(st.sampled_from(levels))
                level = _get(data, path)
                rest = level if isinstance(level, list) else []
                data = _put(data, path, [draw(st.sampled_from(labels))] + rest)
            continue
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
def mutated_complex(draw, data):
    """Complex JSON after ``mutated``, then perhaps with one term or
    differential copied or moved to a far degree key."""
    data = draw(mutated(data))
    fields = [
        data[name] for name in ("terms", "differentials")
        if isinstance(data, dict) and isinstance(data.get(name), dict) and data[name]
    ]
    if fields and draw(st.booleans()):
        field = draw(st.sampled_from(fields))
        key = draw(st.sampled_from(sorted(field)))
        far = draw(st.sampled_from(FAR_KEYS))
        field[far] = field.pop(key) if draw(st.booleans()) else field[key]
    return data


def _mutation(option, data):
    """The mutation of the JSON of ``option``: a complex may also take a far key."""
    return mutated_complex(data) if option in ("--complex", "--target") else mutated(data)


def _term_span(argv, option):
    """How many degrees apart the well-formed term keys of the complex JSON
    of ``option`` in ``argv`` lie, or 0."""
    data = json.loads(argv[argv.index(option) + 1]) if option in argv else None
    terms = data.get("terms") if isinstance(data, dict) else None
    if not isinstance(terms, dict):
        return 0
    degrees = [int(key) for key in terms if re.fullmatch(r"[+-]?[0-9]+", key)]
    return max(degrees) - min(degrees) if degrees else 0


def _check_span_refusal(argv, err):
    """A refusal of terms by the span bound needs a complex in ``argv``
    whose terms lie that far apart."""
    if "'terms' at degrees" in err:
        spans = [_term_span(argv, option) for option in ("--complex", "--target")]
        assert max(spans) > MAX_DEGREE_SPAN, (argv, err)


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


def _exits_cleanly(name, argv, seconds, named, codes=(0, 1, 2)) -> str:
    """Run one call; assert an exit in ``codes`` within ``seconds``, no
    traceback, and an exit 2 whose message ``named`` matches.  Returns the
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse refuses an option that is not of its type, such as a
            # --degree that is not an integer, by exiting 2 with a usage line
            code = exc.code
    assert time.monotonic() - start < seconds, (name, argv)
    assert code in codes, (name, argv)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert named.search(err.getvalue()), (name, argv, err.getvalue())
        assert not any(text in err.getvalue() for text in PYTHON_TEXTS), (name, argv, err.getvalue())
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


HOM_CASES = [
    (name, case["argv"])
    for name, case in sorted(GOLDEN.items())
    if {"derived-hom", "cohomology"} & set(case["argv"])
]
# a quoted field of the complex, module or ring element JSON, a term or
# differential at its degree, the --degree option, a bound, or the d o d check
HOM_NAMED = re.compile(
    r"'(terms|differentials|free|module|rank|relations|ring element)'|\b(complex|module) JSON\b"
    r"|\b(term|differential) at -?\d+|\bargument --degree\b|\btoo large to enumerate\b"
    r"|\bd o d != 0 at degree\b"
)


@st.composite
def mutated_hom_argv(draw):
    """A recorded ``derived-hom`` call with its complex, its target, its
    degree or several of them mutated, or a recorded ``cohomology`` call with
    its complex mutated."""
    name, argv = draw(st.sampled_from(HOM_CASES))
    argv = list(argv)
    options = [option for option in ("--complex", "--target", "--degree") if option in argv]
    for option in draw(st.lists(st.sampled_from(options), min_size=1, unique=True)):
        k = argv.index(option) + 1
        argv[k] = json.dumps(draw(_mutation(option, json.loads(argv[k]))))
    return name, argv


@DERANDOMIZED
@given(mutated_hom_argv())
def test_mutated_hom_inputs_exit_cleanly(case):
    _check_span_refusal(case[1], _exits_cleanly(*case, 2, HOM_NAMED))


COSILTING_CASES = [
    (name, case["argv"])
    for name, case in sorted(GOLDEN.items())
    if {"cosilting-set", "cosilting-split", "cosilting-glue"} & set(case["argv"])
    or name.startswith("coaisle-test-differential")
]
# a quoted field of the cosilting, module, ring, filtration or complex JSON, a
# whole argument's JSON, the ring kind, an element of the ring, a term or
# differential at its degree, a bound, or the invariant that failed
COSILTING_NAMED = re.compile(
    r"'(ring|q0|q1|eta|components|rank|relations|kind|n|p|f|factors|ring element"
    r"|low_tail|high_tail|breakpoints|set|terms|differentials|free|module)'"
    r"|\b(cosilting|module|ring|filtration|complex) JSON\b|\bring kind\b|\ban element of\b"
    r"|\b(term|differential) at -?\d+|\bbreakpoint ind(ex|ices)\b|\bbound\b|MAX_[A-Z_]+ = \d+"
    r"|\brank must be nonnegative\b"
    r"|\brelations of Q0\b|\btails differ\b|\bfiltration not decreasing\b"
)


@st.composite
def mutated_cosilting_argv(draw):
    """A recorded cosilting call with its ``--cosilting`` or ``--family``
    mutated, or a recorded ``coaisle-test`` call on a differential with its
    filtration, its complex or both mutated."""
    name, argv = draw(st.sampled_from(COSILTING_CASES))
    argv = list(argv)
    options = [o for o in ("--cosilting", "--family", "--filtration", "--complex") if o in argv]
    for option in draw(st.lists(st.sampled_from(options), min_size=1, unique=True)):
        k = argv.index(option) + 1
        argv[k] = json.dumps(draw(_mutation(option, json.loads(argv[k]))))
    return name, argv


@DERANDOMIZED
@given(mutated_cosilting_argv())
def test_mutated_cosilting_and_coaisle_inputs_exit_cleanly(case):
    _check_span_refusal(case[1], _exits_cleanly(*case, 2, COSILTING_NAMED))


# the calls of tests/test_cli.py on the t-structure verbs, ``torsion`` and
# ``spec``, with the options each test mutates; its Koszul complex K(2) gives
# ``aisle-test`` a differential, and a cyclic module a relation to mutate
Z12 = json.dumps({"kind": "zmod", "n": 12})
STEP_AT_2 = json.dumps(
    {"low_tail": "full", "breakpoints": [{"n": 0, "set": ["(2)"]}], "high_tail": []}
)


def _stalk(relation):
    return json.dumps(
        {"terms": {"0": {"module": {"relations": [[relation]]}}}, "differentials": {}}
    )


K2 = json.dumps({"terms": {"-1": {"free": 1}, "0": {"free": 1}}, "differentials": {"-1": [[2]]}})
VERB_CASES = [
    (["aisle-test", "--ring", Z12, "--filtration", STEP_AT_2, "--complex", _stalk(2)],
     ["--filtration", "--complex"]),
    (["aisle-test", "--ring", Z12, "--filtration", STEP_AT_2, "--complex", _stalk(3)],
     ["--filtration", "--complex"]),
    (["aisle-test", "--ring", Z12, "--filtration", STEP_AT_2, "--complex", K2],
     ["--filtration", "--complex"]),
    (["tstr-classify", "--ring", Z12, "--filtration", STEP_AT_2], ["--filtration"]),
    (["tstr-localize", "--ring", Z12, "--filtration", STEP_AT_2], ["--filtration"]),
    (["torsion", "--ring", Z12, "--module", json.dumps({"relations": [], "rank": 1}),
      "--set", '["(2)"]'], ["--module"]),
    (["torsion", "--ring", Z12, "--module", json.dumps({"relations": [[4]], "rank": 1}),
      "--set", '["(3)"]'], ["--module"]),
    (["spec", "--ring", Z12], ["--ring"]),
    (["spec", "--ring", json.dumps({"kind": "poly_quot", "p": 3, "f": [2, 0, 1]})], ["--ring"]),
    (["spec", "--ring", json.dumps({"kind": "product", "factors": [
        {"kind": "zmod", "n": 4}, {"kind": "poly_quot", "p": 2, "f": [0, 0, 1]}]})], ["--ring"]),
]
# a quoted field of the filtration, complex, module or ring JSON, a whole
# argument's JSON, the ring kind, an element of the ring, a term or
# differential at its degree, a bound, or the check that failed
VERB_NAMED = re.compile(
    r"'(low_tail|high_tail|breakpoints|n|set|terms|differentials|free|module|rank|relations"
    r"|kind|p|f|factors|ring element)'"
    r"|\b(filtration|complex|module|ring) JSON\b|\bring kind\b|\ban element of\b"
    r"|\b(term|differential) at -?\d+|\bbreakpoint ind(ex|ices)\b|\bbound\b"
    r"|MAX_[A-Z_]+ = \d+|\btoo large to enumerate\b|\bd o d != 0 at degree\b"
    r"|\btails differ\b|\bfiltration not decreasing\b"
)


@st.composite
def mutated_verb_argv(draw):
    """A ``test_cli`` call of ``aisle-test``, ``tstr-classify``,
    ``tstr-localize``, ``torsion`` or ``spec`` with one or more of its
    filtration, complex, module or ring JSON mutated."""
    argv, options = draw(st.sampled_from(VERB_CASES))
    argv = list(argv)
    for option in draw(st.lists(st.sampled_from(options), min_size=1, unique=True)):
        k = argv.index(option) + 1
        argv[k] = json.dumps(draw(_mutation(option, json.loads(argv[k]))))
    return argv[0], argv


@DERANDOMIZED
@given(mutated_verb_argv())
def test_mutated_tstructure_torsion_and_spec_inputs_exit_cleanly(case):
    _check_span_refusal(case[1], _exits_cleanly(*case, 2, VERB_NAMED))


TORSION_SET_CASES = [argv for argv, _ in VERB_CASES if argv[0] == "torsion"]


@st.composite
def mutated_torsion_set_argv(draw):
    """A ``test_cli`` call of ``torsion`` with its ``--set`` mutated."""
    argv = list(draw(st.sampled_from(TORSION_SET_CASES)))
    k = argv.index("--set") + 1
    argv[k] = json.dumps(draw(mutated(json.loads(argv[k]))))
    return "torsion", argv


@DERANDOMIZED
@given(mutated_torsion_set_argv())
def test_mutated_torsion_sets_exit_cleanly(case):
    _exits_cleanly(*case, 2, re.compile(r"'set'"))


# a bound by its name and value, or the reversed window
FUZZ_NAMED = re.compile(r"MAX_[A-Z_]+ = \d+|\bbound of \d+|\bis reversed\b")
FUZZ_INTS = st.one_of(
    st.integers(-3, 12), st.integers(-400, 400), st.sampled_from(BIGS + [10**9 + 7])
)


@st.composite
def fuzz_argv(draw):
    """``fuzz`` with its ``--max-poset``, ``--max-ring`` and ``--window``."""
    argv = ["fuzz", "--max-poset", str(draw(FUZZ_INTS)), "--max-ring", str(draw(FUZZ_INTS))]
    return argv + ["--window", str(draw(FUZZ_INTS)), str(draw(FUZZ_INTS))]


def _empty_sweep(**_):
    return sweeps.SweepReport("empty")


@DERANDOMIZED
@given(fuzz_argv())
def test_fuzz_bounds_exit_cleanly(argv):
    # every bound is checked before a sweep starts, so the sweeps need not run
    with pytest.MonkeyPatch.context() as patched:
        for name in [n for n in vars(sweeps) if n.startswith("sweep_")]:
            patched.setattr(sweeps, name, _empty_sweep)
        _exits_cleanly("fuzz", argv, 2, FUZZ_NAMED, codes=(0, 2))
