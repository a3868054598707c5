import argparse
import json
import time
from functools import partial
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hermsurf import cli, finite_field, theorems
from hermsurf.cli import MAX_SURFACE_Q, _dumps, _form_text, _forms_text, _Fragment, main
from hermsurf.finite_field import build_field
from hermsurf.forms import (
    class_count,
    class_vectors,
    form_from_vector,
    form_to_json,
    monomial_count,
    vector_to_json,
)
from hermsurf.hermitian import HermitianSurface, canonical_surface


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_report(text):
    return json.loads(text)["report"]


def test_verify_counts_q2(capsys):
    code, out, _ = run(capsys, "verify-counts", "--q", "2")
    assert code == 0
    report = load_report(out)
    assert report["pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"surface_point_count", "generator_count", "planar_section_sizes",
            "dual_tangency_criterion", "book_tangent_counts",
            "tangent_plane_line_census"} <= names


def test_census_makes_no_classify_line_call(monkeypatch):
    """The census and the tangent-plane line census count surface points on
    id arrays instead of classifying one line at a time."""
    def refuse(*args):
        raise AssertionError("a line was classified one at a time")

    monkeypatch.setattr(HermitianSurface, "classify_line", refuse)
    assert cli.census_report(3, seed=0)["pass"] is True
    s = canonical_surface(3)
    for pid in s.point_ids[[0, 100, 279]].tolist():
        census = s.tangent_plane_line_census(s.geometry.points[pid])
        assert (census.generators, census.tangents_through_point, census.secants,
                census.total_lines) == (4, 6, 81, 91)


@pytest.mark.parametrize("seed", [0, 5])
def test_census_draw_order(monkeypatch, seed):
    """census_report(4, seed) draws 500 point pairs for the sampled
    trichotomy, then 50 generator indices, then one point pair at a time
    for the books until 50 tangents and 50 secants are found, then 10
    surface points."""
    calls = []

    class Recording(Random):
        def sample(self, population, k, **kwargs):
            drawn = super().sample(population, k, **kwargs)
            calls.append((len(population), k, drawn))
            return drawn

    monkeypatch.setattr(cli, "Random", Recording)
    assert cli.census_report(4, seed)["pass"] is True
    s = canonical_surface(4)
    g = s.geometry
    shapes = [call[:2] for call in calls]
    assert shapes[:500] == [(g.n_points, 2)] * 500
    assert shapes[500] == (len(s.generators()), 50)
    assert shapes[-1] == (s.n_surface_points(), 10)
    books = calls[501:-1]
    assert books and {call[:2] for call in books} == {(g.n_points, 2)}
    found = {1: 0, 5: 0}  # tangents and secants drawn so far
    for _, _, pair in books:
        assert min(found.values()) < 50  # no pair is drawn after the last one needed
        count = int((s.position_of[list(g.line_between_ids(*pair).point_ids)] >= 0).sum())
        if count in found:
            found[count] += 1
    assert min(found.values()) == 50


def test_verify_counts_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "verify-counts", "--q", "6")
    assert code == 1
    assert "prime power" in err


def test_main_builds_the_parser_once(capsys, monkeypatch):
    """The parser is built on the first call and reused by the next."""
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def spy(self, *args, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
    cli._parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "verify-counts", "--q", "6")[0] == 1
    assert built == ["hermsurf"]


def test_search_exhaustive_reproducible(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["search", "--q", "2", "--d", "1", "--workers", "1", "--out", str(out1)]) == 0
    assert main(["search", "--q", "2", "--d", "1", "--workers", "1", "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["report"] == b["report"]
    assert a["report"]["max_count"] == 13
    assert a["report"]["sorensen_bound"] == 13
    assert a["report"]["argmax_total"] == 45


def test_search_workers_match_serial(tmp_path):
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.json"
        assert main(["search", "--q", "2", "--d", "2", "--workers", workers,
                     "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text())["report"])
    assert reports[0] == reports[1]
    assert reports[0]["argmax_total"] == 720


def test_search_random_reproducible(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["search", "--q", "2", "--d", "2", "--mode", "random",
            "--samples", "300", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert json.loads(out1.read_text())["report"] == json.loads(out2.read_text())["report"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_search_refuses_fewer_than_one_worker(capsys, workers):
    code, out, err = run(capsys, "search", "--q", "2", "--d", "1", "--workers", workers)
    assert code == 1
    assert out == ""
    assert f"workers must be at least 1, got {workers}" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_random_search_refuses_fewer_than_one_worker(capsys, workers):
    code, out, err = run(capsys, "search", "--q", "2", "--d", "1", "--mode", "random",
                         "--samples", "10", "--workers", workers)
    assert (code, out) == (1, "")
    assert err == f"error: workers must be at least 1, got {workers}\n"


@pytest.mark.parametrize("argv", [
    ["search", "--q", "2"],
    ["search", "--q", "2", "--d", "1", "--mode", "bogus"],
    ["search", "--q", "x", "--d", "1"],
    ["search", "--q", "2", "--d", "1", "--verbose"],
    ["verify-counts", "--q", "2", "--verbose"],
    ["code", "--q", "2", "--d", "1", "--verbose"],
    ["bogus"],
    [],
])
def test_usage_errors_exit_1(capsys, argv):
    """Exit 2 is kept for a failed proved bound; a bad command line, an
    unknown option such as --verbose where no report reads it among them,
    prints the usage to stderr and exits 1."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 1
    assert out.out == ""
    assert out.err.startswith("usage: hermsurf") and "error: " in out.err


@pytest.mark.parametrize("argv", [["--help"], ["search", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hermsurf")


@pytest.mark.parametrize("q", [3, 4])
def test_census_reaches_no_row_reduction(tmp_path, capsys, monkeypatch, q):
    """Once a fresh surface is built (its rank check row-reduces the matrix),
    every command joins, meets and spans in closed form."""
    def refuse(*args):
        raise AssertionError("a basis was row-reduced")

    fresh = HermitianSurface.canonical(build_field(q))
    monkeypatch.setattr(cli, "canonical_surface", lambda q: fresh)
    for name in ("rref", "nullspace"):
        monkeypatch.setattr(finite_field, name, refuse)
    assert cli.census_report(q, seed=0)["pass"] is True
    form = tmp_path / "form.json"
    for argv in (["verify-counts", "--q", str(q)],
                 ["search", "--q", str(q), "--d", "1", "--workers", "1"],
                 ["search", "--q", str(q), "--d", "2", "--mode", "random", "--samples", "50"],
                 ["code", "--q", str(q), "--d", "1"],
                 ["grid", "--q", str(q)],
                 ["extremal", "--q", str(q), "--d", "2", "--out", str(form)]):
        assert run(capsys, *argv)[0] == 0, argv
    form.write_text(json.dumps(load_report(form.read_text())["form"]))
    assert run(capsys, "check", str(form))[0] == 0


def test_search_budget_error(capsys):
    code, _, err = run(capsys, "search", "--q", "2", "--d", "3", "--budget", "1000")
    assert code == 1
    assert "budget" in err.lower()


def test_extremal(capsys):
    code, out, _ = run(capsys, "extremal", "--q", "3", "--d", "3")
    assert code == 0
    report = load_report(out)
    assert report["stats"]["x_count"] == 103 == report["expected_x_count"]


def test_grid_default_alpha(capsys):
    code, out, _ = run(capsys, "grid", "--q", "3")
    assert code == 0
    report = load_report(out)
    assert report["stats"]["x_count"] == 136
    assert report["stats"]["jf_count"] == 16


def test_grid_rejects_q2(capsys):
    code, _, err = run(capsys, "grid", "--q", "2")
    assert code == 1


def test_code_with_weights(tmp_path, capsys):
    csv = tmp_path / "weights.csv"
    code, out, _ = run(capsys, "code", "--q", "2", "--d", "1", "--weight-csv", str(csv))
    assert code == 0
    report = load_report(out)
    assert [report["n"], report["k"], report["d_min_enumerated"]] == [45, 4, 32]
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "weight,count"
    dist = {int(w): int(c) for w, c in (l.split(",") for l in lines[1:])}
    assert dist == {0: 1, 32: 135, 36: 120}


@pytest.mark.parametrize("q, d, k", [(4, 16, 605), (8, 64, 17_049)])
def test_code_over_budget_reports_k_without_a_matrix(tmp_path, capsys, q, d, k):
    """k comes in closed form and the budget is checked before any matrix."""
    canonical_surface(q)  # the surface is not what is timed
    csv = tmp_path / "weights.csv"
    start = time.monotonic()
    code, out, _ = run(capsys, "code", "--q", str(q), "--d", str(d), "--weight-csv", str(csv))
    assert time.monotonic() - start < 1.0
    assert code == 0
    report = load_report(out)
    assert report["k"] == k
    assert report["d_min_enumerated"] is None
    assert "weight_distribution" not in report and not csv.exists()


def test_check_roundtrip(tmp_path, capsys):
    form_file = tmp_path / "pencil.json"
    form_file.write_text(json.dumps({
        "q": 2, "d": 2,
        "terms": [[[0, 0, 2, 0], 1], [[0, 0, 1, 1], 3], [[0, 0, 0, 2], 2]],
    }))
    code, out, _ = run(capsys, "check", str(form_file))
    assert code == 0
    report = load_report(out)
    assert report["stats"]["x_count"] == 23
    assert report["bounds"]["ok"] is True
    assert report["bounds"]["flags"]["tangent_plane_union"] is True


def test_check_q_mismatch(tmp_path, capsys):
    form_file = tmp_path / "f.json"
    form_file.write_text(json.dumps({"q": 2, "d": 1, "terms": [[[1, 0, 0, 0], 1]]}))
    code, _, err = run(capsys, "check", str(form_file), "--q", "3")
    assert code == 1


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/form.json")
    assert code == 1


def test_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("coefficient", [-1, 4])
def test_check_rejects_out_of_range_coefficient(tmp_path, capsys, coefficient):
    form_file = tmp_path / "f.json"
    form_file.write_text(json.dumps({"q": 2, "d": 1, "terms": [[[1, 0, 0, 0], coefficient]]}))
    code, out, err = run(capsys, "check", str(form_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


_LINEAR = [[[1, 0, 0, 0], 1]]


@pytest.mark.parametrize("doc", [
    [],
    "form",
    {"d": 1, "terms": _LINEAR},
    {"q": 2, "terms": _LINEAR},
    {"q": 2, "d": 1},
    {"q": 2.5, "d": 1, "terms": _LINEAR},
    {"q": True, "d": 1, "terms": _LINEAR},
    {"q": "2", "d": 1, "terms": _LINEAR},
    {"q": 2, "d": 1.0, "terms": _LINEAR},
    {"q": 2, "d": False, "terms": _LINEAR},
    {"q": 2, "d": 1, "terms": [[[1.0, 0, 0, 0], 1]]},
    {"q": 2, "d": 1, "terms": [[[1, 0, 0, True], 1]]},
    {"q": 2, "d": 1, "terms": [[[1, 0, 0, 0], 1.7]]},
    {"q": 2, "d": 1, "terms": [[[1, 0, 0, 0], True]]},
    {"q": 2, "d": 1, "terms": 5},
    {"q": 2, "d": 1, "terms": [[[1, 0, 0, 0], 1, 2]]},
    {"q": 2, "d": 1, "terms": [[1, 1]]},
])
def test_check_rejects_malformed_form_document(tmp_path, capsys, doc):
    form_file = tmp_path / "f.json"
    form_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(form_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("second", [2, 0])
def test_check_refuses_repeated_monomial(tmp_path, capsys, second):
    """A repeated monomial is refused by name: it is neither overwritten
    by its last coefficient nor read as the zero form."""
    form_file = tmp_path / "f.json"
    terms = [[[1, 0, 0, 0], 1], [[1, 0, 0, 0], second]]
    form_file.write_text(json.dumps({"q": 2, "d": 1, "terms": terms}))
    code, out, err = run(capsys, "check", str(form_file))
    assert code == 1
    assert out == ""
    assert err == "error: monomial [1, 0, 0, 0] appears more than once\n"


def test_verbose_point_lists(capsys):
    code, out, _ = run(capsys, "extremal", "--q", "2", "--d", "1", "--verbose")
    assert code == 0
    report = load_report(out)
    assert len(report["stats"]["x_points"]) == 13
    assert len(report["stats"]["jf_lines"]) == 3


@pytest.mark.parametrize("argv", [
    ["verify-counts", "--q", "9"],
    ["search", "--q", "9", "--d", "1"],
    ["extremal", "--q", "9", "--d", "1"],
    ["grid", "--q", "9"],
    ["code", "--q", "9", "--d", "1"],
    ["check"],
    ["search", "--q", "16", "--d", "1"],
    ["search", "--q", "27", "--d", "1"],
    ["search", "--q", "32", "--d", "1"],
])
def test_surface_commands_refuse_q_above_limit(tmp_path, capsys, argv):
    if argv == ["check"]:
        form_file = tmp_path / "f.json"
        form_file.write_text(json.dumps({"q": 9, "d": 1, "terms": [[[1, 0, 0, 0], 1]]}))
        argv = ["check", str(form_file)]
    fields = build_field.cache_info()
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert build_field.cache_info() == fields  # no field is built for a refused q
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"q <= {MAX_SURFACE_Q}" in err


@pytest.mark.parametrize("argv", [
    ["search", "--q", "2", "--d", "100", "--mode", "random"],
    ["search", "--q", "2", "--d", "100"],
    ["search", "--q", "2", "--d", "0"],
    ["code", "--q", "2", "--d", "100"],
    ["code", "--q", "2", "--d", "5"],
    ["check", "20"],
    ["check", "200"],
    ["check", "2000"],
])
def test_scan_commands_refuse_degree_above_q_squared(tmp_path, capsys, argv):
    """search, code and check decide d in 1..q^2 and refuse the rest at once."""
    if argv[0] == "check":
        d = int(argv[1])
        form_file = tmp_path / "f.json"
        form_file.write_text(json.dumps({"q": 2, "d": d, "terms": [[[d, 0, 0, 0], 1]]}))
        argv = ["check", str(form_file)]
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1..q^2 = 1..4" in err


def test_check_top_degree_form_is_not_a_falsification(tmp_path, capsys):
    """x0^(q^2) at q=2: a residual point exists, every applicable bound holds."""
    form_file = tmp_path / "f.json"
    form_file.write_text(json.dumps({"q": 2, "d": 4, "terms": [[[4, 0, 0, 0], 1]]}))
    code, out, _ = run(capsys, "check", str(form_file))
    assert code == 0
    assert load_report(out)["bounds"]["ok"] is True


def test_huge_prime_q_is_refused_before_factoring(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "verify-counts", "--q", "1000000000000000003")
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert out == ""
    assert "exceeds the supported limit" in err


# ----------------------------------------------------------------------
# the report emitter
# ----------------------------------------------------------------------

def indent2(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


_strings = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\ud800"])
_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
            | st.floats() | _strings)
_documents = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_strings, inner, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_dumps_matches_json_dumps(doc):
    assert _dumps(doc) == indent2(doc)


@pytest.mark.parametrize("value", [
    np.int64(3), [1, np.int16(2)], {"a": {"b": np.int32(0)}}, (np.bool_(True),),
    {"x": {1, 2}}, b"bytes", object(), len, [lambda indent: "0"], {"f": partial(str, 0)},
])
def test_dumps_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        indent2(value)
    with pytest.raises(TypeError):
        _dumps(value)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 0}}, [{2.5: 1}]])
def test_dumps_refuses_keys_that_are_not_str(value):
    with pytest.raises(TypeError):
        _dumps(value)


def test_reports_are_indent_2_json_with_sorted_keys(tmp_path, capsys, monkeypatch):
    """A search report, and the falsification document a patched bound
    provokes, are written as json.dumps(doc, sort_keys=True, indent=2)."""
    out = tmp_path / "s.json"
    assert main(["search", "--q", "2", "--d", "2", "--workers", "1", "--out", str(out)]) == 0
    text = out.read_text()
    assert text == indent2(json.loads(text)) + "\n"
    monkeypatch.setattr(theorems, "sorensen_bound", lambda q, d: 12)
    code, _, err = run(capsys, "search", "--q", "2", "--d", "1", "--workers", "1")
    assert code == 2
    assert err == indent2(json.loads(err)) + "\n"
    assert json.loads(err)["witness"]["form"]["terms"] == [[[1, 0, 0, 0], 1], [[0, 0, 0, 1], 1]]


# ----------------------------------------------------------------------
# search reports: argmax forms written from a table of term texts
# ----------------------------------------------------------------------

def search_report_text(tmp_path, *argv) -> str:
    """The CLI search document without its meta: {"report": ...} as text."""
    out = tmp_path / "search.json"
    assert main(["search", *argv, "--out", str(out)]) == 0
    text = out.read_text()
    return "{" + text[text.index('\n  "report": '):]


def assert_same_text(text: str, expected: str) -> None:
    """text == expected, failing with the text around the first difference
    (pytest's own diff of two megabyte strings takes minutes)."""
    if text != expected:
        at = next(i for i, (a, b) in enumerate(zip(text + "\0", expected + "\1")) if a != b)
        lo = max(0, at - 200)
        pytest.fail(f"texts differ at {at}:\n{text[lo:at + 200]!r}\n{expected[lo:at + 200]!r}")


def expected_report_text(result) -> str:
    report = result.to_json()
    report["sorensen_bound"] = (theorems.sorensen_bound(result.q, result.d)
                                if result.d <= result.q + 1 else None)
    return indent2({"report": report}) + "\n"


@pytest.mark.parametrize("q, d", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_exhaustive_search_document_matches_json_dumps(tmp_path, q, d):
    text = search_report_text(tmp_path, "--q", str(q), "--d", str(d), "--workers", "1")
    result = theorems.exhaustive_search(canonical_surface(q), d)
    assert result.argmax_vectors.tolist()
    assert_same_text(text, expected_report_text(result))


@pytest.mark.parametrize("q, d, samples, seed", [(2, 2, 500, 0), (2, 2, 500, 7), (3, 2, 300, 1)])
def test_random_search_document_matches_json_dumps(tmp_path, q, d, samples, seed):
    text = search_report_text(tmp_path, "--q", str(q), "--d", str(d), "--mode", "random",
                              "--samples", str(samples), "--seed", str(seed))
    result = theorems.random_search(canonical_surface(q), d, samples, seed)
    assert result.argmax_vectors.tolist()
    assert_same_text(text, expected_report_text(result))


def test_capped_argmax_list_matches_json_dumps(tmp_path, monkeypatch):
    """A full (3,2) run keeps _ARGMAX_CAP argmax classes, a report of about 5 MB;
    it is written as json.dumps writes its dicts."""
    surface = canonical_surface(3)
    m = monomial_count(2)
    cap = theorems._ARGMAX_CAP
    indices = np.linspace(0, class_count(surface.field.order, m) - 1, cap).astype(np.int64)
    result = theorems.SearchResult(
        q=3, d=2, mode="exhaustive", examined=1, skipped_hermitian_multiples=0, max_count=0,
        argmax_vectors=class_vectors(surface.field, m, indices), argmax_total=cap,
        seed=None, samples=None, wall_time=0.0, field=surface.field,
    )
    monkeypatch.setattr(cli, "exhaustive_search", lambda *args, **kwargs: result)
    text = search_report_text(tmp_path, "--q", "3", "--d", "2", "--workers", "1")
    assert len(result.argmax_vectors) == 4096
    assert_same_text(text, expected_report_text(result))


@st.composite
def _vector_lists(draw):
    q = draw(st.sampled_from([2, 3, 4, 5]))
    d = draw(st.integers(1, 3))
    coefficient = st.integers(0, q * q - 1)
    vector = st.lists(coefficient, min_size=monomial_count(d), max_size=monomial_count(d))
    vectors = draw(st.lists(vector.filter(any), max_size=6))
    return q, d, vectors


@settings(max_examples=200, deadline=None)
@given(_vector_lists(), st.integers(0, 4))
@example((2, 1, []), 0)
@example((5, 3, [[24] * 20]), 3)
@example((8, 5, [[c] * 56 for c in range(1, 64)]), 1)  # every term of the widest table
@example((3, 2, [[0] * 9 + [4], [1] + [0] * 9]), 2)  # a last-monomial-only form, then a first
@example((4, 2, np.array([[1, 0, 15, 0, 0, 0, 0, 0, 0, 3], [0] * 9 + [7]], dtype=np.int16)), 1)
def test_forms_text_matches_dumps_of_the_form_dicts(drawn, depth):
    """(V, M) int16 arrays, as a search result holds them, drawn as lists."""
    q, d, vectors = drawn
    vectors = np.array(vectors, dtype=np.int16).reshape(len(vectors), monomial_count(d))
    indent = "\n" + "  " * depth
    dicts = [vector_to_json(q, d, [int(c) for c in vec]) for vec in vectors]
    assert _forms_text(q, d, vectors, indent) == _dumps(dicts, indent)
    assert _dumps({"forms": _Fragment(_forms_text, q, d, vectors)}, indent) == _dumps(
        {"forms": dicts}, indent)
    if len(vectors) == 1:
        assert _dumps([_Fragment(_forms_text, q, d, vectors)]) == indent2([dicts])


@st.composite
def _sparse_forms(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    d = draw(st.integers(1, 6))
    coefficient = st.one_of(st.just(0), st.integers(1, q * q - 1))
    vector = st.lists(coefficient, min_size=monomial_count(d), max_size=monomial_count(d))
    return q, form_from_vector(build_field(q), d, draw(vector.filter(any)))


@settings(max_examples=150, deadline=None)
@given(_sparse_forms(), st.integers(0, 4))
def test_form_text_matches_dumps_of_form_to_json(drawn, depth):
    """check, extremal and grid write their forms with _form_text: byte for
    byte what _dumps writes for form_to_json, at q = 2, 3, 4."""
    q, form = drawn
    indent = "\n" + "  " * depth
    assert _form_text(form, indent) == _dumps(form_to_json(form, q), indent)
    assert _dumps({"form": _Fragment(_form_text, form)}, indent) == _dumps(
        {"form": form_to_json(form, q)}, indent)
