import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import make_clusters
from hypothesis import given, settings
from hypothesis import strategies as st

from liuboost import data, synth
from liuboost.data import (MISSING_TOKENS, NUMERIC_TYPES, Dataset,
                           KeelFormatError, apply_min_max, as_labels,
                           fit_min_max, imbalance_ratio, parse_keel,
                           serialize_keel, stratified_folds)

SAMPLE = """\
@relation toy
@attribute a real [0.0, 10.0]
@attribute b real [0.0, 10.0]
@attribute Class {negative, positive}
@inputs a, b
@outputs Class
@data
1.0, 2.0, negative
3.0, 4.0, negative
5.0, 6.0, negative
7.0, 8.0, positive
"""


def loop_parse_keel(text: str, name: str | None = None) -> Dataset:
    """Oracle: the row-by-row KEEL parser, which checks and converts each
    data row in turn, one element at a time."""
    attr_names: list[str] = []
    attr_nominal: list[bool] = []
    relation = None
    outputs: list[str] = []

    lines = [line for line in (raw.strip() for raw in text.splitlines())
             if line]
    for n, line in enumerate(lines):
        if not line.startswith("@"):
            raise KeelFormatError(f"data line before @data section: {line!r}")
        keyword, _, rest = line.replace("\t", " ").partition(" ")
        keyword, rest = keyword.lower(), rest.strip()
        if keyword == "@relation":
            relation = rest or "unnamed"
        elif keyword == "@attribute":
            if not rest:
                raise KeelFormatError(f"malformed attribute line: {line!r}")
            attr_name, _, spec = rest.partition(" ")
            spec = spec.strip()
            attr_names.append(attr_name.strip())
            if spec.startswith("{"):
                attr_nominal.append(True)
            else:
                base = spec.split("[")[0].strip().lower()
                if base not in NUMERIC_TYPES:
                    raise KeelFormatError(
                        f"unsupported attribute type {spec!r} for {attr_name!r}")
                attr_nominal.append(False)
        elif keyword == "@outputs":
            outputs = [s.strip() for s in rest.split(",") if s.strip()]
        elif keyword == "@data":
            break
        elif keyword != "@inputs":
            raise KeelFormatError(f"unknown header keyword: {keyword!r}")
    else:
        raise KeelFormatError("missing @data section")
    rows = [[f.strip() for f in line.split(",")] for line in lines[n + 1:]]

    if relation is None:
        raise KeelFormatError("missing @relation line")
    if not rows:
        raise KeelFormatError("empty @data section")
    if not attr_names:
        raise KeelFormatError("no @attribute declarations")

    if len(outputs) > 1:
        raise KeelFormatError("exactly one output attribute is supported")
    class_name = outputs[0] if outputs else attr_names[-1]
    if class_name not in attr_names:
        raise KeelFormatError(f"output attribute {class_name!r} not declared")
    class_col = attr_names.index(class_name)

    for j, nominal in enumerate(attr_nominal):
        if nominal and j != class_col:
            raise KeelFormatError(
                f"nominal input attribute {attr_names[j]!r} is not supported")

    n_cols = len(attr_names)
    feat_cols = [j for j in range(n_cols) if j != class_col]
    if not feat_cols:
        raise KeelFormatError("no input attribute declared")
    features = np.empty((len(rows), len(feat_cols)))
    classes: list[str] = []
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise KeelFormatError(f"row {i} has {len(row)} fields, expected {n_cols}")
        for token in row:
            if token.lower() in MISSING_TOKENS:
                raise KeelFormatError(f"missing value in row {i}")
        for jj, j in enumerate(feat_cols):
            try:
                features[i, jj] = float(row[j])
            except ValueError:
                raise KeelFormatError(
                    f"non-numeric value {row[j]!r} in attribute {attr_names[j]!r}")
        classes.append(row[class_col])

    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        i, jj = bad[0]
        raise KeelFormatError(
            f"non-finite value {rows[i][feat_cols[jj]]!r} in row {i}, "
            f"attribute {attr_names[feat_cols[jj]]!r}")

    uniq = sorted(set(classes))
    if len(uniq) != 2:
        raise KeelFormatError(
            f"expected 2 classes, found {len(uniq)}: {uniq}")
    class_of = np.array([uniq.index(c) for c in classes])
    counts = np.bincount(class_of, minlength=2)
    return Dataset(
        features=features,
        labels=np.where(class_of == np.argmin(counts), 1, -1),
        feature_names=tuple(attr_names[j] for j in feat_cols),
        name=name or relation,
    )


# padding that str.strip() removes; float() itself does not strip '\x1f'
PADS = ("", " ", "  ", "\t", " \t ", "\xa0", "\x1f")
# line breaks of str.splitlines(), '\r\n' among them; a space is none:
# two rows joined by one are one row
BREAKS = ("\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028")
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "5e-324", "1e16", "1e+16", "3", "-7", "1_0"]))
# (kind, detail): "fields" drops or adds a field, "feature" and "class"
# put the token into a feature column or the class column, "at_line"
# starts the row with "@"
FAULTS = st.sampled_from([
    ("fields", "drop"), ("fields", "extra"),
    ("feature", "?"), ("feature", "<null>"), ("feature", "<NULL>"),
    ("class", "?"), ("class", "<null>"),
    ("feature", "abc"), ("feature", ""), ("feature", "1.0.0"),
    ("feature", "0x1p3"), ("feature", "nan"), ("feature", "inf"),
    ("feature", "-inf"), ("feature", "1e999"),
    ("at_line", None), ("class", "third"),
])


@st.composite
def keel_texts(draw):
    """A KEEL text of 2-12 rows and 1-4 features, its class column
    anywhere, with 0-3 faults injected into rows drawn at random, 1-4
    blank lines anywhere and each line ended by a line break drawn from
    BREAKS."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(2, 12))
    class_col = draw(st.integers(0, d))
    names = [f"x{j}" for j in range(d)]
    names.insert(class_col, "Class")
    header = ["@relation gen"]
    for a in names:
        spec = "{neg, pos}" if a == "Class" else "real [0, 1]"
        header.append(f"@attribute {a} {spec}")
    if class_col < d or draw(st.booleans()):
        header.append("@outputs Class")
    header.append("@data")

    pad = st.sampled_from(PADS)
    rows = []
    for _ in range(m):
        row = [draw(VALUES) for _ in range(d)]
        row.insert(class_col, draw(st.sampled_from(["neg", "pos"])))
        rows.append(row)
    for i, (kind, token) in draw(st.lists(
            st.tuples(st.integers(0, m - 1), FAULTS), max_size=3)):
        row = rows[i]
        feature = draw(st.sampled_from(
            [j for j in range(d + 1) if j != class_col]))
        if kind == "fields":
            if token == "drop":
                del row[feature:feature + 1]
            else:
                row.append("1.0")
        elif kind == "feature" and feature < len(row):
            row[feature] = token
        elif kind == "class" and class_col < len(row):
            row[class_col] = token
        elif kind == "at_line" and row:
            row[0] = "@" + row[0]
    lines = header + [
        draw(pad) + ",".join(draw(pad) + t + draw(pad) for t in row)
        + draw(pad) for row in rows]
    # a line of padding only is blank, in the header as among the rows,
    # and a blank line is no row
    for _ in range(draw(st.integers(1, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(pad))
    breaks = st.sampled_from(BREAKS)
    return "".join(line + draw(breaks) for line in lines)


def outcome(parse, text):
    """What parse makes of text: the bytes of a Dataset's arrays, its
    names and name, or the type and message of its error."""
    try:
        ds = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return (ds.features.dtype.str, ds.features.shape,
            ds.features.tobytes(), ds.labels.tobytes(), ds.feature_names,
            ds.name)


class TestParseKeel:
    def test_basic(self):
        ds = parse_keel(SAMPLE)
        assert ds.n_instances == 4 and ds.n_features == 2
        assert ds.feature_names == ("a", "b")
        assert ds.labels.tolist() == [-1, -1, -1, 1]
        np.testing.assert_array_equal(ds.features[3], [7.0, 8.0])
        assert ds.name == "toy"

    def test_minority_is_positive_regardless_of_class_names(self):
        # three "positive" rows, one "negative": negative is the minority
        text = SAMPLE.replace("negative", "X").replace("positive", "negative")
        text = text.replace("X", "positive")
        ds = parse_keel(text)
        assert ds.minority_count == 1
        assert ds.labels.tolist() == [-1, -1, -1, 1]

    def test_tie_broken_lexicographically(self):
        text = SAMPLE.replace("3.0, 4.0, negative", "3.0, 4.0, positive")
        # the lexicographically smaller name becomes +1
        assert parse_keel(text).labels.tolist() == [1, -1, 1, -1]

    def test_outputs_column_not_last(self):
        text = ("@relation t\n"
                "@attribute Class {n, p}\n"
                "@attribute a real [0, 1]\n"
                "@outputs Class\n@data\n"
                "n, 0.5\nn, 0.6\np, 0.7\n")
        ds = parse_keel(text)
        assert ds.feature_names == ("a",)
        assert ds.labels.tolist() == [-1, -1, 1]

    def test_name_override(self):
        assert parse_keel(SAMPLE, name="other").name == "other"

    @pytest.mark.parametrize("mutate, message", [
        (lambda t: t.split("@data")[0], "missing @data"),
        (lambda t: t.replace("@relation toy\n", ""), "missing @relation"),
        (lambda t: t.replace("1.0", "?"), "missing value"),
        (lambda t: t.replace("1.0", "<null>"), "missing value"),
        (lambda t: t.replace("1.0", "abc"), "non-numeric"),
        (lambda t: t.replace("1.0, 2.0, negative", "1.0, negative"), "fields"),
        (lambda t: t.replace("real [0.0, 10.0]", "string"), "unsupported"),
        (lambda t: t.replace("@inputs", "@bogus"), "unknown header"),
        (lambda t: "1.0, 2.0, negative\n" + t, "before @data"),
        (lambda t: t.replace("5.0, 6.0", "5.0, inf"),
         "non-finite value 'inf' in row 2, attribute 'b'"),
        (lambda t: t.replace("3.0, 4.0", "nan, 4.0"),
         "non-finite value 'nan' in row 1, attribute 'a'"),
        (lambda t: t.replace("7.0, 8.0", "7.0, 1e999"),
         "non-finite value '1e999' in row 3, attribute 'b'"),
        (lambda t: "@relation toy\n@attribute Class {n, p}\n@data\nn\nn\np\n",
         "no input attribute"),
        (lambda t: "", "missing @data section"),
    ])
    def test_format_errors(self, mutate, message):
        with pytest.raises(KeelFormatError, match=message):
            parse_keel(mutate(SAMPLE))

    def test_header_keywords_ignore_case_and_tabs(self):
        text = (SAMPLE.replace("@data", "@DATA")
                .replace("@attribute a", "@attribute\ta")
                .replace("@relation toy", "@RELATION\ttoy"))
        ds = parse_keel(text)
        assert ds.name == "toy" and ds.feature_names == ("a", "b")
        assert ds.labels.tolist() == [-1, -1, -1, 1]

    def test_at_line_after_data_is_a_row(self):
        # only the header reads keywords: past @data every line is a row
        text = SAMPLE.replace("@data\n", "@data\n@relation, 1.0, x\n")
        with pytest.raises(KeelFormatError,
                           match="non-numeric value '@relation' in attribute 'a'"):
            parse_keel(text)

    def test_empty_data_section(self):
        text = SAMPLE.split("@data")[0] + "@data\n"
        with pytest.raises(KeelFormatError, match="empty @data"):
            parse_keel(text)

    def test_three_classes_rejected(self):
        text = SAMPLE.replace("{negative, positive}",
                              "{negative, positive, other}")
        text = text.replace("3.0, 4.0, negative", "3.0, 4.0, other")
        with pytest.raises(KeelFormatError, match="expected 2 classes"):
            parse_keel(text)

    @pytest.mark.parametrize("old, new, message", [
        ("positive", "negative", "found 1: ['negative']"),
        ("3.0, 4.0, negative", "3.0, 4.0, other",
         "found 3: ['negative', 'other', 'positive']"),
    ], ids=["one_class", "three_classes"])
    def test_class_count_message_names_the_classes(self, old, new, message):
        # plain names in sorted order, not NumPy's np.str_('negative')
        text = SAMPLE.replace(old, new)
        expected = (KeelFormatError, f"expected 2 classes, {message}")
        assert outcome(parse_keel, text) == expected
        assert outcome(loop_parse_keel, text) == expected

    def test_trailing_nul_names_a_class_of_its_own(self):
        # a NumPy unicode array drops trailing '\x00': grouped by
        # np.unique, 'a\x00' would count as 'a'
        rows = ["a", "a\x00", "b", "a"]
        text = SAMPLE.split("@data")[0] + "@data\n" + "".join(
            f"{i}.0, 1.0, {c}\n" for i, c in enumerate(rows))
        expected = (KeelFormatError,
                    "expected 2 classes, found 3: ['a', 'a\\x00', 'b']")
        assert outcome(parse_keel, text) == expected
        assert outcome(loop_parse_keel, text) == expected
        text = text.replace(", b\n", ", a\n")
        ds = parse_keel(text)
        assert ds.labels.tolist() == [-1, 1, -1, -1]
        assert outcome(loop_parse_keel, text) == outcome(parse_keel, text)

    def test_nominal_input_rejected(self):
        text = SAMPLE.replace("@attribute a real [0.0, 10.0]",
                              "@attribute a {x, y}")
        text = text.replace("1.0, 2.0", "x, 2.0")
        with pytest.raises(KeelFormatError, match="nominal input"):
            parse_keel(text)

    @settings(max_examples=300, deadline=None)
    @given(keel_texts())
    def test_matches_row_by_row_oracle(self, text):
        assert outcome(parse_keel, text) == outcome(loop_parse_keel, text)

    @settings(max_examples=300, deadline=None)
    @given(keel_texts(), st.integers(1, 64))
    def test_matches_oracle_across_block_boundaries(self, text, block_chars):
        # pieces of one to a few lines put faults, class names, blank
        # lines and the @data line in every piece and at either end of one
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_BLOCK_CHARS", block_chars)
            assert outcome(parse_keel, text) == outcome(loop_parse_keel, text)

    @settings(max_examples=300, deadline=None)
    @given(keel_texts(), st.integers(1, 64))
    def test_pieces_split_like_splitlines(self, text, block_chars):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_BLOCK_CHARS", block_chars)
            pieces = list(data._pieces(text))
        assert "".join(pieces) == text
        assert all(piece.endswith("\n") for piece in pieces[:-1])
        assert [line for piece in pieces
                for line in piece.splitlines()] == text.splitlines()

    @settings(max_examples=300, deadline=None)
    @given(keel_texts(), st.integers(1, 64))
    def test_path_parses_like_its_text(self, text, block_chars):
        # a file read a few characters at a time, its '\r\n' and '\r'
        # read as '\n', parses as its text does; a tempfile directory,
        # since Hypothesis rejects function-scoped fixtures
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            path = Path(tmp) / "gen.dat"
            with open(path, "w", newline="") as file:
                file.write(text)
            mp.setattr(data, "_BLOCK_CHARS", block_chars)
            assert outcome(parse_keel, path) == outcome(parse_keel, text)

    @pytest.mark.parametrize("old, new", [
        ("7.0, 8.0, positive\n", "7.0, 8.0, positive\n9.0, 1.0, positive\n"),
        ("7.0, 8.0, positive\n", ""),
        ("3.0, 4.0", "3.5, 4.0"),
    ], ids=["grown", "shrunk", "edited"])
    def test_file_changed_between_walks_raises(self, tmp_path, monkeypatch,
                                               old, new):
        # the file is rewritten as the conversion walk starts, which must
        # not write past the array sized by the first walk
        path = tmp_path / "toy.dat"
        path.write_text(SAMPLE)
        walks, pieces = [], data._pieces

        def rewrite(source):
            walks.append(source)
            if len(walks) == 2:
                path.write_text(SAMPLE.replace(old, new))
            return pieces(source)

        monkeypatch.setattr(data, "_pieces", rewrite)
        with pytest.raises(KeelFormatError,
                           match="^the file changed while it was parsed$"):
            parse_keel(path)
        assert len(walks) == 2

    @pytest.mark.parametrize("bad, error", [
        ({0: "inf", 29: "x"}, "non-numeric value 'x' in attribute 'b'"),
        ({29: "inf"}, "non-finite value 'inf' in row 29, attribute 'b'"),
        ({}, None),
    ], ids=["non_numeric_after_inf", "inf_in_last_block", "clean"])
    def test_parse_walks_the_file_twice(self, tmp_path, monkeypatch, bad,
                                        error):
        # 30 rows, a few to a piece: an error is named from the block
        # that holds its row (bad maps a row to its token of b), with no
        # third walk of the file to find it
        text = SAMPLE.split("@data")[0] + "@data\n" + "".join(
            f"{i}.0, {bad.get(i, '1.0')}, "
            f"{'positive' if i % 3 else 'negative'}\n" for i in range(30))
        path = tmp_path / "rows.dat"
        path.write_text(text)
        walks, pieces = [], data._pieces

        def count(source):
            walks.append(source)
            return pieces(source)

        monkeypatch.setattr(data, "_BLOCK_CHARS", 64)
        monkeypatch.setattr(data, "_pieces", count)
        if error is None:
            assert parse_keel(path).n_instances == 30
        else:
            with pytest.raises(KeelFormatError, match=f"^{error}$"):
                parse_keel(path)
        assert len(walks) == 2
        assert len(list(pieces(text))) > 5

    @pytest.mark.parametrize("head, error", [
        ("@relation r\n@bogus\n", "unknown header keyword: '@bogus'"),
        (SAMPLE.replace("1.0, 2.0", "1.0, x"), None),
        (SAMPLE.replace("@relation toy\n", ""), None),
    ], ids=["header_error_first", "after_a_bad_row", "after_no_relation"])
    def test_undecodable_byte_raises_unless_a_header_error_came_first(
            self, tmp_path, head, error):
        # the byte sits far past what the reader has decoded when the
        # header is read, and the first walk reads the whole file: only a
        # header error read before it comes first
        path = tmp_path / "late.dat"
        rows = "1.0, 2.0, negative\n" * 10_000
        path.write_bytes(head.encode() + rows.encode() + b"caf\xe9\n")
        if error is None:
            with pytest.raises(UnicodeDecodeError,
                               match="can't decode byte 0xe9"):
                parse_keel(path)
        else:
            with pytest.raises(KeelFormatError, match=f"^{error}$"):
                parse_keel(path)

    def test_memory_bounded_by_text_size(self):
        # the policy: a parse holds the text, the array with its class
        # codes (which become the labels) and one block, whose Python
        # objects take about 7 bytes per character of its piece. On this
        # text the peak is 1.3 times the array with its codes, as
        # Dataset's label check copies the codes once; a parse that held
        # every line peaked at 5.6 times, 2.7 times the text
        m, d = 200_000, 3
        rng = np.random.default_rng(0)
        text = serialize_keel(Dataset(
            features=rng.random((m, d)),
            labels=np.where(np.arange(m) % 10 == 0, 1, -1),
            feature_names=tuple(f"x{j}" for j in range(d)), name="big"))
        tracemalloc.start()
        try:
            ds = parse_keel(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n_instances == m
        array = ds.features.nbytes + ds.labels.nbytes
        block = 16 * data._BLOCK_CHARS
        assert peak < 1.5 * array + block, f"peak {peak / array:.2f} x array"

    @pytest.mark.parametrize("token", ["\x1f1.5\x1f", " \t1.5\xa0"])
    def test_padded_tokens_convert_as_stripped(self, token):
        text = SAMPLE.replace("3.0,", token + ",")
        ds = parse_keel(text)
        assert ds.features[1, 0] == 1.5
        assert outcome(parse_keel, text) == outcome(loop_parse_keel, text)

    def test_first_bad_row_is_reported(self):
        # row 1 has a non-finite value, row 2 a non-numeric one and row 3
        # a missing class: the row checks run before the non-finite one
        text = (SAMPLE.replace("3.0, 4.0", "inf, 4.0")
                .replace("5.0, 6.0", "5.0, x")
                .replace("8.0, positive", "8.0, ?"))
        with pytest.raises(KeelFormatError,
                           match="non-numeric value 'x' in attribute 'b'"):
            parse_keel(text)

    @pytest.mark.parametrize("entry", synth.BENCHMARK_CATALOG,
                             ids=lambda e: e.name)
    def test_round_trip_bench_stand_ins(self, entry):
        self.assert_round_trip(synth.generate_catalog_dataset(entry))

    def test_round_trip_knn_scale_input(self):
        self.assert_round_trip(
            synth.generate_dataset("knn_m8000", 8000, 10, 80, seed=0))

    @staticmethod
    def assert_round_trip(ds):
        back = parse_keel(serialize_keel(ds))
        assert back.features.flags.c_contiguous
        assert back.features.dtype == np.float64
        assert back.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names
        assert back.name == ds.name

    def test_round_trip_exact(self):
        ds = make_clusters(7, 13, d=4, seed=5)
        back = parse_keel(serialize_keel(ds), name=ds.name)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names

    def test_rows_match_per_element_repr(self):
        # the bulk writer gives each value the repr of its Python float,
        # as repr(float(v)) on each NumPy scalar does
        values = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]
        X = np.array([values, values[::-1], [-v for v in values]])
        ds = Dataset(features=X, labels=np.array([1, -1, -1]),
                     feature_names=tuple("abcde"), name="reprs")
        rows = serialize_keel(ds).split("@data\n")[1].splitlines()
        assert rows == [",".join(repr(float(v)) for v in x) + "," + cls
                        for x, cls in zip(X, ("positive", "negative",
                                              "negative"))]
        assert rows[0] == "-0.0,5e-324,1e+16,1e-05,0.30000000000000004,positive"
        back = parse_keel(serialize_keel(ds), name=ds.name)
        np.testing.assert_array_equal(back.features, X)
        assert np.signbit(back.features[0, 0])


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError, match="minority"):
            Dataset(features=np.zeros((3, 1)), labels=np.array([1, 1, -1]),
                    feature_names=("a",))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            Dataset(features=np.zeros((2, 1)), labels=np.array([0, 1]),
                    feature_names=("a",))
        # a fraction used to be truncated toward zero: [1, -1, -1, -1]
        for labels in ([1.5, -1.9, -1, -1], [True, False, False, False]):
            with pytest.raises(ValueError, match="-1 or \\+1"):
                Dataset(features=np.zeros((4, 1)), labels=labels,
                        feature_names=("a",))
        with pytest.raises(ValueError, match="both classes"):
            Dataset(features=np.zeros((2, 1)), labels=np.array([-1, -1]),
                    feature_names=("a",))
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features=np.array([[np.nan], [0.0]]),
                    labels=np.array([1, -1]), feature_names=("a",))

    def test_int64_labels_are_not_copied(self):
        # fit_tree checks the labels of every tree it grows
        y = np.array([1, -1, -1], dtype=np.int64)
        assert as_labels(y) is y
        assert as_labels([1.0, -1.0]).dtype == np.int64

    def test_imbalance_ratio(self):
        ds = make_clusters(5, 15, seed=0)
        assert imbalance_ratio(ds) == 3.0


class TestStratifiedFolds:
    def test_balanced_partition(self):
        ds = make_clusters(10, 10, seed=3)
        plan = stratified_folds(ds, 10, seed=42)
        assert plan.k == 10
        all_idx = np.concatenate(plan.folds)
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(20))
        for f in plan.folds:  # exactly one instance of each class per fold
            assert len(f) == 2 and set(ds.labels[f]) == {-1, 1}

    def test_split_disjoint_and_complete(self):
        ds = make_clusters(8, 22, seed=4)
        plan = stratified_folds(ds, 5, seed=0)
        for fold in range(5):
            train, test = plan.split(fold)
            assert set(train) & set(test) == set()
            assert len(train) + len(test) == 30

    def test_deterministic(self):
        ds = make_clusters(9, 21, seed=4)
        a = stratified_folds(ds, 3, seed=7)
        b = stratified_folds(ds, 3, seed=7)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 60), st.integers(2, 6), st.integers(0, 10 ** 6))
    def test_matches_bucket_construction(self, m, k, seed):
        # oracle: each shuffled class dealt into per-fold buckets, idx[j::k]
        # to fold j, with the same generator draws
        n_pos = int(np.random.default_rng(seed).integers(1, m // 2 + 1))
        ds = make_clusters(n_pos, m - n_pos, seed=seed % 997)
        k = min(k, m)
        rng = np.random.default_rng(seed)
        buckets = [[] for _ in range(k)]
        for cls in (1, -1):
            idx = np.flatnonzero(ds.labels == cls)
            rng.shuffle(idx)
            for j in range(k):
                buckets[j].extend(idx[j::k])
        plan = stratified_folds(ds, k, seed)
        for j, bucket in enumerate(buckets):
            test = np.sort(bucket)
            train = np.sort(np.concatenate(buckets[:j] + buckets[j + 1:]))
            np.testing.assert_array_equal(plan.folds[j], test)
            got_train, got_test = plan.split(j)
            np.testing.assert_array_equal(got_test, test)
            np.testing.assert_array_equal(got_train, train)

    def test_small_class_leaves_folds_without_it(self):
        ds = make_clusters(3, 27, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = stratified_folds(ds, 10, seed=0)
        assert plan.k == 10
        assert sum(bool((ds.labels[f] == 1).any()) for f in plan.folds) == 3

    def test_k_bounds(self):
        ds = make_clusters(3, 3, seed=0)
        with pytest.raises(ValueError):
            stratified_folds(ds, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_folds(ds, 7, seed=0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
    def test_k_must_be_an_integer(self, k):
        ds = make_clusters(3, 3, seed=0)
        with pytest.raises(ValueError, match="k must be"):
            stratified_folds(ds, k, seed=0)
        assert stratified_folds(ds, np.int64(3), seed=0).k == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 60), st.integers(2, 6), st.integers(0, 10 ** 6))
    def test_partition_and_stratification_property(self, m, k, seed):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(1, m // 2 + 1))
        ds = make_clusters(n_pos, m - n_pos, seed=seed % 997)
        plan = stratified_folds(ds, min(k, m), seed)
        all_idx = np.concatenate(plan.folds)
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(m))
        for cls in (1, -1):
            n_cls = int((ds.labels == cls).sum())
            per_fold = [int((ds.labels[f] == cls).sum()) for f in plan.folds]
            lo, hi = n_cls // plan.k, -(-n_cls // plan.k)
            assert all(lo <= c <= hi for c in per_fold)


class TestMinMax:
    def test_example(self):
        mins, ranges = fit_min_max(np.array([[2.0], [4.0], [6.0]]))
        out = apply_min_max(np.array([[2.0], [4.0], [6.0]]), mins, ranges)
        np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        X = np.array([[3.0, 1.0], [3.0, 2.0]])
        out = apply_min_max(X, *fit_min_max(X))
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])
        np.testing.assert_array_equal(out[:, 1], [0.0, 1.0])

    def test_idempotent(self):
        X = make_clusters(5, 9, d=3, seed=6).features
        once = apply_min_max(X, *fit_min_max(X))
        twice = apply_min_max(once, *fit_min_max(once))
        np.testing.assert_allclose(twice, once, atol=1e-15)
        assert once.min() >= 0.0 and once.max() <= 1.0

    def test_column_spanning_the_float_range_scales_without_overflow(self):
        # max - min of this column overflows to inf
        X = np.array([[-1e308, 2.0], [1e308, 2.0], [0.0, 2.0], [5e307, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_min_max(X, *fit_min_max(X))
        np.testing.assert_array_equal(out[:, 0], [0.0, 1.0, 0.5, 0.75])
        np.testing.assert_array_equal(out[:, 1], [0.0] * 4)

    def test_a_test_row_past_the_float_range_saturates(self):
        # the range is 1e-272, so these rows scale past +-1.8e308; the
        # warning would be an error under pytest
        big = np.finfo(np.float64).max
        fitted = fit_min_max(np.array([[0.0], [2.0170756978734342e-272]]))
        X = np.array([[3.6260831345646875e+36], [-1e40], [1e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_min_max(X, *fitted)
        np.testing.assert_array_equal(out[:, 0], [big, -big, X[2, 0] / 2
                                                  / fitted[1][0]])

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32])
    def test_any_numeric_input_gives_float64(self, dtype):
        X = np.array([[1, 7], [4, 3], [9, 5]], dtype=dtype)
        out = apply_min_max(X, *fit_min_max(X))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(
            out, apply_min_max(X.astype(np.float64),
                               *fit_min_max(X.astype(np.float64))))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_halves_give_the_bits_of_the_direct_formula(self, data):
        # with normal halves and a finite range, (x/2 - min/2) / range is
        # (x - min) / (max - min) to the bit, on rows outside the fitted
        # range too; a constant column keeps x - min.  A test row far
        # outside a tiny range scales past the float range: there both
        # saturate at +-max, and every other entry keeps its bits
        values = st.floats(-1e300, 1e300).filter(
            lambda v: v == 0 or abs(v) > 1e-290)
        train = np.array(data.draw(st.lists(values, min_size=1,
                                            max_size=8)))[:, None]
        test = np.array(data.draw(st.lists(values, max_size=8)))[:, None]
        mins, maxs = train.min(axis=0), train.max(axis=0)
        ranges = np.where(maxs == mins, 1.0, maxs - mins)
        fitted = fit_min_max(train)
        big = np.finfo(np.float64).max
        for X in (train, test):
            with np.errstate(over="ignore"):
                direct = (X - mins) / ranges
            np.testing.assert_array_equal(apply_min_max(X, *fitted),
                                          np.clip(direct, -big, big))
