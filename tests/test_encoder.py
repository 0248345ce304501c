import json
import re

import numpy as np
import pytest

from spanqa.diffmerge import MixedReport, RevisedSpan, merge_reports
from spanqa.encoder import MAX_WINDOW, HashedWindowEncoder, PrecomputedEncoder
from spanqa.model import save_model
from spanqa.selftrain import TrainConfig, train
from spanqa.types import ParseError, ReportPair, ValidationError

from reference import CharacterRowEncoder, pool_span, reference_encode
from test_acceptance import acceptance_split


def mixed_of(text, rid="r", ranges=()):
    """A report of `text` whose span list covers `ranges`. The pooling tests
    let the ranges overlap; the encoder reads no tag, so all are O."""
    spans = [RevisedSpan(start, end, text[start:end], "") for start, end in ranges]
    return MixedReport(rid, text, "O" * len(text), spans)


class TestPoolSpan:
    def test_single_row(self):
        H = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(pool_span(H, (2, 3)), H[2])

    def test_mean_of_identical_rows(self):
        H = np.tile(np.array([1.5, -2.0]), (3, 1))
        assert np.array_equal(pool_span(H, (0, 3)), np.array([1.5, -2.0]))

    def test_against_naive_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, d = rng.integers(1, 20), rng.integers(1, 8)
            H = rng.normal(size=(m, d))
            s = int(rng.integers(0, m))
            e = int(rng.integers(s + 1, m + 1))
            naive = sum(H[i] for i in range(s, e)) / (e - s)
            assert np.allclose(pool_span(H, (s, e)), naive, atol=1e-12, rtol=0)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        H = rng.normal(size=(6, 4))
        alpha = 3.7
        assert np.allclose(pool_span(alpha * H, (1, 5)), alpha * pool_span(H, (1, 5)))

    def test_empty_or_out_of_bounds(self):
        H = np.zeros((3, 2))
        with pytest.raises(ValidationError):
            pool_span(H, (1, 1))
        with pytest.raises(ValidationError):
            pool_span(H, (2, 5))


def loop_design(enc, mixed, ranges):
    """Reference pooling weights: per span, a dict of table row -> weight,
    summed character by character and window slot by window slot."""
    m = len(mixed.chars)
    out = []
    for start, end in ranges:
        coeff = {}
        for i in range(start, end):
            lo, hi = max(i - enc.window, 0), min(i + enc.window, m - 1)
            for k in range(lo, hi + 1):
                r = ord(mixed.chars[k]) % enc.buckets
                coeff[r] = coeff.get(r, 0.0) + 1.0 / ((hi - lo + 1) * (end - start))
        out.append(coeff)
    return out


def unique_add_at_design(enc, mixed, ranges):
    """Reference pooling structure, vectorised with np.unique and np.add.at,
    which add each cell's weights in the order the encoder's dicts do."""
    m = len(mixed.chars)
    bounds = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
    starts, ends = bounds[:, 0], bounds[:, 1]
    lengths = ends - starts
    span_of = np.repeat(np.arange(len(bounds)), lengths)
    pos = np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    pos += starts[span_of]
    lo = np.maximum(pos - enc.window, 0)
    hi = np.minimum(pos + enc.window, m - 1)
    weight = 1.0 / ((hi - lo + 1) * lengths[span_of])
    k = pos[:, None] + np.arange(-enc.window, enc.window + 1)
    inside = (k >= lo[:, None]) & (k <= hi[:, None])
    ids = np.array([ord(c) % enc.buckets for c in mixed.chars], dtype=np.int64)[k[inside]]
    rows, cols = np.unique(ids, return_inverse=True)
    n_slots = inside.sum(axis=1)
    D = np.zeros((len(bounds), len(rows)))
    np.add.at(D, (np.repeat(span_of, n_slots), cols), np.repeat(weight, n_slots))
    return rows, D


class TestHashedWindowEncoder:
    def test_shape(self):
        enc = HashedWindowEncoder(dim=16, window=2, seed=0)
        S = enc.span_embeddings(mixed_of("肺", ranges=[(0, 1)]))
        assert S.shape == (1, 16)

    def test_deterministic(self):
        enc = HashedWindowEncoder(dim=8, seed=3)
        m = mixed_of("左肺下叶", ranges=[(0, 2), (1, 4)])
        assert np.array_equal(enc.span_embeddings(m), enc.span_embeddings(m))

    def test_seeds_differ(self):
        a = HashedWindowEncoder(dim=8, seed=1)
        b = HashedWindowEncoder(dim=8, seed=2)
        assert not np.array_equal(a.table, b.table)

    def test_window0_is_position_independent(self):
        enc = HashedWindowEncoder(dim=8, window=0, seed=0)
        s1 = enc.span_embeddings(mixed_of("ab左cd", ranges=[(2, 3)]))
        s2 = enc.span_embeddings(mixed_of("左xyz", ranges=[(0, 1)]))
        assert np.array_equal(s1, s2)

    def test_window0_rows_are_table_lookups(self):
        # ord() gives an astral character, and a lone surrogate (which a
        # MixedReport may hold), one code point of its own
        texts = ["abc", "abc xyz", "肺左叶见片影", "a😀b😀", "\ud800", "x\udfffy\ud83d",
                 "左" + chr(0x10FFFF) + "\x00"]
        for buckets in (1, 7, 4096, 70000):
            enc = HashedWindowEncoder(dim=8, window=0, buckets=buckets, seed=0)
            for text in texts:
                chars = [(i, i + 1) for i in range(len(text))]
                S = enc.span_embeddings(mixed_of(text, ranges=chars))
                assert S.shape == (len(text), 8)
                for i, ch in enumerate(text):
                    assert np.array_equal(S[i], enc.table[ord(ch) % enc.buckets])

    def test_window_mean_matches_naive(self):
        enc = HashedWindowEncoder(dim=5, window=2, seed=4)
        text = "abcdefg"
        S = enc.span_embeddings(mixed_of(text, ranges=[(i, i + 1) for i in range(len(text))]))
        for i in range(len(text)):
            lo, hi = max(0, i - 2), min(len(text) - 1, i + 2)
            naive = np.mean([enc.table[ord(text[k]) % enc.buckets] for k in range(lo, hi + 1)],
                            axis=0)
            assert np.allclose(S[i], naive, atol=1e-12)

    def test_empty_report_pools_to_an_empty_matrix(self):
        # an empty report has no span, so nothing is pooled and nothing refused
        S = HashedWindowEncoder(dim=4).span_embeddings(mixed_of(""))
        assert S.shape == (0, 4) and S.dtype == np.float64

    def test_window_range(self):
        assert HashedWindowEncoder(dim=2, window=MAX_WINDOW, buckets=4).window == MAX_WINDOW
        for window in (-1, MAX_WINDOW + 1, 10**18):
            with pytest.raises(ValidationError, match="window"):
                HashedWindowEncoder(dim=2, window=window, buckets=4)

    def test_given_table_is_used_as_is_and_shape_checked(self):
        table = np.arange(6.0).reshape(3, 2)
        enc = HashedWindowEncoder(dim=2, window=1, buckets=3, table=table)
        assert np.shares_memory(enc.table, table) and not enc.table.flags.writeable
        with pytest.raises(ValidationError, match=r"table has shape \[3, 2\], expected \[2, 3\]"):
            HashedWindowEncoder(dim=3, window=1, buckets=2, table=table)
        with pytest.raises(ValidationError, match="window"):
            HashedWindowEncoder(dim=2, window=MAX_WINDOW + 1, buckets=3, table=table)

    def test_given_table_stays_writeable_for_its_owner(self):
        table = np.arange(6.0).reshape(3, 2)
        enc = HashedWindowEncoder(dim=2, window=1, buckets=3, table=table)
        assert table.flags.writeable and not enc.table.flags.writeable
        table[0, 0] = 7.0  # the owner may still write, and the encoder, not a copy, sees it
        assert enc.table[0, 0] == 7.0
        with pytest.raises(ValueError):
            enc.table[0, 0] = 1.0

    @pytest.mark.parametrize("table, message", [
        ([[0.0, 1.0], [2.0]], r"table is ragged, expected shape \[2, 2\]"),
        ([["0.0", "1.0"], ["2.0", "3.0"]], "table has dtype <U3, expected real numbers"),
        (np.ones((2, 2), dtype=complex), "table has dtype complex128, expected real numbers"),
        ([[0.0, None], [2.0, 3.0]], "table has dtype object, expected real numbers"),
    ])
    def test_bad_table_names_its_shape_or_dtype(self, table, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            HashedWindowEncoder(dim=2, window=1, buckets=2, table=table)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_table_is_rejected(self, bad):
        # such a table used to build, and every edited report then scored NaN
        table = np.full((4, 2), 0.1)
        table[3, 1] = bad
        with pytest.raises(ValidationError, match="^table holds non-finite values$"):
            HashedWindowEncoder(dim=2, window=1, buckets=4, table=table)

    def test_list_table_accepted(self):
        enc = HashedWindowEncoder(dim=2, window=1, buckets=2, table=[[0.0, 1.0], [2.0, 3.0]])
        assert enc.table.dtype == np.float64 and not enc.table.flags.writeable
        assert enc.table.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    @pytest.mark.parametrize("kwargs, message", [
        ({"window": 2.5}, "window must be an integer, got 2.5"),
        ({"window": True}, "window must be an integer, got True"),
        ({"dim": 4.0}, "dim must be an integer, got 4.0"),
        ({"buckets": 0}, "buckets must be >= 1, got 0"),
    ])
    def test_non_integer_or_small_sizes_rejected(self, kwargs, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            HashedWindowEncoder(**{"dim": 2, "window": 1, "buckets": 4, **kwargs})

    @pytest.mark.parametrize("buckets, dim", [(2**21 + 1, 64), (1, 2**27 + 1), (2**64, 1)])
    def test_table_above_the_size_cap_refused(self, buckets, dim):
        with pytest.raises(ValidationError, match=f"^buckets x dim table of {buckets} x {dim} "
                                                  "values is above the cap of 134217728"):
            HashedWindowEncoder(dim=dim, window=1, buckets=buckets)

    def test_table_at_the_size_cap_passes_the_cap(self):
        # a 1 GiB table is allowed: the given 1 x 1 table fails only its shape check
        with pytest.raises(ValidationError, match=r"^table has shape \[1, 1\]"):
            HashedWindowEncoder(dim=2**6, buckets=2**21, table=np.zeros((1, 1)))

    def test_span_design_matches_encode_pool(self):
        cases = [
            (2, 4096, "肺左叶大片影", "肺双叶小片影", None),
            (0, 4096, "肺左叶大片影", "肺双叶小片影", None),
            (3, 4096, "肺左叶大片影", "肺双叶小片影", None),
            # spans at both ends of the report, where the window is clipped
            (3, 4096, "xab", "yab", None),
            (3, 4096, "abx", "aby", None),
            (2, 4096, "a", "b", None),
            # adjacent spans whose windows overlap, repeated characters
            (2, 4096, "aaaa", "aaaa", [(0, 1), (1, 2), (2, 4), (0, 4)]),
            (3, 4096, "左左肺肺左", "左左肺肺左", [(1, 2), (2, 3), (3, 5)]),
            # bucket collisions: 7 buckets for many distinct characters
            (2, 7, "abcdefghij", "abcdefghij", [(0, 3), (2, 6), (7, 10)]),
            (1, 7, "左肺下叶见结节影", "双肺上叶见小结节", None),
        ]
        reports = []
        for window, buckets, junior, senior, ranges in cases:
            mixed = merge_reports(ReportPair("r", junior, senior))
            if ranges is not None:
                mixed = mixed_of(mixed.chars, ranges=ranges)
            reports.append((window, buckets, mixed))
        # astral characters and lone surrogates, one code point each, which a
        # MixedReport may hold though a ReportPair may not; 1 to 70,000 buckets
        for text in ["a😀b😀", "\ud800", "x\udfffy\ud83d", "左" + chr(0x10FFFF) + "\x00"]:
            m = len(text)
            for window, buckets in [(0, 1), (0, 70000), (1, 7), (2, 4096), (2, 70000)]:
                reports.append((window, buckets, mixed_of(text, ranges=[(0, m), (m - 1, m)])))
        for window, buckets, mixed in reports:
            ranges = [s.range for s in mixed.spans]
            assert ranges
            enc = HashedWindowEncoder(dim=6, window=window, buckets=buckets, seed=5)
            H = reference_encode(enc, mixed)
            direct = np.stack([pool_span(H, r) for r in ranges])
            rows, D = enc._span_design(mixed)
            assert np.array_equal(rows, np.unique(rows))
            assert D.shape == (len(ranges), len(rows))
            # same additions in the same order as the loop: equal bit for bit
            expected = np.zeros_like(D)
            for s, coeff in enumerate(loop_design(enc, mixed, ranges)):
                expected[s, np.searchsorted(rows, list(coeff))] = list(coeff.values())
            assert np.array_equal(D, expected)
            assert np.allclose(D.sum(axis=1), 1.0, atol=1e-12, rtol=0)
            S = enc.span_embeddings(mixed)
            assert np.array_equal(S, D @ enc.table[rows])
            assert np.allclose(direct, S, atol=1e-12)

    def test_span_design_bitwise_equal_to_unique_add_at(self):
        rng = np.random.default_rng(9)
        texts = ["肺左叶见片影", "aaaa", "abcdefghij", "左左肺肺左", "a", "xy",
                 "\ud800", "左\udfffx\ud800\ud800y"]  # lone surrogates, as JSON allows
        long_text = "".join(rng.choice(list("ab左肺\ud83d")) for _ in range(3 * MAX_WINDOW))
        for window in (0, 1, 2, 3, MAX_WINDOW):
            for buckets in (4096, 5):
                enc = HashedWindowEncoder(dim=3, window=window, buckets=buckets, seed=1)
                random_text = "".join(rng.choice(list("ab左肺")) for _ in range(30))
                for text in texts + [random_text, long_text]:
                    m = len(text)
                    # whole report, either edge, both edges in one call
                    cases = [[(0, m)], [(0, 1)], [(m - 1, m)], [(0, 1), (m - 1, m)]]
                    if m >= 3:
                        cases.append([(0, 1), (1, 2), (2, m)])  # adjacent
                        cases.append([(0, m - 1), (1, m), (1, 2)])  # overlapping
                    for _ in range(5):
                        starts = rng.integers(0, m, size=3)
                        cases.append([(int(a), int(rng.integers(a + 1, m + 1))) for a in starts])
                    for ranges in cases:
                        mixed = mixed_of(text, ranges=ranges)
                        rows, D = enc._span_design(mixed)
                        ref_rows, ref_D = unique_add_at_design(enc, mixed, ranges)
                        assert np.array_equal(rows, ref_rows)
                        assert D.shape == ref_D.shape
                        assert D.tobytes() == ref_D.tobytes(), (window, text, ranges)

    def test_span_design_rejects_bad_ranges(self):
        enc = HashedWindowEncoder(dim=4)
        for bad in ([(0, 0)], [(2, 1)], [(0, 4)], [(-1, 1)]):
            with pytest.raises(ValidationError, match="out of bounds"):
                enc.span_embeddings(mixed_of("abc", ranges=bad))


def write_embeddings(path, dim, records):
    """An embeddings file of records {report_id: (ranges, rows)}."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dim": dim}) + "\n")
        for rid, (ranges, rows) in records.items():
            fh.write(json.dumps({"report_id": rid, "ranges": ranges, "rows": rows}) + "\n")


def write_record_lines(path, *lines):
    """A 2-dimensional embeddings file: a header, a good record and then the
    given record lines, so the first of them is line 3."""
    path.write_text('{"dim": 2}\n{"report_id": "ok", "ranges": [[0, 1]], "rows": [[1.0, 2.0]]}\n'
                    + "".join(line + "\n" for line in lines))


@pytest.mark.parametrize("backend", ["hashed", "precomputed"])
def test_no_ranges_give_an_empty_float_matrix(tmp_path, backend):
    # both backends answer a spanless call alike, as a 0 x dim matrix
    if backend == "hashed":
        enc = HashedWindowEncoder(dim=3)
    else:
        path = tmp_path / "emb.jsonl"
        write_embeddings(path, 3, {"r": ([], [])})
        enc = PrecomputedEncoder.from_file(path)
    S = enc.span_embeddings(mixed_of("abcd", rid="r"))
    assert S.shape == (0, 3) and S.dtype == np.float64


class TestPrecomputedEncoder:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        rows = [[2.0, 3.0], [5.0, 6.0]]
        write_embeddings(path, 2, {"r": ([[0, 2], [2, 3]], rows)})
        enc = PrecomputedEncoder.from_file(path)
        assert enc.source_path == str(path)
        S = enc.span_embeddings(mixed_of("abc", rid="r", ranges=[(0, 2), (2, 3)]))
        assert S.dtype == np.float64 and np.array_equal(S, np.array(rows))

    def test_missing_report_names_report_and_file(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_embeddings(path, 2, {"r": ([[0, 1]], [[0.0, 0.0]])})
        enc = PrecomputedEncoder.from_file(path)
        with pytest.raises(ValidationError, match=re.escape(
                f"no precomputed embeddings for report 'other' in {path}")):
            enc.span_embeddings(mixed_of("a", rid="other", ranges=[(0, 1)]))

    @pytest.mark.parametrize("ranges", [[(0, 2)], [(0, 1), (2, 3)], [(1, 2)], []])
    def test_ranges_other_than_the_merge_name_report_and_file(self, tmp_path, ranges):
        # a file written for another merge or span rule is refused, not misread
        path = tmp_path / "emb.jsonl"
        write_embeddings(path, 2, {"r": ([[0, 1]], [[0.0, 0.0]])})
        enc = PrecomputedEncoder.from_file(path)
        expected = (f"report 'r': span ranges [(0, 1)] in {path} differ from the merge's "
                    f"{ranges}")
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            enc.span_embeddings(mixed_of("abc", rid="r", ranges=ranges))

    def test_in_memory_mismatch_names_no_file(self):
        enc = PrecomputedEncoder(2, {"r": ([(0, 1)], np.zeros((1, 2)))})
        with pytest.raises(ValidationError, match="in the in-memory embeddings differ"):
            enc.span_embeddings(mixed_of("ab", rid="r", ranges=[(1, 2)]))

    def test_spanless_record_needs_empty_rows(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_record_lines(path, '{"report_id": "r", "ranges": [], "rows": [[]]}')
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}:3: report 'r' matrix has shape [1, 0], expected [0, 2]")):
            PrecomputedEncoder.from_file(path)

    def test_per_character_file_is_refused(self, tmp_path):
        # the format before span rows: one row per mixed-report character
        path = tmp_path / "emb.jsonl"
        path.write_text('{"dim": 2}\n{"report_id": "r", "rows": [[1.0, 2.0], [3.0, 4.0]]}\n')
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: missing field 'ranges'$"):
            PrecomputedEncoder.from_file(path)

    @pytest.mark.parametrize("ranges, shown, floor", [
        ("[[0, true]]", "[0, True]", 0),
        ("[[0, 1.0]]", "[0, 1.0]", 0),
        ("[[0.0, 1]]", "[0.0, 1]", 0),
        ('[["0", 1]]', "['0', 1]", 0),
        ("[[0]]", "[0]", 0),
        ("[[0, 1, 2]]", "[0, 1, 2]", 0),
        ("[0, 1]", "0", 0),
        ("[null]", "None", 0),
        ('{"0": 1}', "{'0': 1}", 0),
        ("7", "7", 0),
        ("[[-1, 1]]", "[-1, 1]", 0),
        ("[[1, 1]]", "[1, 1]", 0),
        ("[[2, 1]]", "[2, 1]", 0),
        ("[[0, 2], [1, 3]]", "[1, 3]", 2),  # overlapping
        ("[[2, 3], [0, 1]]", "[0, 1]", 3),  # out of order
    ])
    def test_bad_ranges_name_file_and_line(self, tmp_path, ranges, shown, floor):
        path = tmp_path / "emb.jsonl"
        write_record_lines(path, f'{{"report_id": "r", "ranges": {ranges}, '
                                 '"rows": [[1.0, 2.0], [3.0, 4.0]]}')
        expected = (f"{path}:3: report 'r' range {shown} is not a [start, end] pair of "
                    f"integers with {floor} <= start < end")
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            PrecomputedEncoder.from_file(path)

    def test_adjacent_ranges_load(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_embeddings(path, 1, {"r": ([[0, 2], [2, 3], [5, 9]], [[1.0], [2.0], [3.0]])})
        assert PrecomputedEncoder.from_file(path).records["r"][0] == [(0, 2), (2, 3), (5, 9)]

    @pytest.mark.parametrize("rows, message", [
        ("[[1.0, 2.0]]", "has shape [1, 2], expected [2, 2]"),
        ("[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]", "has shape [3, 2], expected [2, 2]"),
        ("[[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]]", "has shape [2, 3], expected [2, 2]"),
        ("[[1.0, 2.0], [3.0]]", "is ragged, expected shape [2, 2]"),
        ("[]", "has shape [0], expected [2, 2]"),
        ("[[1.0, 2.0], [NaN, 0.0]]", "holds non-finite values"),
        ("[[1.0, 2.0], [Infinity, 0.0]]", "holds non-finite values"),
        ("[[1.0, 2.0], [-Infinity, 0.0]]", "holds non-finite values"),
        ("[[1.0, 2.0], [1e308, 0.0]]", "holds values above 1e+150 in magnitude"),
        ('[["1.5", "2"], ["3", "4"]]', "has dtype <U3, expected real numbers"),
        ("[[true, false], [true, true]]", "has dtype bool, expected real numbers"),
        ('[[1.0, {"x": 2}], [3, 4]]', "has dtype object, expected real numbers"),
    ])
    def test_bad_rows_name_file_and_line(self, tmp_path, rows, message):
        path = tmp_path / "emb.jsonl"
        write_record_lines(path, '{"report_id": "r", "ranges": [[0, 1], [1, 3]], '
                                 f'"rows": {rows}}}')
        expected = f"{path}:3: report 'r' matrix {message}"
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            PrecomputedEncoder.from_file(path)

    def test_repeated_report_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_record_lines(path, '{"report_id": "ok", "ranges": [], "rows": []}')
        with pytest.raises(ValidationError, match=r"emb\.jsonl:3: duplicate report id 'ok'"):
            PrecomputedEncoder.from_file(path)

    @pytest.mark.parametrize("records, message", [
        ({"r": ([(0, 1)], np.ones((1, 7)))},
         r"report 'r' matrix has shape \[1, 7\], expected \[1, 3\]"),
        ({"r": ([(0, 1)], np.ones(3))}, r"report 'r' matrix has shape \[3\], expected \[1, 3\]"),
        ({"r": ([(0, 1)], np.full((1, 3), np.nan))}, "report 'r' matrix holds non-finite values"),
        ({"r": ([(0, 1)], [[True, False, True]])},
         "report 'r' matrix has dtype bool, expected real numbers"),
        ({"r": ([(0, np.int64(1))], np.ones((1, 3)))},
         # numpy 2 shows the value as np.int64(1), numpy 1 as 1
         r"report 'r' range \(0, .+\) is not a \[start, end\] pair of integers "
         "with 0 <= start < end"),
        ({5: ([], np.ones((0, 3)))}, "'report_id' must be a string, got 5"),
        ({"a\ud800": ([], np.ones((0, 3)))},
         "'report_id' holds a lone surrogate, which UTF-8 cannot encode"),
    ])
    def test_constructor_checks_each_record(self, records, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            PrecomputedEncoder(3, records)

    def test_constructor_keeps_a_float64_matrix_uncopied(self):
        matrix = np.arange(6.0).reshape(2, 3)
        enc = PrecomputedEncoder(3, {"r": ([(0, 1), (1, 2)], matrix), "s": ([[0, 4]], [[1, 2, 3]])})
        assert enc.records["r"][1] is matrix
        ranges, rows = enc.records["s"]
        assert ranges == [(0, 4)]
        assert rows.dtype == np.float64 and rows.tolist() == [[1, 2, 3]]

    @pytest.mark.parametrize("dim", [0, 2.0, True, None])
    def test_constructor_checks_dim(self, dim):
        with pytest.raises(ValidationError, match="^dim must be"):
            PrecomputedEncoder(dim, {})

    def test_missing_header(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"report_id": "r", "ranges": [[0, 1]], "rows": [[1.0]]}\n')
        with pytest.raises(ParseError, match="dim"):
            PrecomputedEncoder.from_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text("")
        with pytest.raises(ParseError):
            PrecomputedEncoder.from_file(path)


def test_span_rows_train_the_model_character_rows_trained(tmp_path):
    # the span rows pool_span gives from seeded character rows train a model
    # whose file equals, byte for byte, that of the per-character backend
    # pooling those rows itself, saved under the same embeddings path
    train_ds, _, manual, _ = acceptance_split()
    rng = np.random.default_rng(11)
    mixed = [merge_reports(pair) for pair in train_ds]
    matrices = {m.report_id: rng.normal(size=(len(m.chars), 4)) for m in mixed}
    path = tmp_path / "emb.jsonl"
    write_embeddings(path, 4, {m.report_id: ([list(s.range) for s in m.spans],
                                             [pool_span(matrices[m.report_id], s.range).tolist()
                                              for s in m.spans]) for m in mixed})
    config = TrainConfig(epochs=5, hidden=8, seed=7)
    files = []
    for backend in (CharacterRowEncoder(4, matrices, str(path)),
                    PrecomputedEncoder.from_file(path)):
        model, _ = train(train_ds, manual, config, backend=backend)
        save_model(model, tmp_path / "model.json")
        files.append((tmp_path / "model.json").read_bytes())
    assert files[0] == files[1]
