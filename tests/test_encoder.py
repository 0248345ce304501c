import json

import numpy as np
import pytest

from spanqa.diffmerge import MixedReport, merge_reports
from spanqa.encoder import (
    MAX_WINDOW,
    HashedWindowEncoder,
    PrecomputedEncoder,
    external_backend,
    pool_span,
)
from spanqa.types import ParseError, ReportPair, ValidationError


def mixed_of(text, rid="r"):
    return MixedReport(rid, text, "O" * len(text))


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
                r = enc.bucket(mixed.chars[k])
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
    ids = np.array([enc.bucket(c) for c in mixed.chars], dtype=np.int64)[k[inside]]
    rows, cols = np.unique(ids, return_inverse=True)
    n_slots = inside.sum(axis=1)
    D = np.zeros((len(bounds), len(rows)))
    np.add.at(D, (np.repeat(span_of, n_slots), cols), np.repeat(weight, n_slots))
    return rows, D


class TestHashedWindowEncoder:
    def test_shape(self):
        enc = HashedWindowEncoder(dim=16, window=2, seed=0)
        H = enc.encode(mixed_of("肺"))
        assert H.shape == (1, 16)

    def test_deterministic(self):
        enc = HashedWindowEncoder(dim=8, seed=3)
        m = mixed_of("左肺下叶")
        assert np.array_equal(enc.encode(m), enc.encode(m))

    def test_seeds_differ(self):
        a = HashedWindowEncoder(dim=8, seed=1)
        b = HashedWindowEncoder(dim=8, seed=2)
        assert not np.array_equal(a.table, b.table)

    def test_window0_is_position_independent(self):
        enc = HashedWindowEncoder(dim=8, window=0, seed=0)
        h1 = enc.encode(mixed_of("ab左cd"))
        h2 = enc.encode(mixed_of("左xyz"))
        assert np.array_equal(h1[2], h2[0])

    def test_window0_rows_are_table_lookups(self):
        # ord() gives an astral character, and a lone surrogate (valid in
        # JSON), one code point of its own
        texts = ["abc", "abc xyz", "肺左叶见片影", "a😀b😀", "\ud800", "x\udfffy\ud83d",
                 "左" + chr(0x10FFFF) + "\x00"]
        for buckets in (1, 7, 4096, 70000):
            enc = HashedWindowEncoder(dim=8, window=0, buckets=buckets, seed=0)
            for text in texts:
                H = enc.encode(mixed_of(text))
                assert H.shape == (len(text), 8)
                for i, ch in enumerate(text):
                    assert np.array_equal(H[i], enc.table[ord(ch) % enc.buckets])

    def test_window_mean_matches_naive(self):
        enc = HashedWindowEncoder(dim=5, window=2, seed=4)
        text = "abcdefg"
        H = enc.encode(mixed_of(text))
        for i in range(len(text)):
            lo, hi = max(0, i - 2), min(len(text) - 1, i + 2)
            naive = np.mean([enc.table[enc.bucket(text[k])] for k in range(lo, hi + 1)], axis=0)
            assert np.allclose(H[i], naive, atol=1e-12)

    def test_empty_report_rejected(self):
        enc = HashedWindowEncoder(dim=4)
        with pytest.raises(ValidationError):
            enc.encode(mixed_of(""))

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
        for window, buckets, junior, senior, ranges in cases:
            enc = HashedWindowEncoder(dim=6, window=window, buckets=buckets, seed=5)
            mixed = merge_reports(ReportPair("r", junior, senior))
            if ranges is None:
                ranges = [s.range for s in mixed.spans]
            assert ranges
            H = enc.encode(mixed)
            direct = np.stack([pool_span(H, r) for r in ranges])
            rows, D = enc._span_design(mixed, ranges)
            assert np.array_equal(rows, np.unique(rows))
            assert D.shape == (len(ranges), len(rows))
            # same additions in the same order as the loop: equal bit for bit
            expected = np.zeros_like(D)
            for s, coeff in enumerate(loop_design(enc, mixed, ranges)):
                expected[s, np.searchsorted(rows, list(coeff))] = list(coeff.values())
            assert np.array_equal(D, expected)
            assert np.allclose(D.sum(axis=1), 1.0, atol=1e-12, rtol=0)
            S = enc.span_embeddings(mixed, ranges)
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
                        mixed = mixed_of(text)
                        rows, D = enc._span_design(mixed, ranges)
                        ref_rows, ref_D = unique_add_at_design(enc, mixed, ranges)
                        assert np.array_equal(rows, ref_rows)
                        assert D.shape == ref_D.shape
                        assert D.tobytes() == ref_D.tobytes(), (window, text, ranges)

    def test_span_design_rejects_bad_ranges(self):
        enc = HashedWindowEncoder(dim=4)
        for bad in ([(0, 0)], [(2, 1)], [(0, 4)], [(-1, 1)]):
            with pytest.raises(ValidationError, match="out of bounds"):
                enc.span_embeddings(mixed_of("abc"), bad)


def write_embeddings(path, dim, matrices):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dim": dim}) + "\n")
        for rid, rows in matrices.items():
            fh.write(json.dumps({"report_id": rid, "rows": rows}) + "\n")


@pytest.mark.parametrize("backend", ["hashed", "precomputed"])
def test_no_ranges_give_an_empty_float_matrix(tmp_path, backend):
    # both backends answer a spanless call alike, as a 0 x dim matrix
    if backend == "hashed":
        enc = HashedWindowEncoder(dim=3)
    else:
        path = tmp_path / "emb.jsonl"
        write_embeddings(path, 3, {"r": [[1.0, 2.0, 3.0]] * 4})
        enc = external_backend(path)
    S = enc.span_embeddings(mixed_of("abcd", rid="r"), [])
    assert S.shape == (0, 3) and S.dtype == np.float64


class TestPrecomputedEncoder:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        rows = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        write_embeddings(path, 2, {"r": rows})
        enc = external_backend(path)
        assert enc.source_path == str(path)
        H = enc.encode(mixed_of("abc", rid="r"))
        assert np.array_equal(H, np.array(rows))
        S = enc.span_embeddings(mixed_of("abc", rid="r"), [(0, 2), (2, 3)])
        assert np.array_equal(S, np.array([[2.0, 3.0], [5.0, 6.0]]))

    def test_missing_report(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_embeddings(path, 2, {"r": [[0.0, 0.0]]})
        enc = external_backend(path)
        with pytest.raises(ValidationError, match="other"):
            enc.encode(mixed_of("a", rid="other"))

    def test_row_count_mismatch_names_report(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_embeddings(path, 2, {"r": [[0.0, 0.0]]})
        enc = external_backend(path)
        with pytest.raises(ValidationError, match="'r'"):
            enc.encode(mixed_of("abc", rid="r"))

    def test_dimension_mismatch_at_load(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_embeddings(path, 3, {"r": [[1.0, 2.0]]})
        with pytest.raises(ValidationError, match="3-dimensional"):
            external_backend(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rows_name_file_and_line(self, tmp_path, bad):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"dim": 2}\n{"report_id": "ok", "rows": [[1.0, 2.0]]}\n'
                        f'{{"report_id": "r", "rows": [[1.0, 2.0], [{bad}, 0.0]]}}\n')
        with pytest.raises(ValidationError, match=r"emb\.jsonl:3: report 'r'.*non-finite"):
            external_backend(path)

    def test_repeated_report_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"dim": 2}\n{"report_id": "a", "rows": [[1, 2]]}\n'
                        '{"report_id": "a", "rows": [[3, 4], [5, 6]]}\n')
        with pytest.raises(ValidationError, match=r"emb\.jsonl:3: duplicate report id 'a'"):
            external_backend(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"report_id": "r", "rows": [[1.0]]}\n')
        with pytest.raises(ParseError, match="dim"):
            external_backend(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text("")
        with pytest.raises(ParseError):
            external_backend(path)
