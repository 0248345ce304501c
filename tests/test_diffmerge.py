import itertools
import os
import random
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanqa.corpus import SynthesisConfig, generate_synthetic_corpus
from spanqa.diffmerge import (
    ADDITION,
    DELETE,
    DELETION,
    INSERT,
    KEEP,
    REVISION,
    EditRun,
    MixedReport,
    _common_prefix_len,
    lcs_diff,
    lcs_ops,
    merge_reports,
    reconstruct,
    span_char_indices,
)
from spanqa.types import ReportPair, ValidationError


def lcs_len_enum(a, b):
    """Oracle: enumerate every subsequence of a, keep the longest also in b."""
    def is_subseq(s, t):
        it = iter(t)
        return all(ch in it for ch in s)

    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(a, r):
            if is_subseq(combo, b):
                return r
    return best


def lcs_len_memo(a, b):
    """Oracle for longer strings: top-down recursion, written independently."""
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def dp_lcs_ops(a, b):
    """Reference kernel: the full O(n*m) LCS table, then a backtrack that
    on a mismatch moves in the `a` direction whenever M[i-1][j] >= M[i][j-1].
    """
    n, m = len(a), len(b)
    M = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        ai = a[i - 1]
        row = M[i]
        prev = M[i - 1]
        for j in range(1, m + 1):
            if ai == b[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                up = prev[j]
                left = row[j - 1]
                row[j] = up if up >= left else left

    ops = []
    i, j = n, m
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            ops.append(KEEP)
            i -= 1
            j -= 1
        elif M[i - 1][j] >= M[i][j - 1]:
            ops.append(DELETE)
            i -= 1
        else:
            ops.append(INSERT)
            j -= 1
    while i > 0:
        ops.append(DELETE)
        i -= 1
    while j > 0:
        ops.append(INSERT)
        j -= 1
    ops.reverse()
    return ops


def keep_len(script):
    return sum(len(r.chars) for r in script if r.kind == "keep")


def pair(junior, senior, rid="r"):
    return ReportPair(rid, junior, senior)


class TestLcsDiff:
    def test_identity(self):
        script = lcs_diff("abc", "abc")
        assert [r.kind for r in script] == ["keep"]
        assert script[0].chars == "abc"

    def test_single_char_substitution(self):
        # the motivating pattern: one laterality character swapped
        script = lcs_diff("肺左叶影", "肺双叶影")
        assert [(r.kind, r.chars) for r in script] == [
            ("keep", "肺"),
            ("delete", "左"),
            ("insert", "双"),
            ("keep", "叶影"),
        ]

    def test_empty_inputs(self):
        assert lcs_diff("", "") == []
        assert [(r.kind, r.chars) for r in lcs_diff("", "ab")] == [("insert", "ab")]
        assert [(r.kind, r.chars) for r in lcs_diff("ab", "")] == [("delete", "ab")]

    def test_script_concatenation_invariants(self):
        rng = random.Random(5)
        for _ in range(300):
            a = "".join(rng.choices("abcde", k=rng.randint(0, 12)))
            b = "".join(rng.choices("abcde", k=rng.randint(0, 12)))
            script = lcs_diff(a, b)
            junior = "".join(r.chars for r in script if r.kind in ("keep", "delete"))
            senior = "".join(r.chars for r in script if r.kind in ("keep", "insert"))
            assert junior == a
            assert senior == b
            kinds = [r.kind for r in script]
            for x, y in zip(kinds, kinds[1:]):
                assert x != y, f"non-maximal runs in {script}"

    def test_exhaustive_two_symbol_alphabet(self):
        strings = [""]
        for n in range(1, 7):
            strings += ["".join(p) for p in itertools.product("ab", repeat=n)]
        for a in strings:
            for b in strings:
                assert keep_len(lcs_diff(a, b)) == lcs_len_enum(a, b), (a, b)

    def test_random_pairs_against_memo_oracle(self):
        rng = random.Random(99)
        alphabet = "abcdefghijklmnopqrst"
        for _ in range(500):
            a = "".join(rng.choices(alphabet, k=rng.randint(0, 30)))
            b = "".join(rng.choices(alphabet, k=rng.randint(0, 30)))
            assert keep_len(lcs_diff(a, b)) == lcs_len_memo(a, b), (a, b)

    def test_run_offsets(self):
        script = lcs_diff("axxb", "ayb")
        assert [(r.kind, r.junior_offset, r.senior_offset) for r in script] == [
            ("keep", 0, 0),
            ("delete", 1, 1),
            ("insert", 3, 1),
            ("keep", 3, 2),
        ]


def edge_pairs():
    return [("", ""), ("", "ab"), ("ab", ""), ("abc", "abc"),
            ("肺左叶影", "肺双叶影"), ("aaaa", "aa"), ("ab", "ba"), ("a", "aa")]


def fuzz_pairs():
    rng = random.Random(7)
    for alphabet in ("ab", "abcde", "ab漢字xy", "肺肝脾左右双未见影"):
        for _ in range(500):
            a = "".join(rng.choices(alphabet, k=rng.randint(0, 25)))
            b = a if rng.random() < 0.1 else "".join(
                rng.choices(alphabet, k=rng.randint(0, 25)))
            if rng.random() < 0.3:  # long common suffix
                tail = "".join(rng.choices(alphabet, k=rng.randint(1, 40)))
                a, b = a + tail, b + tail
            yield a, b


def word_boundary_pairs():
    rng = random.Random(11)
    for alphabet in ("abc", "ab漢字xy"):
        for _ in range(40):
            a = "".join(rng.choices(alphabet, k=rng.randint(60, 200)))
            b = "".join(rng.choices(alphabet, k=rng.randint(60, 200)))
            yield a, b


def shared_prefix_suffix_pairs():
    """Pairs that share a prefix and a suffix around short differing cores,
    over small alphabets, so characters repeat across both boundaries."""
    rng = random.Random(13)
    for alphabet in ("a", "ab", "abc"):
        for _ in range(1500):
            prefix = "".join(rng.choices(alphabet, k=rng.randint(0, 20)))
            suffix = "".join(rng.choices(alphabet, k=rng.randint(0, 20)))
            x = "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
            y = "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
            yield prefix + x + suffix, prefix + y + suffix


def dense_pairs():
    """Short reports with dense edits, as the predict-dense benchmark scores."""
    dataset, _ = generate_synthetic_corpus(SynthesisConfig(
        n_reports=200, benign_edit_rate=0.4, harmful_edit_rate=0.15, seed=24))
    return [(p.junior, p.senior) for p in dataset.pairs]


def acceptance_pairs():
    dataset, _ = generate_synthetic_corpus(SynthesisConfig(
        n_reports=500, benign_edit_rate=0.05, harmful_edit_rate=0.05, seed=42))
    assert len(dataset.pairs) == 500
    return [(p.junior, p.senior) for p in dataset.pairs]


class TestKernelParity:
    """`lcs_ops` must give the DP's opcodes, not just an LCS of the same
    length: the corpus generator keeps a report only when its merge yields
    one span per edit, so other opcodes would change the corpus."""

    def test_edge_cases(self):
        for a, b in edge_pairs():
            assert lcs_ops(a, b) == dp_lcs_ops(a, b), (a, b)

    def test_common_prefix_not_trimmed(self):
        # the DP aligns the kept 'a' with the last 'a' of the senior text
        assert lcs_ops("a", "aa") == [INSERT, KEEP]
        assert lcs_ops("a", "aa") == dp_lcs_ops("a", "aa")

    def test_prefix_boundary_cases(self):
        cases = [
            ("aab", "ab"), ("ab", "aab"), ("a", "aa"), ("aa", "a"),
            ("abab", "ab"), ("ab", "abab"), ("aaab", "aab"),
            ("abc", "abc"), ("abXc", "abc"), ("abc", "abXc"),  # empty or one-sided core
            ("xabc", "abc"), ("abc", "xabc"), ("abcx", "abc"), ("abc", "abcx"),
            ("aXa", "aYa"), ("aaXaa", "aaaa"), ("a" * 40 + "b", "a" * 41),
            ("肺左叶见片影", "肺双叶见片影"), ("左左肺", "左肺"),
        ]
        for a, b in cases:
            assert lcs_ops(a, b) == dp_lcs_ops(a, b), (a, b)

    def test_shared_prefix_and_suffix_fuzz(self):
        for a, b in shared_prefix_suffix_pairs():
            assert lcs_ops(a, b) == dp_lcs_ops(a, b), (a, b)
            assert lcs_ops(b, a) == dp_lcs_ops(b, a), (b, a)

    def test_dense_edit_pairs(self):
        for a, b in dense_pairs():
            assert lcs_ops(a, b) == dp_lcs_ops(a, b), (a, b)

    def test_common_prefix_length(self):
        rng = random.Random(17)
        for _ in range(500):
            shared = "".join(rng.choices("ab", k=rng.randint(0, 70)))
            a = shared + "".join(rng.choices("ab", k=rng.randint(0, 5)))
            b = shared + "".join(rng.choices("ab", k=rng.randint(0, 5)))
            assert _common_prefix_len(a, b) == len(os.path.commonprefix([a, b])), (a, b)

    def test_fuzz(self):
        for a, b in fuzz_pairs():
            assert lcs_ops(a, b) == dp_lcs_ops(a, b), (a, b)

    def test_fuzz_across_word_boundaries(self):
        for a, b in word_boundary_pairs():
            assert lcs_ops(a, b) == dp_lcs_ops(a, b), (len(a), len(b))

    def test_acceptance_corpus(self):
        for a, b in acceptance_pairs():
            assert lcs_ops(a, b) == dp_lcs_ops(a, b), (a, b)


def char_lcs_diff(junior, senior):
    """Reference: lcs_diff's edit script built one opcode, one character at
    a time, each gap's deleted and inserted characters collected apart."""
    script = []
    ji = si = 0
    gap_del, gap_ins, keep = [], [], []
    gap_j = gap_s = keep_j = keep_s = 0

    def flush_keep():
        if keep:
            script.append(EditRun("keep", "".join(keep), keep_j, keep_s))
            keep.clear()

    def flush_gap():
        if gap_del:
            script.append(EditRun("delete", "".join(gap_del), gap_j, gap_s))
        if gap_ins:
            script.append(EditRun("insert", "".join(gap_ins), gap_j + len(gap_del), gap_s))
        gap_del.clear()
        gap_ins.clear()

    for op in lcs_ops(junior, senior):
        if op == KEEP:
            flush_gap()
            if not keep:
                keep_j, keep_s = ji, si
            keep.append(junior[ji])
            ji += 1
            si += 1
        else:
            flush_keep()
            if not gap_del and not gap_ins:
                gap_j, gap_s = ji, si
            if op == DELETE:
                gap_del.append(junior[ji])
                ji += 1
            else:
                gap_ins.append(senior[si])
                si += 1
    flush_keep()
    flush_gap()
    return script


class TestRunDiffParity:
    """lcs_diff's runs, sliced group by group, equal the per-character
    script on every input the kernel parity tests use."""

    @pytest.mark.parametrize("pairs", [edge_pairs, fuzz_pairs, word_boundary_pairs,
                                       acceptance_pairs, dense_pairs])
    def test_same_edit_script(self, pairs):
        for a, b in pairs():
            assert lcs_diff(a, b) == char_lcs_diff(a, b), (a, b)

    def test_interleaved_gap_collects_deletes_then_inserts(self):
        # "ab" -> "ba" diffs through delete/insert opcodes within one gap
        assert lcs_diff("xaby", "xbay") == char_lcs_diff("xaby", "xbay")
        kinds = [run.kind for run in lcs_diff("axbxc", "ayyc")]
        assert kinds == ["keep", "delete", "insert", "keep"]


def test_long_pair_memory_bounded():
    # the O(n*m) DP table of a 2,000 x 2,000 pair alone takes tens of MB
    rng = random.Random(2)
    alphabet = "肺肝脾肾脑左右双未见可影密度正常增多片状点"
    a = "".join(rng.choices(alphabet, k=2000))
    b = "".join(rng.choices(alphabet, k=2000))
    tracemalloc.start()
    try:
        script = lcs_diff(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "".join(r.chars for r in script if r.kind != "insert") == a
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def random_pair(rng, maxlen=30, alphabet="abcde"):
    senior = "".join(rng.choices(alphabet, k=rng.randint(1, maxlen)))
    junior = "".join(rng.choices(alphabet, k=rng.randint(1, maxlen)))
    return pair(junior, senior)


class TestMerge:
    def test_identical_pair(self):
        mixed = merge_reports(pair("abc", "abc"))
        assert mixed.tags == "OOO"
        assert mixed.spans == []

    def test_substitution_becomes_revision_span(self):
        mixed = merge_reports(pair("肺左叶影", "肺双叶影"))
        assert len(mixed.spans) == 1
        span = mixed.spans[0]
        assert span.kind == REVISION
        assert (span.deleted, span.inserted) == ("左", "双")
        assert mixed.chars == "肺左双叶影"
        assert mixed.tags == "OBIOO"

    def test_three_span_kinds(self):
        # delete 'x', add 'q', revise 'y' -> 'z', with kept context between
        mixed = merge_reports(pair("axbcyd", "abqczd"))
        assert [s.kind for s in mixed.spans] == [DELETION, ADDITION, REVISION]
        assert mixed.chars == "axbqcyzd"
        assert mixed.tags == "OBOBOBIO"

    def test_deleted_before_inserted_inside_revision(self):
        mixed = merge_reports(pair("a减低b", "a延长b"))
        span = mixed.spans[0]
        assert mixed.chars[span.start:span.end] == "减低延长"

    def test_round_trip_fuzz(self):
        rng = random.Random(12)
        for _ in range(1000):
            p = random_pair(rng)
            assert reconstruct(merge_reports(p)) == (p.junior, p.senior)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ab丙丁e", min_size=1, max_size=40),
           st.text(alphabet="ab丙丁e", min_size=1, max_size=40))
    def test_round_trip_property(self, junior, senior):
        p = pair(junior, senior)
        assert reconstruct(merge_reports(p)) == (junior, senior)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abc", min_size=1, max_size=30),
           st.text(alphabet="abc", min_size=1, max_size=30))
    def test_bio_well_formed(self, junior, senior):
        mixed = merge_reports(pair(junior, senior))
        assert len(mixed.tags) == len(mixed.chars)
        prev = "O"
        for t in mixed.tags:
            if t == "I":
                assert prev in "BI"
            prev = t
        assert len(mixed.spans) == mixed.tags.count("B")
        covered = set()
        for s in mixed.spans:
            covered.update(range(s.start, s.end))
        for i, t in enumerate(mixed.tags):
            assert (i in covered) == (t in "BI")

    def test_determinism(self):
        p = pair("abcabc", "cbacba")
        a, b = merge_reports(p), merge_reports(p)
        assert (a.chars, a.tags, a.spans) == (b.chars, b.tags, b.spans)


class TestSpanCharIndices:
    def test_direct(self):
        mixed = MixedReport("r", "aaaaaa", "OOBIOB")
        assert span_char_indices(mixed) == [(2, 4), (5, 6)]

    def test_all_outside(self):
        assert span_char_indices(MixedReport("r", "aaa", "OOO")) == []

    def test_adjacent_b_tags_and_trailing_span(self):
        mixed = MixedReport("r", "aaaa", "BBII")
        assert span_char_indices(mixed) == [(0, 1), (1, 4)]

    def test_against_naive_scanner(self):
        def naive(tags):
            out = []
            i = 0
            while i < len(tags):
                if tags[i] == "B":
                    j = i + 1
                    while j < len(tags) and tags[j] == "I":
                        j += 1
                    out.append((i, j))
                    i = j
                else:
                    i += 1
            return out

        rng = random.Random(3)
        for _ in range(500):
            tags = []
            prev = "O"
            for _ in range(rng.randint(0, 25)):
                choices = "BO" if prev == "O" else "BIO"
                prev = rng.choice(choices)
                tags.append(prev)
            tags = "".join(tags)
            mixed = MixedReport("r", "x" * len(tags), tags)
            assert span_char_indices(mixed) == naive(tags)

    def test_rejects_dangling_i(self):
        with pytest.raises(ValidationError):
            span_char_indices(MixedReport("r", "ab", "OI"))


class TestReconstruct:
    def test_identical(self):
        mixed = merge_reports(pair("abc", "abc"))
        assert reconstruct(mixed) == ("abc", "abc")

    def test_laterality_pair(self):
        junior, senior = reconstruct(merge_reports(pair("肺左叶影", "肺双叶影")))
        assert "左" in junior and "双" in senior

    def test_rejects_corrupted_span_content(self):
        mixed = merge_reports(pair("axb", "ayb"))
        mixed.spans[0].deleted = "q"
        with pytest.raises(ValidationError):
            reconstruct(mixed)

    def test_rejects_tag_length_mismatch(self):
        with pytest.raises(ValidationError):
            reconstruct(MixedReport("r", "abc", "OO"))
