import itertools
import os
import random
import tracemalloc
from functools import lru_cache
from typing import NamedTuple

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
    MixedReport,
    RevisedSpan,
    _common_prefix_len,
    lcs_diff,
    merge_reports,
    reconstruct,
    span_char_indices,
)
from spanqa.types import ReportPair, ValidationError, has_lone_surrogate


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


@lru_cache(maxsize=None)
def dp_lcs_ops(a, b):
    """Reference kernel: the full O(n*m) LCS table, then a backtrack that
    on a mismatch moves in the `a` direction whenever M[i-1][j] >= M[i][j-1].

    Memoized for the session, so the kernel, run and merge parity tests share
    one DP per pair; no caller may mutate the list it returns.
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


def keep_len(runs):
    return sum(n for op, n in runs if op == KEEP)


def grouped(ops):
    """Per-character opcodes as (opcode, count) runs."""
    return [(op, len(list(group))) for op, group in itertools.groupby(ops)]


def rebuild(junior, senior, runs):
    """Both texts, rebuilt by slicing along the runs; keep runs are sliced
    out of junior alone, so they must spell senior's kept text too."""
    old, new = [], []
    ji = si = 0
    for op, n in runs:
        if op == KEEP:
            old.append(junior[ji:ji + n])
            new.append(junior[ji:ji + n])
            ji += n
            si += n
        elif op == DELETE:
            old.append(junior[ji:ji + n])
            ji += n
        else:
            new.append(senior[si:si + n])
            si += n
    return "".join(old), "".join(new)


def pair(junior, senior, rid="r"):
    return ReportPair(rid, junior, senior)


class TestLcsDiff:
    def test_identity(self):
        assert lcs_diff("abc", "abc") == [(KEEP, 3)]

    def test_single_char_substitution(self):
        # the motivating pattern: one laterality character swapped; the
        # backtrack puts the insert first, as the DP does
        assert lcs_diff("肺左叶影", "肺双叶影") == [(KEEP, 1), (INSERT, 1), (DELETE, 1), (KEEP, 2)]

    def test_empty_inputs(self):
        assert lcs_diff("", "") == []
        assert lcs_diff("", "ab") == [(INSERT, 2)]
        assert lcs_diff("ab", "") == [(DELETE, 2)]

    def test_script_concatenation_invariants(self):
        rng = random.Random(5)
        for _ in range(300):
            a = "".join(rng.choices("abcde", k=rng.randint(0, 12)))
            b = "".join(rng.choices("abcde", k=rng.randint(0, 12)))
            runs = lcs_diff(a, b)
            assert rebuild(a, b, runs) == (a, b)
            assert all(n > 0 for _, n in runs), runs
            ops = [op for op, _ in runs]
            for x, y in zip(ops, ops[1:]):
                assert x != y, f"non-maximal runs in {runs}"

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
        # inside this gap the backtrack puts the insert first; the merge
        # still places the deleted text first
        assert lcs_diff("axxb", "ayb") == [(KEEP, 1), (INSERT, 1), (DELETE, 2), (KEEP, 1)]
        mixed = merge_reports(pair("axxb", "ayb"))
        assert (mixed.chars, mixed.tags) == ("axxyb", "OBIIO")
        assert mixed.spans == [RevisedSpan(1, 4, "xx", "y")]


def edge_pairs():
    return [("", ""), ("", "ab"), ("ab", ""), ("abc", "abc"),
            ("肺左叶影", "肺双叶影"), ("aaaa", "aa"), ("ab", "ba"), ("a", "aa")]


def unedited_pairs():
    """Identical texts, which the diff answers without an LCS pass."""
    rng = random.Random(19)
    texts = ["", "a", "肺", "\ud800", "左\ud800肺", "aaaa",
             "".join(rng.choices("肺肝脾左右双未见影ab", k=1000))]
    return [(t, t) for t in texts]


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
    """`lcs_diff` must give the DP's opcodes as runs, not just an LCS of the
    same length: the corpus generator keeps a report only when its merge
    yields one span per edit, so other opcodes would change the corpus.
    Neighbouring runs differ in opcode and every count is positive, so equal
    runs mean equal opcodes. Each pair generator is one case of
    test_runs_are_the_grouped_dp_opcodes; the other tests add pairs chosen
    for one part of the scan, most of them in both directions."""

    def test_common_prefix_not_trimmed(self):
        # the DP aligns the kept 'a' with the last 'a' of the senior text
        assert lcs_diff("a", "aa") == [(INSERT, 1), (KEEP, 1)]
        assert lcs_diff("a", "aa") == grouped(dp_lcs_ops("a", "aa"))

    def test_prefix_boundary_cases(self):
        cases = [
            ("aab", "ab"), ("ab", "aab"), ("a", "aa"), ("aa", "a"),
            ("abab", "ab"), ("ab", "abab"), ("aaab", "aab"),
            ("abc", "abc"), ("abXc", "abc"), ("abc", "abXc"),  # empty or one-sided core
            ("xabc", "abc"), ("abc", "xabc"), ("abcx", "abc"), ("abc", "abcx"),
            ("aXa", "aYa"), ("aaXaa", "aaaa"), ("a" * 40 + "b", "a" * 41),
            ("肺左叶见片影", "肺双叶见片影"), ("左左肺", "左肺"),
            ("X", "Xaa"), ("a", "abc"),  # the core exits off the diagonal, then walks the prefix
        ]
        for a, b in cases:
            assert lcs_diff(a, b) == grouped(dp_lcs_ops(a, b)), (a, b)
            assert lcs_diff(b, a) == grouped(dp_lcs_ops(b, a)), (b, a)

    def test_shared_prefix_and_suffix_fuzz(self):
        for a, b in shared_prefix_suffix_pairs():
            assert lcs_diff(a, b) == grouped(dp_lcs_ops(a, b)), (a, b)
            assert lcs_diff(b, a) == grouped(dp_lcs_ops(b, a)), (b, a)

    def test_common_prefix_length(self):
        rng = random.Random(17)
        for _ in range(500):
            shared = "".join(rng.choices("ab", k=rng.randint(0, 70)))
            a = shared + "".join(rng.choices("ab", k=rng.randint(0, 5)))
            b = shared + "".join(rng.choices("ab", k=rng.randint(0, 5)))
            assert _common_prefix_len(a, b) == len(os.path.commonprefix([a, b])), (a, b)

    def test_keep_run_ends(self):
        # the backtrack crosses a keep run in one step; these runs are one
        # character long, span a whole core, end on repeated characters, or
        # start in the core and end in the common prefix
        cases = [
            ("XaYbZc", "PaQbRc"), ("aXbYc", "aZbWc"), ("XaY", "ZaW"), ("aXa", "aYa"),
            ("abc", "XabcY"), ("XabcY", "abc"), ("pXabcYq", "pabcq"),
            ("ab" + "c" * 10, "c" * 10 + "ab"),
            ("aab", "ab"), ("ab", "aab"), ("abba", "aba"), ("aba", "abba"),
            ("aabb", "ab"), ("abab", "baba"), ("aaXaa", "aaYaaa"), ("baab", "bab"),
            ("XXaX", "Xa"), ("aX", "aaXa"), ("aXa", "aaX"),  # from the core into the prefix
        ]
        for a, b in cases:
            assert lcs_diff(a, b) == grouped(dp_lcs_ops(a, b)), (a, b)
            assert lcs_diff(b, a) == grouped(dp_lcs_ops(b, a)), (b, a)

    def test_one_sided_cores(self):
        # everything of one text is common prefix or suffix
        for a, b in [("preXYZsuf", "presuf"), ("pre", "preXYZ"), ("XYZsuf", "suf"),
                     ("aaXaa", "aaaa"), ("abab", "abXYab"), ("", "XYZ")]:
            assert lcs_diff(a, b) == grouped(dp_lcs_ops(a, b)), (a, b)
            assert lcs_diff(b, a) == grouped(dp_lcs_ops(b, a)), (b, a)

    @pytest.mark.parametrize("width", [63, 64, 65, 128, 129])
    def test_core_widths_around_word_sizes(self, width):
        # cores of exactly `width` characters, fenced by distinct end
        # characters that stop the trimming; the bit-vector rows are not
        # masked to the core's width, so they grow past it, and the backtrack
        # must read only the bits below it
        rng = random.Random(width)
        for alphabet in ("ab", "abc", "肺左右影"):
            for _ in range(6):
                prefix = "".join(rng.choices(alphabet, k=rng.randint(0, 5)))
                suffix = "".join(rng.choices(alphabet, k=rng.randint(0, 5)))
                inner = "".join(rng.choices(alphabet, k=width - 2))
                other = "".join(rng.choices(alphabet, k=rng.randint(0, 2 * width)))
                for x, y in (("P" + inner + "Q", "R" + inner + "S"),  # one long keep run
                             ("P" + inner + "Q", "R" + other + "S")):
                    a, b = prefix + x + suffix, prefix + y + suffix
                    assert len(x) == width
                    assert lcs_diff(a, b) == grouped(dp_lcs_ops(a, b)), (a, b)
                    assert lcs_diff(b, a) == grouped(dp_lcs_ops(b, a)), (b, a)

    @pytest.mark.parametrize("pairs", [edge_pairs, fuzz_pairs, word_boundary_pairs,
                                       shared_prefix_suffix_pairs, acceptance_pairs,
                                       dense_pairs, unedited_pairs])
    def test_runs_are_the_grouped_dp_opcodes(self, pairs):
        for a, b in pairs():
            assert lcs_diff(a, b) == grouped(dp_lcs_ops(a, b)), (a, b)


class TestRunDiffParity:
    """A gap's runs may interleave deletes and inserts; the merge still makes
    one span of them, deleted text first. That the runs are the DP's grouped
    opcodes is TestKernelParity::test_runs_are_the_grouped_dp_opcodes."""

    def test_interleaved_gap_collects_deletes_then_inserts(self):
        # "ab" -> "ba" diffs through delete/insert opcodes within one gap
        mixed = merge_reports(pair("xaby", "xbay"))
        assert (mixed.chars, mixed.tags, mixed.spans) == reference_merge("xaby", "xbay")
        mixed = merge_reports(pair("axbxc", "ayyc"))
        assert mixed.spans == [RevisedSpan(1, 6, "xbx", "yy")]


class Run(NamedTuple):
    """One run of reference_merge's script, at its junior and senior offsets."""

    kind: str  # keep | delete | insert
    chars: str
    junior_offset: int
    senior_offset: int


def reference_merge(junior, senior):
    """Reference merge, in the pipeline's first form: the DP's per-character
    opcodes, grouped with groupby into a script of Runs, then a second walk
    over the script that places each span at the summed length of the
    chunks before it. Returns (chars, tags, spans)."""
    script = []
    ji = si = n_del = n_ins = 0

    def flush_gap():
        if n_del:
            script.append(Run("delete", junior[ji:ji + n_del], ji, si))
        if n_ins:
            script.append(Run("insert", senior[si:si + n_ins], ji + n_del, si))

    for op, group in itertools.groupby(dp_lcs_ops(junior, senior)):
        n = len(list(group))
        if op == DELETE:
            n_del += n
        elif op == INSERT:
            n_ins += n
        else:
            flush_gap()
            ji, si, n_del, n_ins = ji + n_del, si + n_ins, 0, 0
            script.append(Run("keep", junior[ji:ji + n], ji, si))
            ji += n
            si += n
    flush_gap()

    chars, tags, spans = [], [], []
    i = 0
    while i < len(script):
        run = script[i]
        if run.kind == "keep":
            chars.append(run.chars)
            tags.append("O" * len(run.chars))
            i += 1
            continue
        deleted = inserted = ""
        if run.kind == "delete":
            deleted = run.chars
            if i + 1 < len(script) and script[i + 1].kind == "insert":
                inserted = script[i + 1].chars
                i += 1
        else:
            inserted = run.chars
        i += 1
        content = deleted + inserted
        start = sum(len(c) for c in chars)
        spans.append(RevisedSpan(start, start + len(content), deleted, inserted))
        chars.append(content)
        tags.append("B" + "I" * (len(content) - 1))
    return "".join(chars), "".join(tags), spans


class TestMergeParity:
    """merge_reports, built from the backtrack's runs, equals the reference
    merge built from the DP's per-character opcodes."""

    @pytest.mark.parametrize("pairs", [edge_pairs, fuzz_pairs, word_boundary_pairs,
                                       shared_prefix_suffix_pairs, acceptance_pairs,
                                       dense_pairs, unedited_pairs])
    def test_same_mixed_report(self, pairs):
        for a, b in pairs():
            if not a or not b or has_lone_surrogate(a + b):
                continue  # a ReportPair needs two non-empty texts UTF-8 can encode
            mixed = merge_reports(pair(a, b))
            assert (mixed.chars, mixed.tags, mixed.spans) == reference_merge(a, b), (a, b)
            assert bool(mixed.spans) == (a != b), (a, b)  # only an edit makes a span
            assert reconstruct(mixed) == (a, b), (a, b)


def test_long_pair_memory_bounded():
    # the O(n*m) DP table of a 2,000 x 2,000 pair alone takes tens of MB
    rng = random.Random(2)
    alphabet = "肺肝脾肾脑左右双未见可影密度正常增多片状点"
    a = "".join(rng.choices(alphabet, k=2000))
    b = "".join(rng.choices(alphabet, k=2000))
    tracemalloc.start()
    try:
        runs = lcs_diff(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rebuild(a, b, runs) == (a, b)
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

    @pytest.mark.parametrize("tags, message", [
        ("OIX", "I tag at index 1 not preceded by B or I"),
        ("OXI", "invalid tag 'X' at index 1"),
    ], ids=["dangling-i-before-bad-tag", "bad-tag-before-dangling-i"])
    def test_first_bad_tag_raises(self, tags, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            span_char_indices(MixedReport("r", "x" * len(tags), tags))


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

    @pytest.mark.parametrize("mixed, message", [
        # two tags for three chars, and the tags' one span is not in the list
        (MixedReport("r", "abc", "OB"), "2 tags for 3 chars"),
        # "qy" is not the span's text "xy"
        (MixedReport("r", "axyb", "OBIO", [RevisedSpan(1, 3, "q", "y")]),
         r"span at \(1, 3\) does not spell deleted\+inserted content"),
        # the tags spell one span, the list holds none
        (MixedReport("r", "abc", "OBO"), "span list disagrees with tags"),
    ], ids=["tag-count-before-span-list", "span-text", "span-list"])
    def test_first_failed_check_raises(self, mixed, message):
        with pytest.raises(ValidationError, match=f"^report 'r': {message}$"):
            reconstruct(mixed)


class TestSpanKind:
    @pytest.mark.parametrize("deleted, inserted, kind", [
        ("x", "y", REVISION), ("x", "", DELETION), ("", "y", ADDITION)])
    def test_kind_of_each_text_shape(self, deleted, inserted, kind):
        assert RevisedSpan(0, len(deleted + inserted), deleted, inserted).kind == kind
