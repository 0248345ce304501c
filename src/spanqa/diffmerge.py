"""Character-level diff of draft/revised report pairs and BIO-tagged merging.

A pair is diffed with a longest-common-subsequence scan. The diff is the
scan's runs: `lcs_diff` returns (opcode, count) pairs of KEEP, DELETE and
INSERT, neighbouring runs differing in opcode, and builds no text. The edit
material is kept in a single mixed character sequence, and each edit gap, the
deletes and inserts between two keep runs, becomes one typed revised span:

  deletion  - characters the reviser removed from the draft
  addition  - characters the reviser added
  revision  - removed characters immediately followed by their replacement
              (deleted text first, then the rewrite)

`merge_reports` is the one walk over the runs: it slices each keep run and
each gap's deleted and inserted text out of the two texts as it goes; a span's
`kind` property derives its kind from those two texts when read. The merge is
lossless: `reconstruct` recovers both texts exactly, checking the report as it
goes. Its tags are decoded in one pass that rejects the first bad tag
(`span_char_indices`), and one walk over the spans checks each one's text.

The LCS scan is the bit-parallel algorithm of Allison & Dix (1986) and Hyyrö
(2004) on Python ints: one column bit-vector per revision prefix, O(n*m/w)
word operations and O(n*m) bits of memory, in pure Python. It runs only on
the core between the texts' common prefix and common suffix, each found by
one bisection on slice comparisons; the backtrack crosses the prefix without
a table. Its opcodes are identical to those of the textbook O(n*m) dynamic
program, which the tests keep as the reference.

The bit-vector columns are not masked to the junior core's length, and the
backtrack crosses each run of matches in one step; both are exact, and
`lcs_diff` says why.

An unedited pair costs one string comparison and no walk: `lcs_diff` returns
a single keep run exactly when the two texts are equal, before any trimming
or bit-vector pass, and `merge_reports` answers that diff with the junior text
tagged all O and no span. Every merge, edited or not, calls `lcs_diff` once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import ReportPair, ValidationError

KEEP, DELETE, INSERT = 0, 1, 2

DELETION = "deletion"
ADDITION = "addition"
REVISION = "revision"


def kernel_name() -> str:
    """Name of the LCS kernel: always 'bitparallel'.

    There is one kernel, so this is a constant. It stays because environment
    records (the benchmark's among them) name the kernel they measured through
    this call, so a record keeps meaning the same if the kernel ever changes.
    """
    return "bitparallel"


def _common_prefix_len(a: str, b: str) -> int:
    """Length of the longest common prefix of a and b, found by one bisection
    on slice comparisons: about log2(min(len(a), len(b))) of them."""
    lo, hi = 0, min(len(a), len(b))
    # invariant: a[:lo] == b[:lo], and the common prefix is at most hi long
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def lcs_diff(junior: str, senior: str) -> list[tuple[int, int]]:
    """The diff of junior into senior: (opcode, count) runs of KEEP, DELETE
    and INSERT, in order, along a longest common subsequence; neighbouring
    runs differ in opcode. Keep runs spell the LCS, and the delete and insert
    runs between two keep runs are one edit gap, in which an insert run may
    come first. The runs are the whole diff: `merge_reports` is the one walk
    over them.

    With M[i][j] the LCS length of junior[:i] and senior[:j], the backtrack
    from (n, m) keeps matching characters and, on a mismatch, deletes exactly
    when M[i-1][j] == M[i][j] (otherwise inserts).

    A common suffix is trimmed first: the backtrack would keep it anyway. Of
    what is left, the bit-vector pass runs only on the core between the
    common prefix P and the suffix, a = junior's core and b = senior's.
    Column j of the core's M is encoded by the bit-vector C_j, built from
    peq over a: bit i-1 of C_j is set exactly when M_core[i-1][j] ==
    M_core[i][j]. LCS(P+X, P+Y) = |P| + LCS(X, Y), so M[i][j] = |P| +
    M_core[i-|P|][j-|P|] inside the core (i > |P| and j > |P|), and there a
    mismatch reads one bit of C_{j-|P|}. Outside the core M[i][j] = min(i, j),
    so a mismatch deletes exactly when j < i. The prefix must not simply be
    kept, because the backtrack may align its characters elsewhere:
    lcs_diff("a", "aa") is [(INSERT, 1), (KEEP, 1)]. The one loop runs in full
    coordinates over both regions. It stops at i == j <= |P|, where the texts
    left are equal and are kept, or when i or j reaches 0, where the rest of
    the other text is deleted or inserted.

    The columns are not masked to len(a) bits. That is exact: the addition
    carries only upward, u = C & peq[ch] is a subset of C so C - u borrows
    nothing, and the backtrack reads only the bits below i - |P| <= len(a).
    A column is at most one bit longer than the column before it.

    A run of matches is one step of the backtrack, so only edited characters
    cost a step each. That is exact too: the backtrack keeps on every match,
    so the keep run from (i, j) is the common suffix of junior[:i] and
    senior[:j], which one bisection finds on the reversed texts the suffix
    trim built. Equal texts, an unedited pair, are one keep run (none when
    both are empty) found by a single comparison, and no other pair gives a
    single keep run; `merge_reports` reads its spanless answer off that.
    """
    if junior == senior:
        return [(KEEP, len(junior))] if junior else []
    rj, rs = junior[::-1], senior[::-1]  # junior[:i] ends where rj[len(junior) - i:] starts
    suffix = _common_prefix_len(rj, rs)
    i, j = len(junior) - suffix, len(senior) - suffix
    p = _common_prefix_len(junior[:i], senior[:j])

    peq: dict[str, int] = {}
    get = peq.get
    bit = 1
    for ch in junior[p:i]:
        peq[ch] = get(ch, 0) | bit
        bit <<= 1
    v = bit - 1  # no mask to len(a) bits: see the docstring
    cols = [v]
    for ch in senior[p:j]:
        u = v & get(ch, 0)
        v = (v + u) | (v - u)
        cols.append(v)

    # Steps back from the end of both texts, as (opcode, count); neighbours
    # may share an opcode until they are merged into runs below.
    steps = [(KEEP, suffix)]
    while i and j and (i != j or i > p):
        if junior[i - 1] == senior[j - 1]:
            run = 1  # a run of one, common on long unrelated texts, needs no bisection
            if i > 1 and j > 1 and junior[i - 2] == senior[j - 2]:
                run = _common_prefix_len(rj[len(junior) - i:], rs[len(senior) - j:])
            steps.append((KEEP, run))
            i -= run
            j -= run
        elif (cols[j - p] >> (i - 1 - p) & 1) if i > p and j > p else j < i:
            steps.append((DELETE, 1))
            i -= 1
        else:
            steps.append((INSERT, 1))
            j -= 1
    steps.append((KEEP, i) if i == j else (DELETE, i) if i else (INSERT, j))

    runs: list[tuple[int, int]] = []
    for op, count in reversed(steps):
        if runs and runs[-1][0] == op:
            runs[-1] = (op, runs[-1][1] + count)
        elif count:
            runs.append((op, count))
    return runs


@dataclass
class RevisedSpan:
    """One edited region of the mixed report, addressed as [start, end)."""

    start: int
    end: int
    deleted: str
    inserted: str

    @property
    def range(self) -> tuple[int, int]:
        return (self.start, self.end)

    @property
    def kind(self) -> str:
        # the one kind rule: a revision if both texts are non-empty, a
        # deletion if only `deleted` is, an addition otherwise
        deleted, inserted = self.deleted, self.inserted
        return REVISION if deleted and inserted else DELETION if deleted else ADDITION


@dataclass
class MixedReport:
    report_id: str
    chars: str
    tags: str  # per-character B/I/O
    spans: list[RevisedSpan] = field(default_factory=list)


def merge_reports(pair: ReportPair) -> MixedReport:
    """Merge a pair into one mixed report with B/I/O tags and typed spans.

    One call to `lcs_diff`. A diff of one keep run (equal texts) is the junior
    text tagged all O, with no span and no walk. Any other diff is walked once:
    each gap's deletes and inserts are summed, and the keep run that closes the
    gap writes it as one span, its deleted text first. The closing empty keep
    run flushes the last gap.
    """
    junior, senior = pair.junior, pair.senior
    runs = lcs_diff(junior, senior)
    if len(runs) == 1 and runs[0][0] == KEEP:  # equal texts: no span, no walk
        return MixedReport(pair.id, junior, "O" * len(junior))
    chars: list[str] = []
    tags: list[str] = []
    spans: list[RevisedSpan] = []
    ji = si = start = 0  # cursors in junior, senior and the mixed report
    n_del = n_ins = 0  # size of the gap being collected
    for op, n in [*runs, (KEEP, 0)]:
        if op == DELETE:
            n_del += n
        elif op == INSERT:
            n_ins += n
        else:
            if n_del or n_ins:
                deleted, inserted = junior[ji:ji + n_del], senior[si:si + n_ins]
                width = n_del + n_ins
                spans.append(RevisedSpan(start, start + width, deleted, inserted))
                chars += deleted, inserted
                tags.append("B" + "I" * (width - 1))
                ji += n_del
                si += n_ins
                start += width
                n_del = n_ins = 0
            chars.append(junior[ji:ji + n])
            tags.append("O" * n)
            ji += n
            si += n
            start += n
    return MixedReport(pair.id, "".join(chars), "".join(tags), spans)


def span_char_indices(mixed: MixedReport) -> list[tuple[int, int]]:
    """Span index ranges read off the tag sequence alone, in one pass.

    A span starts at each B and ends before the next O or B tag. The first
    tag outside B/I/O, or the first I that no B opened, raises.
    """
    ranges = []
    start = None
    for i, t in enumerate(mixed.tags):
        if t == "I":
            if start is None:
                raise ValidationError(f"I tag at index {i} not preceded by B or I")
        elif t == "B" or t == "O":
            if start is not None:
                ranges.append((start, i))
            start = i if t == "B" else None
        else:
            raise ValidationError(f"invalid tag {t!r} at index {i}")
    if start is not None:
        ranges.append((start, len(mixed.tags)))
    return ranges


def reconstruct(mixed: MixedReport) -> tuple[str, str]:
    """Recover (junior, senior) from a mixed report, checking it: the tag
    count, then that the tags spell the span list, then, in one walk over the
    spans that also collects the texts, that each span spells its deleted
    text and then its inserted text."""
    rid, chars = mixed.report_id, mixed.chars
    if len(mixed.tags) != len(chars):
        raise ValidationError(f"report {rid!r}: {len(mixed.tags)} tags for {len(chars)} chars")
    if span_char_indices(mixed) != [s.range for s in mixed.spans]:
        raise ValidationError(f"report {rid!r}: span list disagrees with tags")
    junior: list[str] = []
    senior: list[str] = []
    pos = 0
    for span in mixed.spans:
        if chars[span.start:span.end] != span.deleted + span.inserted:
            raise ValidationError(f"report {rid!r}: span at {span.range} does not spell "
                                  "deleted+inserted content")
        outside = chars[pos:span.start]
        junior += outside, span.deleted
        senior += outside, span.inserted
        pos = span.end
    tail = chars[pos:]
    junior.append(tail)
    senior.append(tail)
    return "".join(junior), "".join(senior)
