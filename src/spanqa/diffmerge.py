"""Character-level diff of draft/revised report pairs and BIO-tagged merging.

A pair is diffed with a longest-common-subsequence scan, the edit material is
kept in a single mixed character sequence, and each maximal edited region
becomes one typed revised span:

  deletion  - characters the reviser removed from the draft
  addition  - characters the reviser added
  revision  - removed characters immediately followed by their replacement
              (deleted text first, then the rewrite)

The merge is lossless: `reconstruct` recovers both original texts exactly.

The LCS scan is the bit-parallel algorithm of Allison & Dix (1986) and Hyyrö
(2004) on Python ints: one row bit-vector per draft prefix, O(n*m/w) word
operations and O(n*m) bits of memory, in pure Python. It runs only on the
core between the texts' common prefix and common suffix, which are found by
slice comparisons; the backtrack crosses the prefix without a table. Its
opcodes are identical to those of the textbook O(n*m) dynamic program, which
the tests keep as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

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
    """Length of the longest common prefix of a and b, found by comparing
    slices: doubling blocks while they match, then a binary search inside the
    first block that does not."""
    lim = min(len(a), len(b))
    lo, step = 0, 8
    while lo < lim:
        hi = min(lo + step, lim)
        if a[lo:hi] != b[lo:hi]:
            # a[:lo] == b[:lo] and a[:hi] != b[:hi]
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if a[lo:mid] == b[lo:mid]:
                    lo = mid
                else:
                    hi = mid
            return lo
        lo = hi
        step *= 2
    return lo


def lcs_ops(junior: str, senior: str) -> list[int]:
    """Opcode list (KEEP/DELETE/INSERT) turning `junior` into `senior` along
    a longest common subsequence.

    With M[i][j] the LCS length of junior[:i] and senior[:j], the backtrack
    from (n, m) keeps matching characters and, on a mismatch, deletes exactly
    when M[i-1][j] == M[i][j] (otherwise inserts).

    A common suffix is trimmed first: the backtrack would keep it anyway. Of
    what is left, the bit-vector pass runs only on the core between the
    common prefix P and the suffix. Row i of the core's M is encoded by the
    bit-vector V_i, whose zero bits below bit j count M_core[i][j].
    LCS(P+X, P+Y) = |P| + LCS(X, Y), so M[i][j] = |P| + M_core[i-|P|][j-|P|]
    inside the core and the backtrack there makes the full table's choices.
    The prefix must not simply be kept, because the backtrack may align its
    characters elsewhere: lcs_ops("a", "aa") is [INSERT, KEEP]. Outside the
    core M[i][j] = min(i, j), so the walk continues there without a table:
    keep on a match, otherwise delete if j < i, else insert, and keep
    everything once i == j.
    """
    n, m = len(junior), len(senior)
    suffix = _common_prefix_len(junior[::-1], senior[::-1])
    n -= suffix
    m -= suffix
    p = _common_prefix_len(junior[:n], senior[:m])
    a, b = junior[p:n], senior[p:m]

    peq: dict[str, int] = {}
    for j, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    rows = [v]
    for ch in a:
        u = v & peq.get(ch, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(v)

    # M_core[i][j] = j - popcount(V_i & low_j), so M[i-1][j] == M[i][j]
    # exactly when V_{i-1} and V_i have as many one bits below bit j.
    ops = [KEEP] * suffix
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            ops.append(KEEP)
            i -= 1
            j -= 1
        else:
            low = (1 << j) - 1
            if (rows[i - 1] & low).bit_count() == (rows[i] & low).bit_count():
                ops.append(DELETE)
                i -= 1
            else:
                ops.append(INSERT)
                j -= 1

    # Out of the core, back in full coordinates: min(i, j) <= p here.
    i += p
    j += p
    while i != j:
        if i and j and junior[i - 1] == senior[j - 1]:
            ops.append(KEEP)
            i -= 1
            j -= 1
        elif j < i:
            ops.append(DELETE)
            i -= 1
        else:
            ops.append(INSERT)
            j -= 1
    ops.extend([KEEP] * i)
    ops.reverse()
    return ops


@dataclass(frozen=True)
class EditRun:
    """A maximal run of one edit kind.

    Offsets are the cursor positions in the draft (junior) and revision
    (senior) texts at the start of the run.
    """

    kind: str  # keep | delete | insert
    chars: str
    junior_offset: int
    senior_offset: int


EditScript = list[EditRun]


@dataclass
class RevisedSpan:
    """One edited region of the mixed report, addressed as [start, end)."""

    start: int
    end: int
    kind: str  # deletion | addition | revision
    deleted: str
    inserted: str
    label: int | None = None
    score: float | None = None

    @property
    def range(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass
class MixedReport:
    report_id: str
    chars: str
    tags: str  # per-character B/I/O
    spans: list[RevisedSpan] = field(default_factory=list)

    def __len__(self):
        return len(self.chars)


def lcs_diff(junior: str, senior: str) -> EditScript:
    """Diff two character sequences into maximal keep/delete/insert runs.

    Keep runs spell a longest common subsequence. Within each edit gap the
    delete run is emitted before the insert run. Runs are sliced out of the
    texts group by group of equal opcodes, not built character by character.
    """
    script: EditScript = []
    ji = si = 0
    n_del = n_ins = 0  # size of the edit gap being collected
    for op, group in groupby(lcs_ops(junior, senior)):
        n = len(list(group))
        if op == DELETE:
            n_del += n
        elif op == INSERT:
            n_ins += n
        else:
            if n_del or n_ins:
                ji, si = _gap_runs(script, junior, senior, ji, si, n_del, n_ins)
                n_del = n_ins = 0
            script.append(EditRun("keep", junior[ji:ji + n], ji, si))
            ji += n
            si += n
    if n_del or n_ins:
        _gap_runs(script, junior, senior, ji, si, n_del, n_ins)
    return script


def _gap_runs(script: EditScript, junior: str, senior: str, ji: int, si: int,
              n_del: int, n_ins: int) -> tuple[int, int]:
    """Append an edit gap's delete and insert runs; returns the cursors after it."""
    if n_del:
        script.append(EditRun("delete", junior[ji:ji + n_del], ji, si))
    if n_ins:
        script.append(EditRun("insert", senior[si:si + n_ins], ji + n_del, si))
    return ji + n_del, si + n_ins


def merge_reports(pair: ReportPair) -> MixedReport:
    """Merge a pair into one mixed report with B/I/O tags and typed spans."""
    script = lcs_diff(pair.junior, pair.senior)
    chars: list[str] = []
    tags: list[str] = []
    spans: list[RevisedSpan] = []

    i = 0
    while i < len(script):
        run = script[i]
        if run.kind == "keep":
            chars.append(run.chars)
            tags.append("O" * len(run.chars))
            i += 1
            continue
        if run.kind == "delete":
            deleted = run.chars
            inserted = ""
            if i + 1 < len(script) and script[i + 1].kind == "insert":
                inserted = script[i + 1].chars
                i += 1
        else:
            deleted = ""
            inserted = run.chars
        i += 1
        content = deleted + inserted
        start = sum(len(c) for c in chars)
        if deleted and inserted:
            kind = REVISION
        elif deleted:
            kind = DELETION
        else:
            kind = ADDITION
        spans.append(RevisedSpan(start, start + len(content), kind, deleted, inserted))
        chars.append(content)
        tags.append("B" + "I" * (len(content) - 1))

    return MixedReport(pair.id, "".join(chars), "".join(tags), spans)


def span_char_indices(mixed: MixedReport) -> list[tuple[int, int]]:
    """Span index ranges read off the tag sequence alone.

    A span starts at each B and ends before the next O or B tag.
    """
    _check_tags(mixed.tags)
    ranges = []
    start = None
    for i, t in enumerate(mixed.tags):
        if t == "B":
            if start is not None:
                ranges.append((start, i))
            start = i
        elif t == "O":
            if start is not None:
                ranges.append((start, i))
                start = None
    if start is not None:
        ranges.append((start, len(mixed.tags)))
    return ranges


def reconstruct(mixed: MixedReport) -> tuple[str, str]:
    """Recover (junior, senior) from a mixed report. Validates invariants."""
    _validate(mixed)
    junior: list[str] = []
    senior: list[str] = []
    pos = 0
    for span in mixed.spans:
        outside = mixed.chars[pos:span.start]
        junior.append(outside)
        senior.append(outside)
        junior.append(span.deleted)
        senior.append(span.inserted)
        pos = span.end
    tail = mixed.chars[pos:]
    junior.append(tail)
    senior.append(tail)
    return "".join(junior), "".join(senior)


def _check_tags(tags: str) -> None:
    prev = "O"
    for i, t in enumerate(tags):
        if t not in "BIO":
            raise ValidationError(f"invalid tag {t!r} at index {i}")
        if t == "I" and prev == "O":
            raise ValidationError(f"I tag at index {i} not preceded by B or I")
        prev = t


def _validate(mixed: MixedReport) -> None:
    if len(mixed.tags) != len(mixed.chars):
        raise ValidationError(
            f"report {mixed.report_id!r}: {len(mixed.tags)} tags for {len(mixed.chars)} chars"
        )
    ranges = span_char_indices(mixed)
    if ranges != [s.range for s in mixed.spans]:
        raise ValidationError(f"report {mixed.report_id!r}: span list disagrees with tags")
    for span in mixed.spans:
        if mixed.chars[span.start:span.end] != span.deleted + span.inserted:
            raise ValidationError(
                f"report {mixed.report_id!r}: span at {span.range} does not spell "
                "deleted+inserted content"
            )
        ok = {
            DELETION: span.deleted and not span.inserted,
            ADDITION: span.inserted and not span.deleted,
            REVISION: span.deleted and span.inserted,
        }.get(span.kind)
        if not ok:
            raise ValidationError(
                f"report {mixed.report_id!r}: span at {span.range} is not a valid {span.kind}"
            )
