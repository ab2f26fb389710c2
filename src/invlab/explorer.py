"""Small-tournament enumeration, theorem verification, and conjecture scans.

The canonical form of a tournament is its least "n:bits" encoding over all
vertex relabellings.  It is found by individualisation-refinement on the
out rows without automorphism pruning (McKay and Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 2014).  The vertices not yet placed
form an ordered partition into cells.  Position i takes a vertex v of the
first cell; v's row reads, cell by cell, a 0 for each member that beats v
and then a 1 for each member v beats, and every cell splits into (beats v,
beaten by v).  Only the choices of v that give the least row are kept,
level by level, and choices that reach the same partition are merged.

The search is exact.  Rows are compared in order, so the least string
starts with the least row i given rows 0..i-1.  Once v sits at position i,
any other order inside a cell gives a larger row i, so the split is forced,
and only tied choices of v branch.

Scan reports separate "asserted" outcomes (theorem-backed, violations are
build-stopping) from "evidence" (conjecture probes, where a counterexample
is a discovery, not a failure), and every report replays exactly from its
scope field.

A scan is one timed run through `_scan`: a plan lists (task, args) jobs
and maps their results, in job order, to one outcome per instance, a row
or the reason the instance is inconclusive; a fold turns the rows, in
instance order, into violations and evidence.  One runner, `_fan_out`,
runs the jobs at any worker count: this process claims them through a pipe,
and more workers are forks that claim from the same pipe and send results
back pickled over one pipe each (the design relies on Linux pipe semantics).
One worker forks nothing, so the report is the same for any worker count
apart from elapsed, and no pool module is loaded.  The Schur scan runs one
job per pair.

The theorem scan and the two pair scans (tmr additivity and the inv lower
bound) ask each join question once, through `_questions`.  Every operand
class is answered exactly, by one unbudgeted check_trichotomy.  A
tournament is the n-join of its strong components, so the canonical forms
of the components of an n-join, in join order, are an exact isomorphism
key, and each distinct key is one job that searches the n-join of the
key's own components, whatever instance asked it first.  Its search stops
at the components' bound: join_family (constructions) joins their minimum
families into one that decycles the join, merging each gap class's family
(inv = tmr + 1) into a set before it as the paper's dijoin construction
does, so the level of its size, or of the sum of their tmr (its gram rank),
is replayed from it instead of searched.  A question's family comes back
with its value, and each asker keeps the vertex order that carries it
onto the asker's labelling (the refinement that reaches each component's
canonical form records one), so a fold that reads the family carries it
there and no fold searches again.  A node limit applies to each join
question's search alone, and a question that runs out leaves every
instance that asks it inconclusive.  Reversing every arc keeps inv and tmr
and maps D1 -> D2 to D2^c -> D1^c, so the pair scans key a question by
the lesser of its key and its converse's.  The theorem scan keys plainly:
its switch check compares inv(D1 -> D2) with inv(D2 -> D1), and with
self-converse operands a converse key would answer both from one search.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

from .constructions import join_family
from .decycling import (
    family_certificate,
    family_to_matrix,
    is_decycling_matrix,
    matrix_certificate,
)
from .digraph import (
    Tournament,
    UsageError,
    VertexFamily,
    _refuse_below,
    _relabel,
    decode,
    dijoin,
    njoin,
    pair_count,
    reverse,
    transitive_tournament,
)
from .gf2 import MatGF2, SymMatGF2, _trusted_sym, full_rank_principal, schur_update
from .search import (
    Inconclusive,
    SearchBudget,
    TrichotomyReport,
    _levels,
    check_trichotomy,
)

REPORT_SCHEMA = "invlab.scan-report/1"

MAX_CANONICAL_N = 8

_C3 = decode("3:101")


# ---------------------------------------------------------------------------
# canonical forms and enumeration


def _canonical_int(out: Sequence[int]) -> tuple[int, list[int]]:
    """Least packed string over all relabellings of the tournament with these
    out rows, and a vertex order that `_relabel` takes onto it.

    The packed string holds one bit per pair (0,1), (0,2), ..., (n-2,n-1),
    most significant first, 1 meaning the lower label beats the higher.  A
    state is an ordered partition of the unplaced vertices into cells; see
    the module docstring for why keeping the least-row states is exact.
    Each state keeps the vertices placed on a way to it as nested (placed, v)
    pairs, so no state copies its path.
    """
    n = len(out)
    value = 0
    states = {((1 << n) - 1,): ()}
    for width in range(n - 1, 0, -1):
        best = 1 << width
        survivors = {}
        for cells, placed in states.items():
            first, rest = cells[0], cells[1:]
            pick = first
            while pick:
                bit = pick & -pick
                pick ^= bit
                v = bit.bit_length() - 1
                beaten = out[v]
                row = 0
                refined = []
                for cell in (first ^ bit,) + rest:
                    won = cell & beaten
                    lost = cell ^ won
                    row = (row << cell.bit_count()) | ((1 << won.bit_count()) - 1)
                    if lost:
                        refined.append(lost)
                    if won:
                        refined.append(won)
                if row < best:
                    best = row
                    survivors = {tuple(refined): (placed, v)}
                elif row == best:
                    survivors[tuple(refined)] = placed, v
        value = (value << width) | best
        states = survivors
    (last,), placed = next(iter(states.items()))
    order = [last.bit_length() - 1] if n else []
    while placed:
        placed, v = placed
        order.append(v)
    return value, order[::-1]


def _packed_text(n: int, value: int) -> str:
    """The "n:bits" encoding of a packed string: its bits, read from the top, in pair order."""
    m = pair_count(n)
    return f"{n}:{value:0{m}b}" if m else f"{n}:"


def _refuse_past_canonical(**sizes: Optional[int]) -> None:
    """Refuse a size (None is unset) past the tournaments that have canonical forms here."""
    for name, n in sizes.items():
        if n is not None and n > MAX_CANONICAL_N:
            raise UsageError(f"{name} = {n} exceeds MAX_CANONICAL_N = {MAX_CANONICAL_N}: classes"
                             f" are enumerated for n <= {MAX_CANONICAL_N}", name)


def canonical_form(T: Tournament) -> str:
    """Canonical encoding, equal exactly for isomorphic tournaments (n <= 8)."""
    if not T.is_tournament:
        raise TypeError("canonical_form is defined for tournaments")
    _refuse_past_canonical(n=T.n)
    return _packed_text(T.n, _canonical_int(T.out)[0])


@lru_cache(maxsize=None)
def _iso_class_ints(n: int) -> tuple[int, ...]:
    """Packed canonical strings of the classes on n vertices, in increasing order.

    Every class on n vertices is a class on n-1 vertices plus a vertex n-1
    with one of the 2^(n-1) out-patterns.
    """
    if n <= 1:
        return (0,)
    top = 1 << (n - 1)
    seen = set()
    for canon in _iso_class_ints(n - 1):
        base = decode(_packed_text(n - 1, canon)).out
        for pattern in range(top):
            rows = [r if (pattern >> j) & 1 else r | top for j, r in enumerate(base)]
            rows.append(pattern)
            seen.add(_canonical_int(rows)[0])
    return tuple(sorted(seen))


def enumerate_tournaments(n: int, up_to_iso: bool = True) -> Iterator[Tournament]:
    """All tournaments on n vertices, one per isomorphism class by default (n <= 8)."""
    _refuse_below(0, n=n)
    _refuse_past_canonical(n=n)
    if up_to_iso:
        for canon in _iso_class_ints(n):
            yield decode(_packed_text(n, canon))
        return
    for orient in range(1 << pair_count(n)):
        yield Tournament(n, orient)


def _class_encodings(n: int) -> list[str]:
    return [_packed_text(n, canon) for canon in _iso_class_ints(n)]


# ---------------------------------------------------------------------------
# scan reports


class ScanReport:
    """Outcome of a verification or conjecture run; replayable from `scope`."""

    __slots__ = ("scope", "instances_checked", "violations", "evidence", "elapsed")

    def __init__(self, scope: dict, instances_checked: int = 0, violations: Optional[list] = None,
                 evidence: Optional[dict] = None, elapsed: float = 0.0):
        self.scope = scope
        self.instances_checked = instances_checked
        self.violations = [] if violations is None else violations
        self.evidence = {} if evidence is None else evidence
        self.elapsed = elapsed

    @property
    def inconclusive(self) -> list:
        return self.evidence.get("inconclusive", [])

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "scope": self.scope,
            "instances_checked": self.instances_checked,
            "violations": self.violations,
            "evidence": self.evidence,
            "elapsed": self.elapsed,
        }

    def table(self) -> str:
        lines = [
            f"scan               {self.scope.get('scan')}",
            f"scope              {self.scope}",
            f"instances checked  {self.instances_checked}",
            f"violations         {len(self.violations)}",
            f"inconclusive       {len(self.inconclusive)}",
            f"elapsed            {self.elapsed:.2f}s",
        ]
        lines += [f"  VIOLATION {v}" for v in self.violations]
        for key, val in sorted(self.evidence.items()):
            if key == "inconclusive":
                continue
            if isinstance(val, list):
                lines.append(f"  evidence {key}: {len(val)} entries")
                lines += [f"    {entry}" for entry in val[:10]]
            else:
                lines.append(f"  evidence {key}: {val}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the scan driver


def _class_tuples(sizes_each: Sequence[range], max_total: Optional[int] = None):
    """Tuples of class encodings, one class per position with its size drawn from sizes_each.

    Size tuples come in lexicographic order, skipping those whose sum exceeds
    max_total, and the classes of each size tuple in lexicographic order.
    """
    for sizes in itertools.product(*sizes_each):
        if max_total is None or sum(sizes) <= max_total:
            yield from itertools.product(*map(_class_encodings, sizes))


def _check(name: str, instances: list, expected, observed) -> dict:
    """One checked statement of a report; it is violated when expected != observed."""
    return {"name": name, "instances": instances, "expected": expected, "observed": observed}


# A claim token is the index of a job's first run, in _TOKEN bytes.  All the
# tokens go into one pipe in one write of at most a page, so the write never
# blocks, and a Linux pipe read holds the pipe lock, so every token reaches
# exactly one reader.
_TOKEN = 4
_MAX_TOKENS = 4096 // _TOKEN


def _claimed(claims: int, jobs: list, step: int) -> Iterator[tuple[int, object]]:
    """(index, result) of every job in the runs of `step` jobs this process claims."""
    while token := os.read(claims, _TOKEN):
        if len(token) != _TOKEN:
            raise RuntimeError(f"claim pipe returned a partial token {token!r}")
        start = int.from_bytes(token, "little")
        for i in range(start, min(start + step, len(jobs))):
            task, args = jobs[i]
            yield i, task(args)


def _pickled_error(exc: Exception) -> bytes:
    """exc, pickled with its traceback text as a note; a RuntimeError if exc does not unpickle."""
    import pickle
    import traceback

    text = "".join(traceback.format_exception(exc))
    exc.add_note(f"raised in scan worker {os.getpid()}:\n{text}")
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(RuntimeError(text))


def _worker(claims: int, jobs: list, step: int, out: int) -> None:
    """A forked worker: claim and run jobs, pickle the (index, result) pairs to out, exit."""
    code = 1
    try:
        import pickle

        try:
            data = pickle.dumps(list(_claimed(claims, jobs, step)))
        except Exception as exc:
            data = _pickled_error(exc)
        with open(out, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _fan_out(jobs: list, workers: int) -> list:
    """The results of jobs, in job order, from this process and min(workers, len(jobs)) - 1 forks.

    Jobs are claimed through one pipe of tokens (see _TOKEN), so a process
    that draws light jobs claims more of them; over _MAX_TOKENS jobs, a
    token names a run of consecutive jobs.  With one worker nothing is
    forked and this process claims every token.  Each child pickles its
    pairs back over its own pipe and ends through os._exit.  A child's
    exception, or an exit with no data, is raised here; every child is
    reaped, and killed first when anything raised.
    """
    step = max(1, -(-len(jobs) // _MAX_TOKENS))
    claims, w = os.pipe()
    try:
        os.write(w, b"".join(i.to_bytes(_TOKEN, "little") for i in range(0, len(jobs), step)))
    finally:
        os.close(w)
    results: list = [None] * len(jobs)
    children = []  # (pid, the read end of its result pipe)
    done = False
    try:
        for _ in range(min(workers, len(jobs)) - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(claims, jobs, step, w)
            except OSError:
                os.close(r)
                raise
            finally:
                os.close(w)
            children.append((pid, open(r, "rb")))
        for i, res in _claimed(claims, jobs, step):
            results[i] = res
        for pid, fh in children:
            import pickle  # only with children: a one-process scan never loads it
            data = fh.read()
            if not data:
                raise RuntimeError(f"scan worker {pid} exited without sending its results")
            got = pickle.loads(data)
            if isinstance(got, BaseException):
                raise got
            for i, res in got:
                results[i] = res
        done = True
    finally:
        os.close(claims)
        for pid, fh in children:
            fh.close()
            if not done:
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _scan(scope: dict, plan, workers: int, fold) -> ScanReport:
    """Run a scan and fold its outcomes, one per instance, into one timed report.

    plan() returns (jobs, outcomes): the (task, args) jobs, and a function
    from their results, in job order, to one (instance, row) per instance,
    the row of an inconclusive instance being the reason string.  fold gets
    the other (instance, row) pairs and fills the violations and the
    evidence, which the inconclusive instances follow; both keep instance
    order.  A report checks one instance per outcome unless fold counts
    otherwise.  plan runs on the clock, so elapsed covers operand searches.
    """
    _refuse_below(1, workers=workers)
    t0 = time.perf_counter()
    jobs, outcomes = plan()
    done = outcomes(_fan_out(jobs, workers))
    report = ScanReport(scope=scope, instances_checked=len(done))
    fold(report, [(instance, row) for instance, row in done if not isinstance(row, str)])
    report.evidence["inconclusive"] = [
        {"instance": instance, "reason": row} for instance, row in done if isinstance(row, str)
    ]
    report.elapsed = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# join questions: one search per operand class and per question


@lru_cache(maxsize=None)
def _trichotomy(enc: str) -> TrichotomyReport:
    """check_trichotomy of a class, unbudgeted: the exact answer, once per class.

    A scan's classes come from _class_encodings, so n <= MAX_CANONICAL_N = 8,
    and every class with n <= 8 is answered in at most 648 search nodes, a
    few milliseconds: a node limit would bound nothing a scan can spend here.
    """
    return check_trichotomy(decode(enc))


def _components(T: Tournament) -> list[list[int]]:
    """The strong components of T, winners first.

    Taken by descending score, the first k vertices beat all the others
    exactly when their scores sum to k(k-1)/2 + k(n-k); those cuts separate
    the components.
    """
    n = T.n
    by_score = sorted(range(n), key=lambda v: -T.out[v].bit_count())
    comps, comp, total = [], [], 0
    for k, v in enumerate(by_score, 1):
        comp.append(v)
        total += T.out[v].bit_count()
        if total == k * (k - 1) // 2 + k * (n - k):
            comps.append(comp)
            comp = []
    return comps


def _component_key(T: Tournament) -> tuple[tuple[str, ...], list[int]]:
    """The canonical forms of T's strong components, winners first, of any
    size, and the order of T's vertices that `_relabel` takes onto njoin of them.

    A tournament is the n-join of its strong components, so two tournaments
    are isomorphic exactly when their keys are equal, and the key of
    njoin([D1, ..., Dk]) is the keys of D1, ..., Dk in turn.
    """
    key, order = [], []
    for c in _components(T):
        value, canon = _canonical_int(_relabel(T, c).out)
        key.append(_packed_text(len(c), value))
        order += [c[u] for u in canon]
    return tuple(key), order


def _operand(enc: str):
    """(check_trichotomy report, (key, order), (converse key, order)) of a class."""
    T = decode(enc)
    return _trichotomy(enc), _component_key(T), _component_key(reverse(T))


def _join_task(args) -> tuple[int, VertexFamily] | str:
    """The n-join of a key's components searched in that labelling, so its
    outcome is the key's alone: (tmr with rank_pass else inv, the family
    that witnesses it on the n-join), or why it ran out.

    join_family of the components' minimum families decycles the join.  Its
    gram matrix is block diagonal of rank their tmr sum, and it merges each
    gap component's family (inv = tmr + 1) into a set before it, one set
    fewer than their inv sum per merge.  The level loop stops at the tmr
    sum, or at the family's size for inv, and replays the family instead of
    searching that level; every level below is searched.
    """
    key, rank_pass, node_limit = args
    reps = [_trichotomy(enc) for enc in key]
    J = njoin([decode(enc) for enc in key])
    joined = join_family([rep.inv_certificate.payload for rep in reps])
    bound = sum(rep.tmr for rep in reps) if rank_pass else joined.m
    try:
        k, family = _levels(J, SearchBudget(node_limit=node_limit), rank_pass, (bound, joined))
    except Inconclusive as exc:
        return exc.reason
    if family is joined:
        # both raise when the family does not decycle J
        if rank_pass:
            if matrix_certificate(J, family_to_matrix(joined)).value != bound:
                raise AssertionError("the components' joined family misses their tmr bound")
        else:
            family_certificate(J, joined)
    return k, family


def _carried(family: VertexFamily, order: Sequence[int]) -> VertexFamily:
    """A family on njoin of a key, moved through a question's order onto the asker's join."""
    return VertexFamily.from_sets(len(order), ([order[v] for v in s] for s in family.sets))


def _joined(sides, shifts) -> tuple[tuple[str, ...], list[int]]:
    """A join's key and order onto njoin of it, from its operands' (key, order) and shifts."""
    key, order = (), []
    for (k, o), shift in zip(sides, shifts):
        key += k
        order += [v + shift for v in o]
    return key, order


def _questions(tuples, ask, rank_pass: bool, converse: bool, node_limit: Optional[int]):
    """The plan (see _scan) of a scan over tuples of classes that asks join questions.

    Every class is answered once, by check_trichotomy (_operand).
    ask(reports) names an instance's questions, each a tuple of operand
    positions in join order.  A question is keyed by its operands' keys in
    that order or, with converse, by the lesser of that and the key of the
    reversed join; each distinct key is one _join_task job, the only
    searches the node limit caps.  A question's family comes back with its
    value and keeps the order of its join onto njoin of the key (reversed
    for a converse key: a family decycles D exactly when it decycles
    reverse(D)), which carries it onto the asker's labelling (_carried).  An
    instance's row is (its operands' reports, its questions' (value, family,
    order) answers), or the reason of its first question that ran out.
    """
    operands: dict = {}  # class -> _operand
    keys: dict = {}  # key -> its job's index
    instances = []  # (classes, reports, (job, order) of each question)
    for encs in tuples:
        for enc in encs:
            if enc not in operands:
                operands[enc] = _operand(enc)
        ops = [operands[enc] for enc in encs]
        reps = tuple(op[0] for op in ops)
        asked = []
        for join in ask(reps):
            # an order lists every vertex of its operand, so its length is the shift
            shifts = list(itertools.accumulate((len(ops[i][1][1]) for i in join), initial=0))
            key, order = _joined([ops[i][1] for i in join], shifts)
            if converse:
                back = _joined([ops[i][2] for i in reversed(join)], shifts[-2::-1])
                if back[0] < key:
                    key, order = back
            asked.append((keys.setdefault(key, len(keys)), order))
        instances.append((list(encs), reps, asked))
    jobs = [(_join_task, (key, rank_pass, node_limit)) for key in keys]

    def outcomes(values: list) -> list:
        done = []
        for encs, reps, asked in instances:
            got = [values[ix] for ix, _ in asked]
            ran_out = next((v for v in got if isinstance(v, str)), None)
            if ran_out is None:
                got = [(k, family, order) for (k, family), (_, order) in zip(got, asked)]
            done.append((encs, ran_out or (reps, got)))
        return done

    return jobs, outcomes


# ---------------------------------------------------------------------------
# theorem verification


def _theorem_questions(reps) -> list[tuple[int, ...]]:
    """A pair asks D1 -> D2 and D2 -> D1 when inv(D1) <= 2; a triple asks
    [D1, D2, D3] and D2 -> D3 when inv(D1) and inv(D2) are in {1, 2}.
    """
    if len(reps) == 2:
        return [(0, 1), (1, 0)] if reps[0].inv <= 2 else []
    return [(0, 1, 2), (1, 2)] if reps[0].inv in (1, 2) and reps[1].inv in (1, 2) else []


def _theorem_checks(instance: list, reps, values: list) -> list[dict]:
    """One pair's or triple's checks, from its operands' reports and its questions' values."""
    if not values:
        return []
    if len(reps) == 3:
        return [_check("three-join-identity", instance, reps[0].inv + values[1], values[0])]
    inv1, inv2, t2 = reps[0].inv, reps[1].inv, reps[1].tmr
    invj, invj_sw = values
    checks = []
    if inv1 == 2:
        checks.append(_check("dijoin-inv-formula", instance, t2 + 2, invj))
    checks.append(_check("dijoin-switch", instance, invj, invj_sw))
    if inv1 >= 1:
        gap_claim = invj == (inv2 if inv1 == 1 else inv2 + 1)
        checks.append(_check("dijoin-gap-equivalence", instance, inv2 == t2 + 1, gap_claim))
    return checks


# on a 2-core host with 2 workers, the triples of max_each = 5 took 7.3 s up
# to 13 vertices and 27.5 s up to 14; up to 15 they ran past 15 min
_THEOREMS_EXHAUSTIVE_N_MAX = 14


def verify_dijoin_theorems(
    max_total: Optional[int] = None,
    max_each: Optional[int] = None,
    triple_total: Optional[int] = None,
    node_limit: Optional[int] = None,
    workers: int = 1,
) -> ScanReport:
    """Check the proven dijoin and n-join identities on enumerated pairs.

    Per ordered pair of tournament classes (within the size budget):
    inv(D1) = 2 forces inv(D1 -> D2) = tmr(D2) + 2; inv(D1) <= 2 forces the
    switch identity inv(D1 -> D2) = inv(D2 -> D1); and for inv(D1) in {1, 2}
    the gap condition inv(D2) = tmr(D2) + 1 is equivalent to the dijoin
    hitting its lower value.  Triples with the first two inversion numbers
    in {1, 2} check inv([D1, D2, D3]) = inv(D1) + inv(D2 -> D3).  Every
    check is theorem-backed: violations are build-stopping, and budget
    exhaustion is recorded per pair or triple, never silently skipped.

    Pairs and triples ask their joins through _questions, as the pair scans
    do, but keyed plainly, not up to converse: with self-converse operands
    the converse key of D2 -> D1 is the key of D1 -> D2, and one search
    would answer both sides of the switch check.

    Without a node limit, a scope whose largest pair or triple has more
    than _THEOREMS_EXHAUSTIVE_N_MAX vertices would run for hours, and is
    refused with UsageError.
    """
    _refuse_below(0, triple_total=triple_total, node_limit=node_limit)
    _refuse_below(1, max_each=max_each)
    _refuse_below(2, max_total=max_total)  # the smallest pair
    _refuse_past_canonical(max_each=max_each)
    if max_total is None and max_each is None:
        max_each = 3
    if triple_total is None:
        triple_total = max_total if max_total is not None else 3 * max_each

    if max_each is None:  # the totals bound every operand, and so every join
        _refuse_past_canonical(max_total=max_total, triple_total=triple_total)
    elif node_limit is None:
        pair = 2 * max_each if max_total is None else min(2 * max_each, max_total)
        n = max(pair, min(3 * max_each, triple_total))
        if n > _THEOREMS_EXHAUSTIVE_N_MAX:
            raise UsageError(
                f"an unbudgeted verify-theorems scope joins up to {n} vertices and would run"
                f" for hours; use {{max_each}} {_THEOREMS_EXHAUSTIVE_N_MAX // 3} or less, or"
                " cap each join question's search with {node_limit}",
                "max_each", "node_limit",
            )
    scope = {
        "scan": "dijoin-theorems",
        "max_total": max_total,
        "max_each": max_each,
        "triple_total": triple_total,
        "node_limit": node_limit,
    }

    def sizes(total: int) -> range:
        return range(1, (max_each if max_each is not None else total) + 1)

    tuples = itertools.chain(
        _class_tuples([sizes(max_total)] * 2, max_total),
        _class_tuples([sizes(triple_total)] * 3, triple_total),
    )

    def fold(report, rows):
        tallies: dict[str, int] = {}
        for instance, (reps, answers) in rows:
            for chk in _theorem_checks(instance, reps, [k for k, _, _ in answers]):
                tallies[chk["name"]] = tallies.get(chk["name"], 0) + 1
                if chk["expected"] != chk["observed"]:
                    report.violations.append(chk)
        report.evidence = {"checks_run": tallies}

    return _scan(
        scope, lambda: _questions(tuples, _theorem_questions, False, False, node_limit),
        workers, fold,
    )


# ---------------------------------------------------------------------------
# pair scans


def _pair_questions(scope: dict, rank_pass: bool):
    """The plan of a pair scan: D1 -> D2 for each pair of classes, keyed up to converse."""
    sizes = [range(1, scope["n1"] + 1), range(1, scope["n2"] + 1)]
    tuples = _class_tuples(sizes, scope["max_total"])
    return _questions(tuples, lambda reps: [(0, 1)], rank_pass, True, scope["node_limit"])


def _pair_scan(scan: str, rank_pass: bool, fold, n1, n2, max_total, node_limit, workers):
    """Run the pair scan of these parameters (see _pair_questions) and fold its rows."""
    _refuse_below(0, node_limit=node_limit)
    _refuse_below(1, n1=n1, n2=n2)
    _refuse_below(2, max_total=max_total)  # the smallest pair
    _refuse_past_canonical(n1=n1, n2=n2)
    scope = {"scan": scan, "n1": n1, "n2": n2, "max_total": max_total, "node_limit": node_limit}
    return _scan(scope, lambda: _pair_questions(scope, rank_pass), workers, fold)


def scan_tmr_additivity(
    n1: int = 3,
    n2: int = 3,
    max_total: Optional[int] = None,
    node_limit: Optional[int] = None,
    workers: int = 1,
) -> ScanReport:
    """Probe tmr(D1 -> D2) = tmr(D1) + tmr(D2) over all class pairs.

    Pairs with tmr(D1) in {1, 2} are asserted (theorem-backed; a violation
    is build-stopping).  All other pairs are conjecture evidence, and any
    strict inequality is emitted as a replayable counterexample carrying the
    dijoin's minimum-rank certificate.
    """
    def fold(report, rows):
        asserted = evidence_pairs = equal = 0
        counterexamples = []
        for pair, ((rep1, rep2), ((tj, family, order),)) in rows:
            t1, t2 = rep1.tmr, rep2.tmr
            additive = tj == t1 + t2
            if t1 in (1, 2):
                asserted += 1
                if not additive:
                    report.violations.append(_check("tmr-additivity-asserted", pair, t1 + t2, tj))
            else:
                evidence_pairs += 1
                if additive:
                    equal += 1
                else:
                    J = dijoin(*map(decode, pair))
                    cert = matrix_certificate(J, family_to_matrix(_carried(family, order)))
                    counterexamples.append(
                        {
                            "d1": pair[0],
                            "d2": pair[1],
                            "tmr1": t1,
                            "tmr2": t2,
                            "tmr_dijoin": tj,
                            "dijoin_certificate": cert.to_json_dict(),
                        }
                    )
        report.evidence = {
            "asserted_pairs": asserted,
            "evidence_pairs": evidence_pairs,
            "evidence_equal": equal,
            "counterexamples": counterexamples,
        }

    return _pair_scan("tmr-additivity", True, fold, n1, n2, max_total, node_limit, workers)


def scan_inv_lower_bound(
    n1: int = 3,
    n2: int = 3,
    max_total: Optional[int] = None,
    node_limit: Optional[int] = None,
    workers: int = 1,
) -> ScanReport:
    """Evidence scan for inv(D1 -> D2) >= inv(D1) + inv(D2) - 1.

    The bound is asserted where it is theorem-backed (inv(D1) = 2); all
    other pairs are evidence.  Equality cases are tabulated against the
    conjectured condition inv(Di) = tmr(Di) + 1 for some i, without
    asserting the conjecture.
    """
    def fold(report, rows):
        cells = {
            "equality_and_condition": 0,
            "equality_no_condition": 0,
            "strict_and_condition": 0,
            "strict_no_condition": 0,
        }
        bound_failures = []
        for pair, ((rep1, rep2), ((observed, _, _),)) in rows:
            lo = rep1.inv + rep2.inv - 1
            if observed < lo:
                entry = _check("inv-lower-bound", pair, f">= {lo}", observed)
                if rep1.inv == 2:
                    report.violations.append(entry)  # theorem-backed here
                else:
                    bound_failures.append(entry)  # conjecture counterexample
                continue
            condition = rep1.inv == rep1.tmr + 1 or rep2.inv == rep2.tmr + 1
            key = ("equality" if observed == lo else "strict") + (
                "_and_condition" if condition else "_no_condition"
            )
            cells[key] += 1
        report.evidence = {"equality_cells": cells, "bound_counterexamples": bound_failures}

    return _pair_scan("inv-lower-bound", False, fold, n1, n2, max_total, node_limit, workers)


# ---------------------------------------------------------------------------
# Schur probe


class SchurProbeRecord(NamedTuple):
    """One block-elimination probe of a decycling matrix for a dijoin."""

    a_rank: int
    b_prime_decycles: bool
    a_prime_decycles_c3: Optional[bool]  # populated when the principal is 3x3
    a_prime_class: Optional[int]  # canonical 3x3 key under simultaneous permutation


def _blocks(M: SymMatGF2, n1: int) -> tuple[SymMatGF2, list[int], SymMatGF2]:
    """The blocks A and B of M, and the rows of its cross block C."""
    low = (1 << n1) - 1
    A = _trusted_sym(n1, [r & low for r in M.rows[:n1]])
    c_rows = [r >> n1 for r in M.rows[:n1]]
    B = _trusted_sym(M.n - n1, [r >> n1 for r in M.rows[n1:]])
    return A, c_rows, B


_SYM3_PERMS = list(itertools.permutations(range(3)))


def _sym3_class_key(A: SymMatGF2) -> int:
    """Canonical 6-bit key of a 3x3 symmetric matrix up to relabeling."""
    best = None
    for p in _SYM3_PERMS:
        key = 0
        pos = 0
        for i in range(3):
            key |= A.entry(p[i], p[i]) << pos
            pos += 1
        for i in range(3):
            for j in range(i + 1, 3):
                key |= A.entry(p[i], p[j]) << pos
                pos += 1
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=1024)
def _a_block_facts(A: SymMatGF2):
    """The part of a probe that depends on the A-block alone.

    Returns the indices S of a maximal full-rank principal A' of A, A', and
    for 3x3 A' whether it decycles the directed triangle and its class key
    (else None twice).  A 3-vertex D1 has at most 64 A-blocks, so scans hit
    this cache almost always.
    """
    S = full_rank_principal(A)
    A_prime = A.principal(S)
    if len(S) != 3:
        return S, A_prime, None, None
    return S, A_prime, is_decycling_matrix(_C3, A_prime), _sym3_class_key(A_prime)


def schur_probe(D1: Tournament, D2: Tournament, M: SymMatGF2) -> SchurProbeRecord:
    """Eliminate a full-rank principal block of the D1 side and test the rest.

    M must decycle dijoin(D1, D2) with rows ordered D1 vertices first.  The
    probe extracts the blocks A, C, B, picks a maximal full-rank principal
    A' of A on the indices S, forms B' = B + C'^T A'^{-1} C', and records
    rank(A), whether B' still decycles D2, and, for 3x3 A', whether A'
    decycles the directed triangle and the class key of A'.

    Whether A' decycles D1 induced on S is not recorded, because it always
    does: A' flips exactly the arcs that M flips inside S, and M decycles
    J = dijoin(D1, D2), so A' decycles J[S] = D1[S] (an induced subgraph of
    an acyclic graph is acyclic).  A size mismatch between M and the dijoin
    raises ValueError from apply_matrix.
    """
    return SchurProbeRecord(*_schur_probe(D1, D2, dijoin(D1, D2), M))


def _schur_probe(D1: Tournament, D2: Tournament, J: Tournament, M: SymMatGF2) -> tuple:
    """schur_probe's four facts as a plain tuple, with J = dijoin(D1, D2) built by the caller."""
    if not is_decycling_matrix(J, M):
        raise ValueError("M is not a decycling matrix for the dijoin")
    A, c_rows, B = _blocks(M, D1.n)
    S, A_prime, c3, key = _a_block_facts(A)
    C_prime = MatGF2(len(S), B.n, [c_rows[i] for i in S])
    B_prime = schur_update(A_prime, C_prime, B)
    return len(S), is_decycling_matrix(D2, B_prime), c3, key


def _decycling_flips(T: Tournament, order: Sequence[int]) -> tuple[int, ...]:
    """Rows of the zero-diagonal matrix that flips T onto the transitive tournament of `order`.

    A symmetric matrix decycles T iff its off-diagonal flips turn T into the
    transitive tournament of some vertex order, so these rows, one per
    order, give every decycling matrix of T up to its (free) diagonal.
    """
    return tuple(a ^ b for a, b in zip(T.out, transitive_tournament(order).out))


def _nth_order(n: int, index: int) -> tuple[int, ...]:
    """Order number index of itertools.permutations(range(n)), by lexicographic unranking."""
    left = list(range(n))
    order = []
    for rest in range(n - 1, -1, -1):
        pick, index = divmod(index, math.factorial(rest))
        order.append(left.pop(pick))
    return tuple(order)


def _schur_pair_task(args) -> tuple[list, list]:
    enc1, enc2, samples, seed = args
    D1, D2 = decode(enc1), decode(enc2)
    J = dijoin(D1, D2)
    n1 = D1.n
    # instance k is order k >> n1 with D1-side diagonal k & (2^n1 - 1); the
    # D2-side diagonal never reaches the probe, so it stays zero, while the
    # D1-side diagonal feeds rank(A) and A'^{-1} and is enumerated fully
    size = math.factorial(J.n) << n1
    if samples is None:
        picks: Sequence[int] = range(size)
    else:
        rng = random.Random(f"{seed}|{enc1}|{enc2}")
        picks = [rng.randrange(size) for _ in range(samples)]
    flips: dict[int, tuple[int, ...]] = {}
    records = []
    for k in picks:
        oi = k >> n1
        if oi not in flips:
            flips[oi] = _decycling_flips(J, _nth_order(J.n, oi))
        rows = [r | (k & (1 << i)) for i, r in enumerate(flips[oi])]
        records.append(_schur_probe(D1, D2, J, _trusted_sym(J.n, rows)))
    # minimum-rank certificates are probed too: the dijoin's, and the block
    # diagonal of the operands' from the per-class cache
    records.append(_schur_probe(D1, D2, J, check_trichotomy(J).tmr_certificate.payload))
    blocks = [_trichotomy(enc).tmr_certificate.payload for enc in (enc1, enc2)]
    records.append(_schur_probe(D1, D2, J, SymMatGF2.block_diag(*blocks)))
    return [enc1, enc2], records


# on a 2-core host an exhaustive pair took 0.79 s at n2 = 4 and 6.8 s at
# n2 = 5 (2.7 min for the whole scope); n2 = 6 would take about 1.9 h
_SCHUR_EXHAUSTIVE_N2_MAX = 5


def scan_schur_3x3(
    n2_max: int = 3,
    samples: Optional[int] = None,
    seed: int = 0,
    workers: int = 1,
) -> ScanReport:
    """Probe the 3x3 block-elimination observation over enumerated matrices.

    Instances are the decycling matrices of dijoin(D1, D2) for the two
    3-vertex classes D1 and all classes of size up to n2_max (all of them
    when samples is None, else a seeded sample per pair), plus per pair the
    dijoin's own minimum-rank certificate and the block diagonal of the
    operands' minimum-rank certificates.  Pointwise, B'
    must keep decycling whenever rank(A) <= 2, and a failing B' forces the
    3x3 block to decycle the directed triangle; both are violations when
    breached.  In exhaustive mode the records are also aggregated per 3x3
    block class (up to relabeling): a class must produce at least one
    failure somewhere in the scan exactly when it decycles the triangle.
    The converse direction needs n2_max >= 3, since a failure requires
    three occupied gaps in the final vertex order.

    An exhaustive pair enumerates all (3 + n2)! * 2^3 matrices, so an
    exhaustive scope past n2_max = 5 (minutes) would run for hours and is
    refused with UsageError; a sampled scope runs up to MAX_CANONICAL_N.
    """
    _refuse_below(0, samples=samples)
    _refuse_below(1, n2_max=n2_max)
    _refuse_past_canonical(n2_max=n2_max)
    if samples is None and n2_max > _SCHUR_EXHAUSTIVE_N2_MAX:
        raise UsageError(
            f"an exhaustive scan schur-3x3 at {{n2_max}} {n2_max} enumerates (3 + n2)! * 8"
            f" matrices per pair and would run for hours; use {{n2_max}}"
            f" {_SCHUR_EXHAUSTIVE_N2_MAX} or less, or sample each pair with {{samples}}",
            "n2_max", "samples",
        )
    scope = {
        "scan": "schur-3x3",
        "n2_max": n2_max,
        "samples": samples,
        "seed": seed,
    }
    pairs = _class_tuples([range(3, 4), range(1, n2_max + 1)])
    jobs = [(_schur_pair_task, (e1, e2, samples, seed)) for e1, e2 in pairs]

    def fold(report, rows):
        per_class: dict[int, dict] = {}
        rank_tally: dict[int, int] = {}
        for pair, records in rows:
            for a_rank, b_ok, c3, key in records:
                rank_tally[a_rank] = rank_tally.get(a_rank, 0) + 1
                if a_rank <= 2 and not b_ok:
                    report.violations.append(
                        _check("schur-rank-le-2-must-hold", pair, True, False)
                    )
                if a_rank == 3:
                    if not b_ok and not c3:
                        report.violations.append(
                            _check(
                                "schur-safe-direction",
                                pair,
                                "failing B' implies A' decycles C3",
                                f"A' class {key} fails without decycling C3",
                            )
                        )
                    cell = per_class.setdefault(
                        key, {"instances": 0, "failures": 0, "decycles_c3": c3}
                    )
                    cell["instances"] += 1
                    cell["failures"] += 0 if b_ok else 1
        report.instances_checked = sum(rank_tally.values())
        if samples is None and n2_max >= 3:
            for key, cell in sorted(per_class.items()):
                if (cell["failures"] > 0) != cell["decycles_c3"]:
                    report.violations.append(
                        _check(
                            "schur-3x3-equivalence",
                            [f"a-prime-class-{key}"],
                            cell["decycles_c3"],
                            cell["failures"] > 0,
                        )
                    )
        report.evidence = {
            "a_rank_tally": {str(k): v for k, v in sorted(rank_tally.items())},
            "class_tally": {str(k): v for k, v in sorted(per_class.items())},
        }

    # each job's result is its pair's (instance, row) outcome
    return _scan(scope, lambda: (jobs, list), workers, fold)


# ---------------------------------------------------------------------------
# replay


_SCANS = {
    "dijoin-theorems": verify_dijoin_theorems,
    "tmr-additivity": scan_tmr_additivity,
    "inv-lower-bound": scan_inv_lower_bound,
    "schur-3x3": scan_schur_3x3,
}


def run_scan(scan: str, workers: int = 1, **params) -> ScanReport:
    if scan not in _SCANS:
        raise UsageError(f"unknown scan {scan!r}; choose from {sorted(_SCANS)}", "scan")
    return _SCANS[scan](workers=workers, **params)


def replay(report_or_scope, workers: int = 1) -> ScanReport:
    """Re-run a scan from its scope; deterministic scans reproduce verbatim."""
    scope = report_or_scope.scope if isinstance(report_or_scope, ScanReport) else report_or_scope
    return run_scan(workers=workers, **scope)
