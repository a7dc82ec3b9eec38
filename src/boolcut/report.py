"""The rows of ``boolcut report``: each instance's h and g, searched in forked workers.

Only ``cli.cmd_report`` imports this module, so that no other command
compiles it where no bytecode is written.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from typing import Optional

from .errors import InternalError

_REPORT_HEADER = [
    "n",
    "m",
    "l",
    "c",
    "conjectured_h",
    "g_formula",
    "construction_count",
    "searched_h",
    "searched_g",
    "flags",
]


def _search_cell(result) -> str:
    from .search import SearchStatus

    if result.status is SearchStatus.EXACT:
        return str(result.value)
    if result.status is SearchStatus.BOUNDS:
        return f"{result.lower}..{result.upper}"
    return "UNKNOWN"


def _flag_token(label: str, value: Optional[bool]) -> str:
    if value is None:
        return label.replace("~", "?")
    return label.replace("~", "=" if value else "!=")


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker, shown as its cause."""


def _exit_with_parent(sentinel) -> None:
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _search_worker(conn) -> None:
    """Run each ``exact_search`` whose arguments come on ``conn``, in a forked worker.

    Answers each with ``(result, None)``, or ``(exception, traceback text)``
    when the search raises, and waits for the next; the parent kills the
    worker when it needs no more.  A thread ends the worker once the parent
    has ended, however it ended, so that no search outlives ``report``.
    Only a failed search imports a module (``traceback``): the parent has
    imported the rest before it forked.
    """
    import signal
    from multiprocessing import parent_process

    from . import search

    # The parent owns Ctrl-C and stops its workers.  The worker flushes
    # sys.stdout when it exits, and would print again the CSV rows that the
    # parent had not flushed when it forked.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.stdout = None
    watch = threading.Thread(target=_exit_with_parent, args=(parent_process().sentinel,))
    watch.daemon = True
    watch.start()
    while True:
        target, n, m, l, budget, node_cap, lower = conn.recv()
        try:
            result = search.exact_search(
                target, n, m, l, budget, node_cap=node_cap, lower=lower
            ), None
        except Exception as exc:
            import traceback

            result = exc, traceback.format_exc()
        conn.send(result)


def _reply(conn, worker, task):
    """The result a worker sent for ``task``, or the exception to raise in its place."""
    try:
        value, text = conn.recv()
    except EOFError:
        worker.join()
        target, n, m, l, *_ = task
        return InternalError(
            f"the {target} search worker for n={n} m={m} l={l} exited with code "
            f"{worker.exitcode} and sent no result"
        )
    if text is not None:
        value.__cause__ = _WorkerTraceback(text)
    return value


def _row(n, m, l, h=None, g=None):
    """The report row of (n, m, l), given its searched h and g, or none for SKIPPED cells.

    A search that raised raises here, h's before g's.  Exact cells must
    satisfy g <= h <= construction count, which holds for every instance; a
    row breaking it raises InternalError.
    """
    from . import constructions, formulas, search

    conjectured = formulas.conjectured_min_width(n, m, l)
    g_formula = formulas.per_level_bound_value(n, m, l)
    counts = constructions.method_counts(n, m, l)
    construction = min(counts.values()) if counts else None
    if h is None:
        h_cell, g_cell, flags = "SKIPPED", "SKIPPED", "oversize"
    else:
        for result in (h, g):
            if isinstance(result, Exception):
                raise result
        rep = search.compare_searches(n, m, l, h, g)
        h, g = rep.searched_h.value, rep.searched_g.value
        if h is not None and (
            construction is not None and h > construction
            or g is not None and g > h
        ):
            raise InternalError(
                f"g <= h <= construction fails at n={n} m={m} l={l}: "
                f"g={g} h={h} construction={construction}"
            )
        h_cell = _search_cell(rep.searched_h)
        g_cell = _search_cell(rep.searched_g)
        flags = ";".join(
            [
                _flag_token("h~conj", rep.equal_flags["h_matches_conjectured"]),
                _flag_token("g~h", rep.equal_flags["g_matches_h"]),
                _flag_token(
                    "constr~conj",
                    rep.equal_flags["construction_matches_conjectured"],
                ),
            ]
        )
    return [
        str(n),
        str(m),
        str(l),
        str(l - m + 1),
        str(conjectured),
        "" if g_formula is None else str(g_formula),
        "" if construction is None else str(construction),
        h_cell,
        g_cell,
        flags,
    ]


def report_rows(n_values, m_values, budget, node_cap):
    """Yield one report row per instance (n, m, l) with m <= l <= n - m, in instance order.

    Instances whose lattice exceeds ``node_cap`` get SKIPPED search cells.
    The others have h and g searched by ``search.exact_search`` in forked
    workers, one per usable CPU, up to one per search; a worker that
    finishes a search gets the next one that is ready.  The searches go out
    largest lattice first, ties in instance order, so that the longest ones
    do not start last (longest processing time first, Graham, 1969), and
    the first row comes last of all.  An instance's h is ready once its g
    has answered, and starts at g's ``lower``, a lower bound on h too (see
    ``search.exact_min_width``), or at 1 if g failed.  A row is made once
    both are in, so no witness is kept.  A row breaking ``_row``'s check,
    an exception raised in a worker and a worker that ended without a
    result (whose place a fresh worker takes) raise in the row's turn.
    Fork keeps what the parent has set on the modules, which are imported
    here, before any worker is forked, so that a worker imports none, and
    only the search result comes back.  A worker holds little beyond the
    search it runs, whose memory grows with its depth.  Closing the
    generator kills every worker.
    """
    import multiprocessing  # here, so that the other commands never import it
    from bisect import insort
    from multiprocessing.connection import wait

    from . import constructions, formulas, search  # for the workers and ``_row``
    from .lattice import TruncatedLattice

    instances = [
        (n, m, l) for n in n_values for m in m_values if m <= n - m for l in range(m, n - m + 1)
    ]
    sizes = [TruncatedLattice(n, m, l).node_count for n, m, l in instances]
    # (-size, index, target, lower), ascending: the first goes out next.
    ready = sorted((-size, k, "g", 1) for k, size in enumerate(sizes) if size <= node_cap)
    most = min(len(os.sched_getaffinity(0)), 2 * len(ready))
    context = multiprocessing.get_context("fork")
    workers = []
    idle = []  # (connection, worker) with no search
    running = {}  # connection -> (worker, index, task)
    searched_g = {}  # index -> g's result or exception, until h's is in
    rows = {}  # index -> row or the exception to raise in its turn

    def start():
        conn, child = context.Pipe()
        worker = context.Process(target=_search_worker, args=(child,), daemon=True)
        worker.start()
        # The worker now holds the only other end, so conn reads end-of-file
        # once the worker has exited, whether it answered or not.
        child.close()
        workers.append((conn, worker))
        return conn, worker

    def dispatch() -> None:
        while ready and (idle or len(running) < most):
            conn, worker = idle.pop() if idle else start()
            _, k, target, lower = ready.pop(0)
            task = (target, *instances[k], budget, node_cap, lower)
            running[conn] = worker, k, task
            # A worker that has died reads as end-of-file instead.
            with contextlib.suppress(OSError):
                conn.send(task)

    try:
        dispatch()
        for index, size in enumerate(sizes):
            if size > node_cap:
                yield _row(*instances[index])
                continue
            while index not in rows:
                for conn in wait(list(running)):
                    worker, k, task = running.pop(conn)
                    value = _reply(conn, worker, task)
                    if task[0] == "g":
                        searched_g[k] = value
                        lower = 1 if isinstance(value, Exception) else value.lower
                        insort(ready, (-sizes[k], k, "h", lower))
                    else:  # h goes out only once g has answered
                        try:
                            rows[k] = _row(*instances[k], value, searched_g.pop(k))
                        except Exception as exc:
                            rows[k] = exc
                    if worker.exitcode is None:
                        idle.append((conn, worker))
                dispatch()
            row = rows.pop(index)
            if isinstance(row, Exception):
                raise row
            yield row
    finally:
        for conn, worker in workers:
            worker.kill()
            worker.join()
            conn.close()
