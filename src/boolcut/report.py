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
    """Run each ``(target, n, m, l, budget, node_cap)`` search sent on ``conn``, in a forked worker.

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
        target, n, m, l, budget, node_cap = conn.recv()
        try:
            result = search.exact_search(target, n, m, l, budget, node_cap=node_cap), None
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


def _search_in_workers(tasks):
    """Yield ``search.exact_search`` of each ``(target, n, m, l, budget, node_cap)``, in order.

    One forked worker per usable CPU, up to one per task, runs the searches
    one after another: a worker that finishes one gets the next task not
    yet given out.  A search's memory grows with its depth, not its node
    count, so a worker holds little beyond the search it runs.  Fork keeps
    what the parent has set on the modules, and only the search result
    comes back.  An exception raised in a worker is raised here, in its
    task's turn; so is an InternalError for a worker that ended without a
    result, and a fresh worker takes its place.  Closing the generator
    kills every worker.
    """
    if not tasks:
        return
    import multiprocessing  # here, so that the other commands never import it
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    pending = list(range(len(tasks)))[::-1]  # the next task's index last
    workers = []
    running = {}  # connection -> (worker, index of its task)
    done = {}  # index -> report or exception

    def give(conn, worker) -> None:
        if pending:
            i = pending.pop()
            running[conn] = worker, i
            # A worker that has died reads as end-of-file instead.
            with contextlib.suppress(OSError):
                conn.send(tasks[i])

    def start() -> None:
        conn, child = context.Pipe()
        worker = context.Process(target=_search_worker, args=(child,), daemon=True)
        worker.start()
        # The worker now holds the only other end, so conn reads end-of-file
        # once the worker has exited, whether it answered or not.
        child.close()
        workers.append((conn, worker))
        give(conn, worker)

    try:
        for _ in range(min(len(os.sched_getaffinity(0)), len(tasks))):
            start()
        for index in range(len(tasks)):
            while index not in done:
                for conn in wait(list(running)):
                    worker, i = running.pop(conn)
                    done[i] = _reply(conn, worker, tasks[i])
                    if worker.exitcode is None:
                        give(conn, worker)
                    elif pending:
                        start()
            value = done.pop(index)
            if isinstance(value, Exception):
                raise value
            yield value
    finally:
        for conn, worker in workers:
            worker.kill()
            worker.join()
            conn.close()


def report_rows(n_values, m_values, budget, node_cap):
    """Yield one report row per instance (n, m, l) with m <= l <= n - m.

    Instances whose lattice exceeds ``node_cap`` keep their formula columns
    but get SKIPPED search cells.  The other instances have h and g searched
    as two tasks of ``_search_in_workers``, and their rows still come in
    instance order.  Exact cells must satisfy g <= h <= construction count,
    which holds for every instance; a row breaking it raises InternalError.
    The modules the searches run are imported here, before any worker is
    forked, so that a worker imports none.
    """
    from . import constructions, formulas, search
    from .lattice import TruncatedLattice

    instances = [
        (n, m, l) for n in n_values for m in m_values if m <= n - m for l in range(m, n - m + 1)
    ]
    in_cap = [TruncatedLattice(n, m, l).node_count <= node_cap for n, m, l in instances]
    tasks = [
        (target, *inst, budget, node_cap)
        for inst, ok in zip(instances, in_cap) if ok
        for target in ("h", "g")
    ]
    with contextlib.closing(_search_in_workers(tasks)) as results:
        for (n, m, l), searched in zip(instances, in_cap):
            conjectured = formulas.conjectured_min_width(n, m, l)
            g_formula = formulas.per_level_bound_value(n, m, l)
            counts = constructions.method_counts(n, m, l)
            construction = min(counts.values()) if counts else None
            if not searched:
                h_cell, g_cell, flags = "SKIPPED", "SKIPPED", "oversize"
            else:
                rep = search.compare_searches(n, m, l, next(results), next(results))
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
            yield [
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
