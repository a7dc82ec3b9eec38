"""The rows of ``boolcut report``: each instance's h and g, searched in forked workers.

Only ``cli.cmd_report`` imports this module, so that no other command
compiles it where no bytecode is written.  The workers are ``os.fork``
children on plain pipes (see ``report_rows``), so that ``report`` loads
neither ``multiprocessing`` nor, unless a search raises, ``pickle``.
"""

from __future__ import annotations

import contextlib
import gc
import marshal
import os
import select
import signal
import threading

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


def _cell(status, value, lower, upper) -> str:
    """The CSV cell of one search, given the four numbers its worker sent back."""
    if status == "EXACT":
        return str(value)
    if status == "BOUNDS":
        return f"{lower}..{upper}"
    return "UNKNOWN"


def _flag(label: str, a, b) -> str:
    """``label`` with ``~`` made ``=`` or ``!=`` as a and b compare, or ``?`` if one is None."""
    if a is None or b is None:
        return label.replace("~", "?")
    return label.replace("~", "=" if a == b else "!=")


def _send(fd: int, message) -> None:
    """Write ``message`` to ``fd`` in ``marshal``, after its length in 4 bytes."""
    data = marshal.dumps(message)
    data = len(data).to_bytes(4, "little") + data
    while data:
        data = data[os.write(fd, data):]


def _recv(fd: int):
    """The next message that ``_send`` wrote to ``fd``, or None if it ends before one.

    Parent and worker each wait for the other's answer before they send
    again, so a read never runs into a second message.
    """
    data = b""
    while len(data) < 4 or len(data) < 4 + int.from_bytes(data[:4], "little"):
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return None
        data += chunk
    return marshal.loads(data[4:])


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker, shown as its cause."""


def _exit_with_parent(lifeline: int) -> None:
    # Only the parent holds the write end, and never writes to it.
    os.read(lifeline, 1)
    os._exit(1)


def _serve(tasks: int, answers: int, lifeline: int, budget, node_cap) -> None:
    """Run each ``exact_search`` whose arguments come on ``tasks``, in a forked worker.

    Answers each on ``answers`` with the ``(status, value, lower, upper)``
    of its result, or with the bytes that ``pickle`` makes of ``(exception,
    traceback text)`` when the search raises, and waits for the next; the
    parent kills the worker when it needs no more.  A thread ends the
    worker once end-of-file on ``lifeline`` shows that the parent has ended,
    however it ended, so that no search outlives ``report``.  Only a failed
    search imports modules (``pickle`` and ``traceback``): the parent has
    imported the rest before it forked.
    """
    from . import search

    # The parent owns Ctrl-C and stops its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, args=(lifeline,), daemon=True).start()
    while (task := _recv(tasks)) is not None:
        target, n, m, l, lower = task
        try:
            result = search.exact_search(
                target, n, m, l, budget, node_cap=node_cap, lower=lower
            )
            reply = result.status.name, result.value, result.lower, result.upper
        except Exception as exc:
            import pickle
            import traceback

            reply = pickle.dumps((exc, traceback.format_exc()))
        _send(answers, reply)


def _row(n, m, l, h=None, g=None):
    """The report row of (n, m, l), given its h and g searches' replies, or none for SKIPPED cells.

    A reply is ``(status, value, lower, upper)`` or the exception the search
    raised, which raises here, h's before g's.  Exact cells must satisfy
    g <= h <= construction count, which holds for every instance; a row
    breaking it raises InternalError.
    """
    from . import constructions, formulas

    conjectured = formulas.conjectured_min_width(n, m, l)
    g_formula = formulas.per_level_bound_value(n, m, l)
    counts = constructions.method_counts(n, m, l)
    construction = min(counts.values()) if counts else None
    if h is None:
        h_cell, g_cell, flags = "SKIPPED", "SKIPPED", "oversize"
    else:
        for reply in (h, g):
            if isinstance(reply, Exception):
                raise reply
        h_cell, g_cell = _cell(*h), _cell(*g)
        h, g = h[1], g[1]
        if h is not None and (
            construction is not None and h > construction
            or g is not None and g > h
        ):
            raise InternalError(
                f"g <= h <= construction fails at n={n} m={m} l={l}: "
                f"g={g} h={h} construction={construction}"
            )
        flags = ";".join(
            [
                _flag("h~conj", h, conjectured),
                _flag("g~h", g, h),
                _flag("constr~conj", construction, conjectured),
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
    The others have h and g searched by ``search.exact_search`` in workers
    forked with ``os.fork``, one per usable CPU, up to one per search; a
    worker that finishes a search gets the next one that is ready.  The
    searches go out largest lattice first, ties in instance order, so that
    the longest ones do not start last (longest processing time first,
    Graham, 1969), and the first row comes last of all.  An instance's h
    is ready once its g has answered, and starts at g's ``lower``, a lower
    bound on h too (see ``search.exact_min_width``), or at 1 if g failed.

    Each worker reads its tasks, ``(target, n, m, l, lower)``, on a pipe of
    its own and answers each on another (see ``_serve``), both in
    ``marshal``; the budget and cap stay as the fork left them.  Only the
    four numbers of a row's cells come back, so no ``SearchResult`` and no
    witness is kept, and the parent loads ``pickle`` only to read the
    exception of a search that raised.  A row breaking ``_row``'s check, an
    exception raised in a worker and a worker that ended without an answer
    (whose place a fresh worker takes) raise in the row's turn; an idle
    worker that has ended is replaced before a task goes out, so that no
    task is lost to it.  Fork
    keeps what the parent has set on the modules, which are imported
    here, before any worker is forked, so that a worker imports none.  A
    worker holds little beyond the search it runs, whose memory grows
    with its depth.  Closing the generator kills and reaps every worker
    and closes every pipe.
    """
    from bisect import insort

    from . import constructions, formulas, search  # for the workers and ``_row``
    from .lattice import TruncatedLattice

    instances = [
        (n, m, l) for n in n_values for m in m_values if m <= n - m for l in range(m, n - m + 1)
    ]
    sizes = [TruncatedLattice(n, m, l).node_count for n, m, l in instances]
    # (-size, index, target, lower), ascending: the first goes out next.
    ready = sorted((-size, k, "g", 1) for k, size in enumerate(sizes) if size <= node_cap)
    most = min(len(os.sched_getaffinity(0)), 2 * len(ready))
    workers = {}  # answer fd -> (pid, task fd), for each worker not yet reaped
    idle = []  # answer fds of workers with no search
    running = {}  # answer fd -> (index, task)
    searched_g = {}  # index -> g's reply, until h's is in
    rows = {}  # index -> row or the exception to raise in its turn
    # Every worker reads end-of-file on ``lifeline`` once the parent, the
    # only holder of ``keep_alive``, has ended.
    lifeline, keep_alive = os.pipe()

    def start() -> int:
        task_r, task_w = os.pipe()
        answer_r, answer_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                # The parent's ends, keep_alive above all, stay with the parent.
                for fd in (keep_alive, task_w, answer_r, *workers):
                    os.close(fd)
                for _, fd in workers.values():
                    os.close(fd)
                _serve(task_r, answer_w, lifeline, budget, node_cap)
            except BaseException:
                # Such as an exception that pickle cannot send: the parent
                # sees only that the worker ended, so the traceback goes here.
                import traceback

                traceback.print_exc()
            finally:
                os._exit(1)
        # The worker now holds the only other ends, so answer_r reads
        # end-of-file once the worker has exited, whether it answered or not,
        # and a write to task_w fails.
        os.close(task_r)
        os.close(answer_w)
        workers[answer_r] = pid, task_w
        return answer_r

    def close(fd: int) -> int:
        """Close the pipes of the worker that answers on ``fd``, and return its pid."""
        pid, task_w = workers.pop(fd)
        os.close(fd)
        os.close(task_w)
        return pid

    def reap(fd: int) -> int:
        """Close the pipes of the worker that answers on ``fd``, and return its exit code."""
        return os.waitstatus_to_exitcode(os.waitpid(close(fd), 0)[1])

    def dispatch() -> None:
        while ready and (idle or len(running) < most):
            if idle:
                fd = idle.pop()
                # An idle worker that has ended since it answered, killed
                # from outside say, is reaped, and a fresh one takes the task.
                if os.waitpid(workers[fd][0], os.WNOHANG)[0]:
                    close(fd)
                    fd = start()
            else:
                fd = start()
            _, k, target, lower = ready.pop(0)
            task = (target, *instances[k], lower)
            running[fd] = k, task
            # A worker that has died reads as end-of-file instead.
            with contextlib.suppress(OSError):
                _send(workers[fd][1], task)

    def receive(fd: int, task):
        """The worker's reply on ``fd`` to ``task``, or the exception to raise in its place."""
        reply = _recv(fd)
        if reply is None:
            target, n, m, l, _ = task
            return InternalError(
                f"the {target} search worker for n={n} m={m} l={l} exited with code "
                f"{reap(fd)} and sent no result"
            )
        idle.append(fd)
        if isinstance(reply, bytes):
            import pickle

            reply, text = pickle.loads(reply)
            reply.__cause__ = _WorkerTraceback(text)
        return reply

    try:
        # The workers' collections then leave the objects they share with
        # the parent alone, so the pages that hold them stay shared.
        gc.freeze()
        dispatch()
        for index, size in enumerate(sizes):
            if size > node_cap:
                yield _row(*instances[index])
                continue
            while index not in rows:
                poll = select.poll()
                for fd in running:
                    poll.register(fd, select.POLLIN)
                for fd, _ in poll.poll():
                    k, task = running.pop(fd)
                    reply = receive(fd, task)
                    if task[0] == "g":
                        searched_g[k] = reply
                        lower = 1 if isinstance(reply, Exception) else reply[2]
                        insort(ready, (-sizes[k], k, "h", lower))
                    else:  # h goes out only once g has answered
                        try:
                            rows[k] = _row(*instances[k], reply, searched_g.pop(k))
                        except Exception as exc:
                            rows[k] = exc
                dispatch()
            row = rows.pop(index)
            if isinstance(row, Exception):
                raise row
            yield row
    finally:
        for pid, _ in workers.values():
            os.kill(pid, signal.SIGKILL)
        for fd in list(workers):
            reap(fd)
        os.close(lifeline)
        os.close(keep_alive)
        gc.unfreeze()
