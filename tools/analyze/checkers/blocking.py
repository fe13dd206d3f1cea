"""blocking-in-loop: the front end's event-loop thread never blocks.

pcdbd and pcdb_coord share one FrontEnd that runs one poll-driven loop
thread; everything that can take unbounded time (query evaluation,
write application, shard round trips) is handed to the worker pool. A
sleep, filesystem touch, or outbound connect on the loop thread stalls
every connection at once, so the checker walks the static call graph
of src/server/front_end.cc from FrontEnd::RunLoop and flags blocking
primitives reachable on that thread — and any call into the request
handler (`handler_->`), which may block by contract and so must only
run in a worker job.

Work dispatched through a pool's Submit() runs on a pool thread, so
lambda arguments to Submit calls are blanked before extracting callees.
The scan is lexical and intra-file: helpers the loop calls in other
translation units (the Socket wrappers) are nonblocking by design and
covered by their own reviews; the checker's job is to keep obviously
blocking primitives from creeping into the loop's own code paths.

Silent on trees without src/server/front_end.cc.
"""

import re

from ..framework import Finding, checker

FRONT_END_CC = "src/server/front_end.cc"
SEED = "RunLoop"

DEF_RE = re.compile(r"^\S[^=\n]*\bFrontEnd::(\w+)\s*\(", re.MULTILINE)

BLOCKING_RE = re.compile(
    r"\b(sleep_for|sleep_until|usleep|nanosleep|"
    r"std::(?:i|o)?fstream|fopen|freopen|getline|"
    r"TcpConnect|system|popen|WaitIdle|Await)\s*[(<]"
    r"|\bstd::this_thread::sleep\b"
    r"|\bhandler_\s*->")

CALL_RE = re.compile(r"(?<![\w.>:])(\w+)\s*\(")


def _function_bodies(sf):
    """name -> (body text, body start line) for FrontEnd:: definitions."""
    out = {}
    for m in DEF_RE.finditer(sf.pure):
        open_brace = sf.pure.find("{", m.end())
        if open_brace < 0:
            continue
        semi = sf.pure.find(";", m.end())
        if 0 <= semi < open_brace:
            continue  # a declaration, not a definition
        depth = 0
        i = open_brace
        while i < len(sf.pure):
            if sf.pure[i] == "{":
                depth += 1
            elif sf.pure[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        body = sf.pure[open_brace:i + 1]
        line = sf.pure.count("\n", 0, open_brace) + 1
        out.setdefault(m.group(1), (body, line))
    return out


def _blank_submit_args(body):
    """Blanks the argument list of every ...Submit(...) call: those
    lambdas run on a pool thread, not the loop thread."""
    out = list(body)
    for m in re.finditer(r"\bSubmit\s*\(", body):
        depth = 0
        i = m.end() - 1
        while i < len(body):
            if body[i] == "(":
                depth += 1
            elif body[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            if depth >= 1 and body[i] != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


@checker("blocking-in-loop",
         "no sleeps, filesystem I/O, connects, or request-handler calls "
         "reachable on the front end's event-loop thread")
def blocking_in_loop(repo):
    sf = repo.get(FRONT_END_CC)
    if sf is None:
        return
    bodies = _function_bodies(sf)
    if SEED not in bodies:
        yield Finding("blocking-in-loop", FRONT_END_CC, 1,
                      f"FrontEnd::{SEED} not found; the event-loop seed "
                      f"of the reachability walk is gone")
        return

    loop_view = {name: (_blank_submit_args(body), line)
                 for name, (body, line) in bodies.items()}

    reachable = []
    seen = set()
    work = [SEED]
    while work:
        name = work.pop()
        if name in seen or name not in loop_view:
            continue
        seen.add(name)
        reachable.append(name)
        body, _ = loop_view[name]
        for cm in CALL_RE.finditer(body):
            if cm.group(1) in bodies:
                work.append(cm.group(1))

    for name in reachable:
        body, start_line = loop_view[name]
        for m in BLOCKING_RE.finditer(body):
            line = start_line + body.count("\n", 0, m.start())
            what = m.group(0).rstrip("(<").strip()
            yield Finding(
                "blocking-in-loop", FRONT_END_CC, line,
                f"'{what}' in FrontEnd::{name} is reachable from the "
                f"event-loop thread (via {SEED}); blocking there stalls "
                f"every connection — move the work to the worker pool")
