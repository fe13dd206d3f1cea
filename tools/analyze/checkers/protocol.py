"""protocol-consistency: the wire protocol has no half-wired frames.

Ground truth is the FrameType enum in src/server/protocol.h. For every
enumerator the checker requires:

  - a codec arm in src/server/protocol.cc (the frame can be classified
    and framed);
  - client handling in src/server/client.cc (a frame the server can
    send that the client would treat as stream corruption is a bug
    waiting for a version skew);
  - for every Shard* request enumerator: routing to the request
    handler in src/server/front_end.cc, and the coordinator handler's
    answer (the matching Shard*Result) in src/dist/coordinator.cc (the
    SHARD_* opcodes exist for the distributed front end; a coordinator
    that cannot answer one of them would strand the fleet on version
    skew);
  - every EncodeXPayload in protocol.h has a matching DecodeXPayload
    (and vice versa), and both names appear in tests/protocol_test.cc —
    a codec without a round-trip test has no wire contract;
  - no server-opcode byte literal (0x80..0x8F) outside protocol.{h,cc}:
    code elsewhere must spell FrameType::kX, so renumbering stays a
    one-file change.

On trees without src/server/protocol.h (fixtures for other checkers)
the checker is silent.
"""

import re

from ..framework import Finding, checker

PROTO_H = "src/server/protocol.h"
PROTO_CC = "src/server/protocol.cc"
CLIENT_CC = "src/server/client.cc"
FRONT_END_CC = "src/server/front_end.cc"
COORD_CC = "src/dist/coordinator.cc"
TEST_CC = "tests/protocol_test.cc"

ENUM_RE = re.compile(
    r"enum\s+class\s+FrameType[^{]*\{(.*?)\};", re.DOTALL)
ENUMERATOR_RE = re.compile(r"\bk(\w+)\s*=\s*(0x[0-9A-Fa-f]+|\d+)")
CODEC_RE = re.compile(r"\b(Encode|Decode)(\w+)Payload\b")
OPCODE_LITERAL_RE = re.compile(r"\b0x8[0-9A-Fa-f]\b")

# The optional trace-context block on QUERY/INGEST/PUNCTUATE payloads.
# Only useful end to end: declared on the request structs (protocol.h),
# encoded and decoded by the codec (protocol.cc), injected from the
# ambient context by the client (client.cc), and pinned by round-trip
# tests (protocol_test.cc).
TRACE_TOKENS = ("trace_id", "parent_span_id", "trace_sampled")


def _enumerators(sf):
    body = ENUM_RE.search(sf.pure)
    if not body:
        return None, []
    enum_line = sf.pure.count("\n", 0, body.start()) + 1
    out = []
    for m in ENUMERATOR_RE.finditer(body.group(1)):
        line = sf.pure.count("\n", 0, body.start(1) + m.start()) + 1
        out.append((m.group(1), int(m.group(2), 0), line))
    return enum_line, out


@checker("protocol-consistency",
         "every FrameType has codec, client handling, and a round-trip "
         "test; no opcode literals outside protocol.{h,cc}")
def protocol_consistency(repo):
    proto_h = repo.get(PROTO_H)
    if proto_h is None:
        return

    enum_line, enumerators = _enumerators(proto_h)
    if enum_line is None:
        yield Finding("protocol-consistency", PROTO_H, 1,
                      "no 'enum class FrameType' found")
        return

    seen_values = {}
    for name, value, line in enumerators:
        if value in seen_values:
            yield Finding(
                "protocol-consistency", PROTO_H, line,
                f"FrameType::k{name} reuses opcode {value:#04x} already "
                f"assigned to FrameType::k{seen_values[value]}")
        else:
            seen_values[value] = name

    for rel, role in ((PROTO_CC, "codec arm"),
                      (CLIENT_CC, "client handling")):
        sf = repo.get(rel)
        if sf is None:
            yield Finding("protocol-consistency", PROTO_H, enum_line,
                          f"{rel} is missing; every FrameType needs its "
                          f"{role} there")
            continue
        for name, _, line in enumerators:
            if not re.search(r"\bFrameType::k%s\b" % re.escape(name),
                             sf.pure):
                yield Finding(
                    "protocol-consistency", PROTO_H, line,
                    f"FrameType::k{name} has no {role} in {rel}")

    # Distributed opcodes: every Shard* request must reach the request
    # handler through the shared front end, and the coordinator — the
    # component the SHARD_* frames exist for — must answer it with the
    # matching Shard*Result. Silent on trees that predate src/dist
    # (fixtures).
    names = {n for n, _, _ in enumerators}
    shard_requests = [(n, line) for n, value, line in enumerators
                      if n.startswith("Shard") and value < 0x80]
    coord = repo.get(COORD_CC)
    if shard_requests and coord is None:
        yield Finding("protocol-consistency", PROTO_H, shard_requests[0][1],
                      f"FrameType declares Shard* opcodes but {COORD_CC} "
                      f"is missing; the coordinator is their consumer")
    elif coord is not None:
        front_end = repo.get(FRONT_END_CC)
        for name, line in shard_requests:
            if front_end is None or not re.search(
                    r"\bFrameType::k%s\b" % re.escape(name),
                    front_end.pure):
                yield Finding(
                    "protocol-consistency", PROTO_H, line,
                    f"FrameType::k{name} is not routed to the request "
                    f"handler in {FRONT_END_CC}")
            result = name + "Result"
            if result not in names:
                yield Finding(
                    "protocol-consistency", PROTO_H, line,
                    f"FrameType::k{name} has no k{result} reply opcode")
            elif not re.search(r"\bFrameType::k%s\b" % re.escape(result),
                               coord.pure):
                yield Finding(
                    "protocol-consistency", PROTO_H, line,
                    f"FrameType::k{name} has no coordinator answer "
                    f"(FrameType::k{result}) in {COORD_CC}")

    # Encode/Decode pairing and round-trip test coverage.
    codecs = {}
    for m in CODEC_RE.finditer(proto_h.pure):
        line = proto_h.pure.count("\n", 0, m.start()) + 1
        codecs.setdefault(m.group(2), {})[m.group(1)] = line
    tests = repo.get(TEST_CC)
    for payload, arms in sorted(codecs.items()):
        for want in ("Encode", "Decode"):
            if want not in arms:
                have = next(iter(arms))
                yield Finding(
                    "protocol-consistency", PROTO_H, arms[have],
                    f"{have}{payload}Payload has no matching "
                    f"{want}{payload}Payload; codecs come in pairs")
        if tests is None:
            yield Finding(
                "protocol-consistency", PROTO_H,
                next(iter(arms.values())),
                f"{TEST_CC} is missing; {payload} payload codec has no "
                f"round-trip test")
            continue
        for arm, line in sorted(arms.items()):
            fn = f"{arm}{payload}Payload"
            if not re.search(r"\b%s\b" % re.escape(fn), tests.pure):
                yield Finding(
                    "protocol-consistency", PROTO_H, line,
                    f"{fn} is never exercised in {TEST_CC}; every codec "
                    f"arm needs round-trip coverage")

    # Trace-context block: all-or-nothing across the four sites, so the
    # context cannot silently stop riding the wire (a codec that still
    # decodes the block while the client stopped injecting it would
    # strand every shard span parentless). Silent on trees that predate
    # the trace block (fixtures for other aspects of this checker).
    trace_sites = ((PROTO_H, proto_h, "request structs"),
                   (PROTO_CC, repo.get(PROTO_CC), "codec"),
                   (CLIENT_CC, repo.get(CLIENT_CC), "client injection"),
                   (TEST_CC, tests, "round-trip tests"))
    if any(sf is not None and re.search(r"\b%s\b" % token, sf.pure)
           for _, sf, _ in trace_sites for token in TRACE_TOKENS):
        for rel, sf, role in trace_sites:
            if sf is None:
                continue  # absence of the file is reported above
            for token in TRACE_TOKENS:
                if not re.search(r"\b%s\b" % token, sf.pure):
                    yield Finding(
                        "protocol-consistency", rel, 1,
                        f"trace-context token '{token}' is missing from "
                        f"{rel} ({role}); the trace block is wired end "
                        f"to end or not at all")

    # Opcode byte literals outside the protocol implementation.
    for sf in repo.cpp_files():
        if sf.rel in (PROTO_H, PROTO_CC):
            continue
        for lineno, code in enumerate(sf.pure_lines, start=1):
            m = OPCODE_LITERAL_RE.search(code)
            if m:
                yield Finding(
                    "protocol-consistency", sf.rel, lineno,
                    f"server-opcode literal {m.group(0)} outside "
                    f"protocol.{{h,cc}}; spell it FrameType::kX so "
                    f"renumbering stays a one-file change")
