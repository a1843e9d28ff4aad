#!/usr/bin/env python3
"""pccheck-lint: persistence-ordering and concurrency-hygiene checks.

Fast, dependency-free (regex-based, no compiler needed) linter for the
invariants the PCcheck commit protocol relies on but no compiler
enforces:

  persist-fence-publish    A pointer-record publish must be ordered
                           after the slot data is durable: the nearest
                           preceding persist_slot_range()/msync() in
                           the same function must be separated from
                           publish_pointer() by a fence() call.
  naked-mutex              std::mutex / std::lock_guard / friends are
                           banned outside util/annotations.h and the
                           model-checker runtime; use the capability-
                           annotated Mutex/MutexLock/CondVar wrappers
                           so Clang thread-safety analysis sees every
                           locking site.
  raw-atomic-in-core       std::atomic is banned in src/core/ and in
                           files carrying the "pccheck-lint:
                           atomic-seam" marker; use Atomic<T> from
                           util/sync.h so the PCCHECK_MC build can
                           swap in the model checker's instrumented
                           shim.
  relaxed-justification    Every std::memory_order_relaxed use needs a
                           "relaxed:" justification comment on the same
                           line or within the 3 preceding lines.
  trace-span-under-lock    In commit-hot files, PCCHECK_TRACE_SPAN must
                           not be opened while a MutexLock is held
                           (span bookkeeping inside the critical
                           section lengthens the serialized region).
  check-addr-cas-only      CHECK_ADDR is only ever advanced by the
                           Listing-1 CAS; a plain .store() needs a
                           "pre-concurrency:" comment within the 5
                           preceding lines (constructor recovery path).
  replica-publish-ordering In files that drive the peer-replication
                           tier (they call await_quorum() or
                           advance_watermark()), the durable-publish
                           watermark may only advance after the quorum
                           ack was recorded: an advance_watermark()
                           call needs a preceding await_quorum() or
                           record_ack() in the same function, or a
                           "quorum-acked:" justification comment within
                           the 5 preceding lines. Symmetrically, the
                           commit CAS (a .commit() call) must sit
                           behind await_quorum() so no CHECK_ADDR
                           publish ever depends on an un-acked replica.
  delta-seal-before-manifest
                           Sealing a delta frame header is what makes
                           the frame reachable by replay — the chain's
                           manifest step. A seal_frame() call site must
                           therefore be ordered behind the fence() that
                           made the frame payload durable: the nearest
                           preceding fence() in the same function, or a
                           "payload-durable:" justification comment
                           within the 5 preceding lines when the
                           ordering is delegated to the caller.
  segment-seal-fence-before-publish
                           Publishing a segment header (the seal /
                           recycle step of the service's coalescer
                           ring, docs/SERVICE.md) is what makes the
                           segment's manifest or a rewound chain
                           reachable by scans. A publish_segment_header
                           call site must therefore be ordered behind
                           the fence() that made the manifest / dead-
                           tail bytes durable: the nearest preceding
                           fence() in the same function, or a
                           "segment-durable:" justification comment
                           within the 5 preceding lines when the
                           ordering is delegated to the caller.
  storage-decorator-forwards-hooks
                           A StorageDevice decorator (a subclass
                           forwarding its ops to a wrapped inner_
                           device) must forward set_observe_hook() to
                           the leaf: a decorator that swallows the
                           hook silently detaches the installed
                           observer (crash-op indexing, psan
                           plumbing) depending on stacking order.
                           Leaf devices are exempt; genuine
                           exceptions carry a "pccheck-lint:
                           observe-hook" marker in the class body.
  storage-status-checked   In src/core/, a call to a status-returning
                           storage op (write/persist/fence/write_slot/
                           persist_slot_range/publish_pointer/...) must
                           not discard its StorageStatus: wrap it in
                           PCCHECK_MUST(...), branch on it, or hand it
                           to the retry helper. A silently dropped
                           transient error defeats graceful
                           degradation.
  read-status-checked      Reads are fallible too (docs/RECOVERY.md):
                           in the recovery-critical trees (src/core/,
                           src/scrub/, src/remote/) a bare-statement
                           call to read()/read_slot() that discards
                           its StorageStatus silently treats whatever
                           landed in the buffer as the stored bytes —
                           latent corruption or a dead device becomes
                           garbage state instead of an unreadable
                           verdict. Other files opt in with a
                           "pccheck-lint: read-status" marker.

Suppressions share one syntax with pccheck-tidy (parsed by
tools/pccheck_tidy/suppress.py):

  // pccheck-lint: disable=<rule>[,<rule>] -- <justification>

placed on the offending line or the comment line(s) directly above
it. The justification after ``--`` is mandatory: a suppression
without one suppresses nothing and is itself reported as a
``bad-suppression`` finding.

Usage:
  tools/pccheck_lint.py [--rule RULE] [paths...]

Paths default to src/. Directories are walked for *.h/*.cc files.
Exit status is 0 when clean, 1 when any finding is reported.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import Callable, List, NamedTuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from pccheck_tidy.suppress import (  # noqa: E402
    BAD_SUPPRESSION, filter_findings, parse_suppressions)

# Files where the commit fast path lives; the trace-span rule applies
# only here. Fixture/test files opt in with a "pccheck-lint: hot-path"
# marker comment anywhere in the file.
HOT_PATH_BASENAMES = {
    "concurrent_commit.cc",
    "slot_store.cc",
    "persist_engine.cc",
}
HOT_PATH_MARKER = "pccheck-lint: hot-path"

# Raw std primitives are allowed in the annotation shims and in the
# model-checker runtime (src/mc/scheduler.* IS the substrate that the
# mc::Mutex shim serializes onto, so it cannot use the shim itself).
NAKED_MUTEX_ALLOWLIST_SUFFIXES = (
    os.path.join("util", "annotations.h"),
    os.path.join("mc", "scheduler.h"),
    os.path.join("mc", "scheduler.cc"),
)

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")


class Finding(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str


def is_comment_line(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith("//") or stripped.startswith("*") or \
        stripped.startswith("/*")


def code_of(line: str) -> str:
    """Strip a trailing // comment (best-effort; ignores strings)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


# --------------------------------------------------------------------------
# naked-mutex


NAKED_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock"
    r"|condition_variable(?:_any)?)\b")


def rule_naked_mutex(path: str, lines: List[str]) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    if any(norm.endswith(sfx.replace(os.sep, "/"))
           for sfx in NAKED_MUTEX_ALLOWLIST_SUFFIXES):
        return []
    findings = []
    for i, line in enumerate(lines):
        if is_comment_line(line):
            continue
        match = NAKED_RE.search(code_of(line))
        if match:
            findings.append(Finding(
                path, i + 1, "naked-mutex",
                f"raw std::{match.group(1)} outside util/annotations.h; "
                "use the annotated Mutex/MutexLock/CondVar so thread-"
                "safety analysis covers this site"))
    return findings


# --------------------------------------------------------------------------
# raw-atomic-in-core


# The commit algorithm's atomics must go through pccheck::Atomic
# (util/sync.h) so the PCCHECK_MC build can swap in the instrumented
# mc::Atomic shim; a raw std::atomic member silently escapes the model
# checker. Applies to src/core/ plus any file carrying the seam
# marker (the lock-free queue headers in src/concurrent/ opt in).
RAW_ATOMIC_RE = re.compile(r"std::(atomic\s*<|atomic_flag\b)")
ATOMIC_SEAM_MARKER = "pccheck-lint: atomic-seam"
# util/sync.h is the seam itself: it defines Atomic<T> AS std::atomic.
RAW_ATOMIC_ALLOWLIST_SUFFIXES = (os.path.join("util", "sync.h"),)


def rule_raw_atomic_in_core(path: str, lines: List[str]) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    text = "\n".join(lines)
    if "src/core/" not in norm and ATOMIC_SEAM_MARKER not in text:
        return []
    if any(norm.endswith(sfx.replace(os.sep, "/"))
           for sfx in RAW_ATOMIC_ALLOWLIST_SUFFIXES):
        return []
    findings = []
    for i, line in enumerate(lines):
        if is_comment_line(line):
            continue
        if RAW_ATOMIC_RE.search(code_of(line)):
            findings.append(Finding(
                path, i + 1, "raw-atomic-in-core",
                "raw std::atomic in commit-algorithm code; use "
                "Atomic<T> from util/sync.h so the PCCHECK_MC build "
                "can route this operation through the model checker's "
                "instrumented shim"))
    return findings


# --------------------------------------------------------------------------
# relaxed-justification


RELAXED_RE = re.compile(r"\bstd::memory_order_relaxed\b")
RELAXED_WINDOW = 3  # lines above that may carry the justification


def rule_relaxed_justification(path: str, lines: List[str]) -> List[Finding]:
    findings = []
    for i, line in enumerate(lines):
        if is_comment_line(line) or not RELAXED_RE.search(code_of(line)):
            continue  # no use, or only mentioned in a comment
        window = lines[max(0, i - RELAXED_WINDOW):i + 1]
        if not any("relaxed:" in w for w in window):
            findings.append(Finding(
                path, i + 1, "relaxed-justification",
                "std::memory_order_relaxed without a nearby "
                "\"relaxed:\" justification comment (same line or "
                f"≤{RELAXED_WINDOW} lines above)"))
    return findings


# --------------------------------------------------------------------------
# trace-span-under-lock


LOCK_ACQ_RE = re.compile(r"\bMutexLock\s+\w+\s*[({]")
TRACE_SPAN_RE = re.compile(r"\bPCCHECK_TRACE_SPAN\s*\(")


def rule_trace_span_under_lock(path: str, lines: List[str]) -> List[Finding]:
    basename = os.path.basename(path)
    text = "\n".join(lines)
    if basename not in HOT_PATH_BASENAMES and HOT_PATH_MARKER not in text:
        return []
    findings = []
    depth = 0
    lock_depths: List[int] = []  # brace depth at which each lock lives
    for i, line in enumerate(lines):
        if is_comment_line(line):
            continue
        code = code_of(line)
        # Scope exits first: a closing brace pops locks opened at the
        # now-dead depth.
        for ch in code:
            if ch == "}":
                depth -= 1
                while lock_depths and lock_depths[-1] > depth:
                    lock_depths.pop()
            elif ch == "{":
                depth += 1
        if LOCK_ACQ_RE.search(code):
            lock_depths.append(depth)
        if TRACE_SPAN_RE.search(code) and lock_depths:
            findings.append(Finding(
                path, i + 1, "trace-span-under-lock",
                "PCCHECK_TRACE_SPAN opened while a MutexLock is held "
                f"(acquired at brace depth {lock_depths[-1]}); move the "
                "span outside the critical section on the commit path"))
    return findings


# --------------------------------------------------------------------------
# check-addr-cas-only


CHECK_ADDR_STORE_RE = re.compile(r"\bcheck_addr_\s*(?:\.\s*store\s*\(|=[^=])")
CHECK_ADDR_WINDOW = 5
CHECK_ADDR_MARKER = "pre-concurrency:"


def rule_check_addr_cas_only(path: str, lines: List[str]) -> List[Finding]:
    findings = []
    for i, line in enumerate(lines):
        if is_comment_line(line):
            continue
        if not CHECK_ADDR_STORE_RE.search(code_of(line)):
            continue
        window = lines[max(0, i - CHECK_ADDR_WINDOW):i + 1]
        if not any(CHECK_ADDR_MARKER in w for w in window):
            findings.append(Finding(
                path, i + 1, "check-addr-cas-only",
                "plain store/assignment to check_addr_: the commit "
                "protocol only advances CHECK_ADDR via "
                "compare_exchange; annotate genuinely single-threaded "
                f"init paths with a \"{CHECK_ADDR_MARKER}\" comment "
                f"within {CHECK_ADDR_WINDOW} lines"))
    return findings


# --------------------------------------------------------------------------
# storage-status-checked


# Methods on StorageDevice / SlotStore / SimGpu that return a
# [[nodiscard]] StorageStatus (or a PersistResult carrying one).
STATUS_METHODS = (
    "write", "persist", "fence", "write_slot", "persist_slot_range",
    "publish_pointer", "kernel_copy_to_storage",
    "direct_copy_to_storage",
)
STORAGE_STATUS_MARKER = "pccheck-lint: storage-status"

# A bare statement whose first token chain is `recv.method(` or
# `recv->method(`, optionally through one accessor hop such as
# `store.device().fence(`. Anything prefixed (PCCHECK_MUST, `=`,
# `return`, `if (`, a declaration, ...) will not match the anchor.
BARE_STATUS_CALL_RE = re.compile(
    r"^\s*\w+(?:\.|->)(?:\w+\(\)(?:\.|->))?("
    + "|".join(STATUS_METHODS) + r")\s*\(")


def starts_statement(lines: List[str], i: int) -> bool:
    """True when line i begins a statement (it is not a continuation
    of a wrapped call or assignment from the preceding line)."""
    for j in range(i - 1, -1, -1):
        prev = code_of(lines[j]).rstrip()
        if not prev or is_comment_line(lines[j]):
            continue
        return prev.endswith((";", "{", "}", ":"))
    return True


def rule_storage_status_checked(path: str,
                                lines: List[str]) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    text = "\n".join(lines)
    if "src/core/" not in norm and STORAGE_STATUS_MARKER not in text:
        return []
    findings = []
    for i, line in enumerate(lines):
        if is_comment_line(line):
            continue
        match = BARE_STATUS_CALL_RE.match(code_of(line))
        if match and starts_statement(lines, i):
            findings.append(Finding(
                path, i + 1, "storage-status-checked",
                f"{match.group(1)}() returns a StorageStatus that this "
                "bare statement discards; wrap it in PCCHECK_MUST(...), "
                "branch on the status, or route it through "
                "retry_storage_op() so transient media errors degrade "
                "gracefully instead of vanishing"))
    return findings


# --------------------------------------------------------------------------
# read-status-checked


# Fallible-read methods returning a [[nodiscard]] StorageStatus.
# Longest-first so the alternation cannot stop at the `read` prefix.
READ_STATUS_METHODS = ("read_slot", "read")
READ_STATUS_MARKER = "pccheck-lint: read-status"
# Recovery-critical trees where a dropped read status turns latent
# corruption into silent use of garbage bytes.
READ_STATUS_DIRS = ("src/core/", "src/scrub/", "src/remote/")

BARE_READ_CALL_RE = re.compile(
    r"^\s*\w+(?:\.|->)(?:\w+\(\)(?:\.|->))?("
    + "|".join(READ_STATUS_METHODS) + r")\s*\(")


def rule_read_status_checked(path: str, lines: List[str]) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    text = "\n".join(lines)
    if not any(d in norm for d in READ_STATUS_DIRS) and \
            READ_STATUS_MARKER not in text:
        return []
    findings = []
    for i, line in enumerate(lines):
        if is_comment_line(line):
            continue
        match = BARE_READ_CALL_RE.match(code_of(line))
        if match and starts_statement(lines, i):
            findings.append(Finding(
                path, i + 1, "read-status-checked",
                f"{match.group(1)}() returns a StorageStatus that this "
                "bare statement discards; a read can fail (bit rot, "
                "truncated image, dead device) and the buffer then "
                "holds garbage — wrap it in PCCHECK_MUST(...) or "
                "branch on the status so the caller can classify the "
                "source unreadable and fall back"))
    return findings


# --------------------------------------------------------------------------
# ordering rules: persist-fence-publish, replica-publish-ordering,
# delta-seal-before-manifest, segment-seal-fence-before-publish
#
# Each is "this publish call must be preceded, in the same function, by
# a fenced or acked predecessor": one backward scan, one table.


class Ordering(NamedTuple):
    """One publish call and the predecessor it must sit behind."""
    call: re.Pattern
    # A code line matching any of these, found first, satisfies it.
    needs: List[re.Pattern]
    # None: the predecessor is mandatory. Otherwise only reaching this
    # op (e.g. an unfenced persist) before a predecessor is a finding.
    hazard: re.Pattern | None
    # {op} / {line} name the hazard's call and line.
    message: str


class OrderingRule(NamedTuple):
    checks: List[Ordering]  # the first check whose call matches wins
    marker: str | None      # justification within MARKER_WINDOW lines
    gate: List[re.Pattern]  # if set, only files calling one of these


# Call sites only: `[.>]` anchors a method call and `=`/`(`/`return`
# a free call, so declarations and definitions
# (ReplicationEngine::advance_watermark, DeltaLog::seal_frame) never
# match.
PUBLISH_CALL_RE = re.compile(r"[.>]\s*publish_pointer\s*\(")
PERSIST_RE = re.compile(r"\b(persist_slot_range|msync)\s*\(")
FENCE_RE = re.compile(r"\bfence\s*\(\s*\)")
AWAIT_QUORUM_CALL_RE = re.compile(r"[.>]\s*await_quorum\s*\(")
ADVANCE_WATERMARK_CALL_RE = re.compile(r"[.>]\s*advance_watermark\s*\(")
COMMIT_CALL_RE = re.compile(r"[.>]\s*commit\s*\(")
RECORD_ACK_RE = re.compile(r"\brecord_ack\s*\(")
SEAL_CALL_RE = re.compile(r"(?:[.>=(]|\breturn\b)\s*seal_frame\s*\(")
SEGMENT_PUBLISH_CALL_RE = re.compile(
    r"(?:[.>=(]|\breturn\b)\s*publish_segment_header\s*\(")
QUORUM_MARKER = "quorum-acked:"
PAYLOAD_DURABLE_MARKER = "payload-durable:"
SEGMENT_DURABLE_MARKER = "segment-durable:"
MARKER_WINDOW = 5

ORDERING_RULES: dict[str, OrderingRule] = {
    "persist-fence-publish": OrderingRule(
        checks=[Ordering(
            PUBLISH_CALL_RE, [FENCE_RE], PERSIST_RE,
            "publish_pointer() reachable from {op}() at line {line} "
            "with no fence() in between: the pointer record could "
            "become durable before the slot data")],
        marker=None, gate=[]),
    # The durable-publish watermark may only name a counter whose
    # replica ack was recorded, and the commit CAS sits behind the
    # quorum wait, in files that drive the replication tier.
    "replica-publish-ordering": OrderingRule(
        checks=[
            Ordering(
                ADVANCE_WATERMARK_CALL_RE,
                [AWAIT_QUORUM_CALL_RE, RECORD_ACK_RE], None,
                "advance_watermark() with no preceding "
                "await_quorum()/record_ack() in this function: the "
                "durable-publish watermark must never name a counter "
                "whose replica ack was not recorded; justify delegated "
                f"ordering with a \"{QUORUM_MARKER}\" comment within "
                f"{MARKER_WINDOW} lines"),
            Ordering(
                COMMIT_CALL_RE, [AWAIT_QUORUM_CALL_RE], None,
                "commit() in a replication-driving function with no "
                "preceding await_quorum(): the CHECK_ADDR CAS must not "
                "depend on an un-acked replica — gate the commit on the "
                "quorum (a miss still commits, degraded)"),
        ],
        marker=QUORUM_MARKER,
        gate=[AWAIT_QUORUM_CALL_RE, ADVANCE_WATERMARK_CALL_RE]),
    "delta-seal-before-manifest": OrderingRule(
        checks=[Ordering(
            SEAL_CALL_RE, [FENCE_RE], None,
            "seal_frame() with no preceding fence() in this function: "
            "the seal makes the frame reachable by replay, so the "
            "payload must be durable first — fence before sealing, or "
            "justify delegated ordering with a "
            f"\"{PAYLOAD_DURABLE_MARKER}\" comment within "
            f"{MARKER_WINDOW} lines")],
        marker=PAYLOAD_DURABLE_MARKER, gate=[]),
    "segment-seal-fence-before-publish": OrderingRule(
        checks=[Ordering(
            SEGMENT_PUBLISH_CALL_RE, [FENCE_RE], None,
            "publish_segment_header() with no preceding fence() in "
            "this function: the header publish makes the manifest (or "
            "rewound chain) reachable by scans, so those bytes must be "
            "durable first — fence before publishing, or justify "
            f"delegated ordering with a \"{SEGMENT_DURABLE_MARKER}\" "
            f"comment within {MARKER_WINDOW} lines")],
        marker=SEGMENT_DURABLE_MARKER, gate=[]),
}


def ordering_violation(lines: List[str], i: int,
                       check: Ordering) -> int | None:
    """Walk back from line i to the start of the enclosing function (a
    column-0 line opening a block). None when a predecessor comes
    first; else the hazard's line, or i for a missing mandatory one."""
    for j in range(i - 1, -1, -1):
        if is_comment_line(lines[j]):
            continue
        code = code_of(lines[j])
        if any(p.search(code) for p in check.needs):
            return None
        if check.hazard is not None and check.hazard.search(code):
            return j
        if code and not code[0].isspace() and code.rstrip().endswith("{"):
            break
    return None if check.hazard is not None else i


def lint_ordering(rule_id: str, path: str,
                  lines: List[str]) -> List[Finding]:
    rule = ORDERING_RULES[rule_id]
    codes = [None if is_comment_line(line) else code_of(line)
             for line in lines]
    if rule.gate and not any(
            code is not None and any(g.search(code) for g in rule.gate)
            for code in codes):
        return []
    findings = []
    for i, code in enumerate(codes):
        if code is None:
            continue
        check = next((c for c in rule.checks if c.call.search(code)), None)
        if check is None:
            continue
        window = lines[max(0, i - MARKER_WINDOW):i + 1]
        if rule.marker is not None and any(rule.marker in w for w in window):
            continue
        j = ordering_violation(lines, i, check)
        if j is None:
            continue
        hazard = check.hazard.search(code_of(lines[j])) \
            if check.hazard is not None else None
        findings.append(Finding(path, i + 1, rule_id, check.message.format(
            op=hazard.group(1) if hazard else "", line=j + 1)))
    return findings


# --------------------------------------------------------------------------
# storage-decorator-forwards-hooks


# A StorageDevice decorator (a subclass that forwards its ops to a
# wrapped `inner_` device) must forward set_observe_hook() to the leaf:
# a decorator that swallows the hook silently detaches whatever
# observer the harness installed (crash-op indexing, psan plumbing)
# depending on stacking order. Leaf devices (no inner_) are exempt —
# the base-class default applies. Suppress with a
# "pccheck-lint: observe-hook" marker inside the class body.
STORAGE_SUBCLASS_RE = re.compile(
    r"\bclass\s+(\w+)[^;{]*:\s*(?:public\s+)?StorageDevice\b")
INNER_MEMBER_RE = re.compile(r"\binner_\s*(?:->|;|\()")
HOOK_FORWARD_RE = re.compile(r"\binner_\s*->\s*set_observe_hook\s*\(")
OBSERVE_HOOK_MARKER = "pccheck-lint: observe-hook"


def class_body_end(lines: List[str], start: int) -> int:
    """Index one past the line closing the class opened at @p start
    (brace matching; best-effort on unbalanced input)."""
    depth = 0
    opened = False
    for i in range(start, len(lines)):
        for ch in code_of(lines[i]):
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
                if opened and depth == 0:
                    return i + 1
    return len(lines)


def rule_storage_decorator_forwards_hooks(path: str,
                                          lines: List[str]) -> List[Finding]:
    findings = []
    for i, line in enumerate(lines):
        if is_comment_line(line):
            continue
        match = STORAGE_SUBCLASS_RE.search(code_of(line))
        if not match:
            continue
        end = class_body_end(lines, i)
        body = lines[i:end]
        if any(OBSERVE_HOOK_MARKER in b for b in body):
            continue
        # Decorator detection: the class owns/forwards to an inner_
        # device. Leaf devices have no inner_ and are exempt.
        code_body = [code_of(b) for b in body if not is_comment_line(b)]
        if not any(INNER_MEMBER_RE.search(b) for b in code_body):
            continue
        if not any(HOOK_FORWARD_RE.search(b) for b in code_body):
            findings.append(Finding(
                path, i + 1, "storage-decorator-forwards-hooks",
                f"StorageDevice decorator {match.group(1)} does not "
                "forward set_observe_hook() to its wrapped device: an "
                "observer installed on the stack would silently detach "
                "depending on decorator order — add an override that "
                "calls inner_->set_observe_hook(std::move(hook)), or "
                f"mark a genuine exception with \"{OBSERVE_HOOK_MARKER}\""))
    return findings


# --------------------------------------------------------------------------


RULES: dict[str, Callable[[str, List[str]], List[Finding]]] = {
    **{rule_id: functools.partial(lint_ordering, rule_id)
       for rule_id in ORDERING_RULES},
    "naked-mutex": rule_naked_mutex,
    "raw-atomic-in-core": rule_raw_atomic_in_core,
    "relaxed-justification": rule_relaxed_justification,
    "trace-span-under-lock": rule_trace_span_under_lock,
    "check-addr-cas-only": rule_check_addr_cas_only,
    "storage-status-checked": rule_storage_status_checked,
    "read-status-checked": rule_read_status_checked,
    "storage-decorator-forwards-hooks":
        rule_storage_decorator_forwards_hooks,
}


def collect_files(paths: List[str]) -> List[str]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(path):
            files.append(path)
        else:
            print(f"pccheck-lint: no such path: {path}", file=sys.stderr)
            sys.exit(2)
    return files


def lint_file(path: str, rules: List[str]) -> List[Finding]:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    findings = []
    for rule in rules:
        findings.extend(RULES[rule](path, lines))
    # Unified suppression syntax, shared with pccheck-tidy: a matching
    # "// pccheck-lint: disable=<rule> -- why" silences the finding; a
    # directive without a justification is itself a finding.
    supp = parse_suppressions(lines, tool="pccheck-lint")
    findings, _dropped = filter_findings(
        findings, supp, line_of=lambda f: f.line,
        check_of=lambda f: f.rule)
    for bad in supp.malformed:
        findings.append(Finding(path, bad.line, BAD_SUPPRESSION,
                                bad.message))
    return findings


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pccheck-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--rule", action="append", choices=sorted(RULES),
                        help="run only this rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n".join(sorted(RULES)))
        return 0

    rules = args.rule if args.rule else sorted(RULES)
    findings: List[Finding] = []
    for path in collect_files(args.paths or ["src"]):
        findings.extend(lint_file(path, rules))

    for f in sorted(findings):
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if findings:
        print(f"pccheck-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
