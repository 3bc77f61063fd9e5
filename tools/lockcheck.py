#!/usr/bin/env python3
"""lockcheck: static lock-discipline analyzer for the Caraoke codebase.

Clang's -Wthread-safety only runs where clang is installed; TSan only
sees the interleavings a test run happens to produce. This checker makes
the lock discipline a repo invariant on every CI image by parsing the
CARAOKE_* capability annotations (src/common/thread_annotations.hpp)
with a small C++ tokenizer and enforcing three rules:

  annotation   Every `std::mutex` / `std::atomic` class member in src/
               is either CARAOKE_GUARDED_BY(m) / referenced by a
               CARAOKE_GUARDED_BY / CARAOKE_REQUIRES, or explicitly
               CARAOKE_LOCKFREE — intentional lock-freedom is declared,
               never implied.
  guard        Every access to a CARAOKE_GUARDED_BY(m) member happens in
               a scope that holds m: a std::lock_guard / scoped_lock /
               unique_lock over m, or a method itself annotated
               CARAOKE_REQUIRES(m). Calls to CARAOKE_REQUIRES methods
               must likewise hold the named mutex. Constructors and
               destructors are exempt (single-threaded by contract).
  order        While a lock is held, every further acquisition — a call
               to a lock-taking method of a member object, or a
               call-site pattern from the table (e.g. obs::emitEvent,
               backendMetrics) — must match an edge declared in the
               machine-readable ```lockorder``` table in DESIGN.md §10.
               The declared graph must be acyclic; `forbid A <-> B`
               pairs (Outbox vs Backend) may never be observed in
               either direction; calling a lock-taking method of your
               own class while already holding that lock is flagged as
               a self-deadlock.

Known soundness limits (documented, not silent): lambdas captured under
a lock but invoked later are attributed to the capturing scope, and
std::unique_lock with defer/adopt tags is not modeled (the codebase uses
neither).

Suppression: append `// lockcheck: allow(<rule>): <reason>` to the
offending line. A marker without a reason is itself a finding — same
policy as caraoke_lint.py and NOLINT-with-reason.

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
Run as a ctest: `ctest -L lint` (registered in tests/CMakeLists.txt).
"""

from __future__ import annotations

import argparse
import bisect
import pathlib
import re
import sys

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
RULE_NAMES = ("annotation", "guard", "order")

MARKER_RE = re.compile(
    r"//\s*lockcheck:\s*allow\((?P<rule>[a-z]+)\)(?P<reason>:.*)?")

# ----------------------------------------------------------------- util --


class Finding:
    def __init__(self, rule, path, lineno, message):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


def blank_comments_and_strings(text):
    """Replace comment and string-literal contents with spaces, keeping
    newlines (so positions and line numbers survive)."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


class SourceFile:
    """One parsed source file: blanked code + per-line allow markers."""

    def __init__(self, rel, text):
        self.rel = rel
        self.text = text
        self.code = blank_comments_and_strings(text)
        self.line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self.line_starts.append(i + 1)
        self.markers = {}  # lineno -> (rule, reason)
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = MARKER_RE.search(line)
            if m:
                reason = (m.group("reason") or "").lstrip(":").strip()
                self.markers[lineno] = (m.group("rule"), reason)

    def lineno(self, pos):
        return bisect.bisect_right(self.line_starts, pos)


def allowed(sf, lineno, rule, findings):
    """True when the line carries a well-formed allow marker for `rule`."""
    mark = sf.markers.get(lineno)
    if mark is None or mark[0] != rule:
        return False
    if not mark[1]:
        findings.append(Finding(
            rule, sf.rel, lineno,
            "allow marker without a reason; write "
            f"`// lockcheck: allow({rule}): <why>`"))
    return True


def match_delims(code, open_pos, open_ch, close_ch):
    """Position of the delimiter matching code[open_pos]; None if unmatched."""
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == open_ch:
            depth += 1
        elif code[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return None


# -------------------------------------------------------- class parsing --

CLASS_RE = re.compile(
    r"\b(class|struct)\s+(\w+)\s*(?:final\b\s*)?(?::[^;{}]*)?\{")
GUARDED_RE = re.compile(r"(\w+)\s*(?:\[[^\]]*\])?\s*CARAOKE_GUARDED_BY\(\s*(\w+)\s*\)")
LOCKFREE_RE = re.compile(r"(\w+)\s*(?:\[[^\]]*\])?\s*CARAOKE_LOCKFREE\b")
MUTEX_DECL_RE = re.compile(
    r"(?:mutable\s+)?std::(?:recursive_)?mutex\s+(\w+)\s*$")
ATOMIC_DECL_RE = re.compile(r"std::atomic\s*<")
REQUIRES_RE = re.compile(r"CARAOKE_REQUIRES\(\s*([^)]*?)\s*\)")
ACQUIRE_ANN_RE = re.compile(r"CARAOKE_ACQUIRE\(\s*([^)]*?)\s*\)")
METHOD_NAME_RE = re.compile(r"(~?\w+)\s*\(")
FUNC_TAIL_RE = re.compile(
    r"(\)|\bconst|\bnoexcept|\boverride|\bfinal|CARAOKE_NO_TSA"
    r"|CARAOKE_(?:REQUIRES|ACQUIRE|RELEASE|EXCLUDES)\([^)]*\))\s*$")
ANNOTATION_STRIP_RE = re.compile(r"CARAOKE_\w+(\([^)]*\))?")
# Member annotations, stripped before the "is this a function header?"
# test — `int x_ CARAOKE_GUARDED_BY(m);` ends with ')' but is no function.
MEMBER_ANN_RE = re.compile(
    r"CARAOKE_(?:GUARDED_BY|PT_GUARDED_BY)\([^)]*\)|CARAOKE_LOCKFREE\b")


def is_function_header(stmt):
    s = MEMBER_ANN_RE.sub(" ", stmt).rstrip()
    return "(" in s and bool(FUNC_TAIL_RE.search(s))


class ClassInfo:
    def __init__(self, name, sf, lineno):
        self.name = name
        self.sf = sf
        self.lineno = lineno
        self.mutexes = {}        # mutex member name -> decl lineno
        self.atomics = {}        # atomic member name -> decl lineno
        self.guarded = {}        # member name -> guarding mutex name
        self.lockfree = set()    # atomic members marked CARAOKE_LOCKFREE
        self.requires = {}       # method -> set of mutex names
        self.no_tsa = set()      # methods marked CARAOKE_NO_TSA
        self.member_types = {}   # member var -> set of type identifier tokens
        self.inline_bodies = []  # (method, body_start, body_end)
        self.methods = set()     # every declared method name
        self.acquiring = {}      # method -> set of own mutexes it acquires

    def label(self, mutex):
        return f"{self.name}.{mutex}"


def member_var_name(stmt):
    """Declared variable name of a member-declaration statement."""
    s = ANNOTATION_STRIP_RE.sub(" ", stmt)
    s = s.split("=")[0]
    s = s.split("[")[0]
    words = re.findall(r"\w+", s)
    return words[-1] if words else None


def parse_statement(cls, sf, stmt, stmt_pos, has_block):
    """Fold one class-body statement into the ClassInfo."""
    lineno = sf.lineno(stmt_pos)
    stripped = stmt.strip()
    if not stripped or stripped.split()[0] in (
            "using", "typedef", "enum", "friend", "struct", "class",
            "template"):
        # Nested classes are parsed as their own ClassInfo by the outer
        # CLASS_RE scan; templates in this codebase declare no guarded
        # state.
        return
    if is_function_header(stmt) and METHOD_NAME_RE.search(stmt):
        method = METHOD_NAME_RE.search(stmt).group(1)
        cls.methods.add(method)
        for m in REQUIRES_RE.finditer(stmt):
            mutexes = {x.strip() for x in m.group(1).split(",") if x.strip()}
            cls.requires.setdefault(method, set()).update(mutexes)
        for m in ACQUIRE_ANN_RE.finditer(stmt):
            mutexes = {x.strip() for x in m.group(1).split(",") if x.strip()}
            cls.acquiring.setdefault(method, set()).update(mutexes)
        if "CARAOKE_NO_TSA" in stmt:
            cls.no_tsa.add(method)
        if has_block is not None:
            cls.inline_bodies.append((method, has_block[0], has_block[1]))
        return
    # Member declaration.
    for m in GUARDED_RE.finditer(stmt):
        cls.guarded[m.group(1)] = m.group(2)
    for m in LOCKFREE_RE.finditer(stmt):
        cls.lockfree.add(m.group(1))
    code_only = ANNOTATION_STRIP_RE.sub(" ", stmt)
    mm = MUTEX_DECL_RE.search(code_only.strip())
    if mm and "static" not in stmt:
        cls.mutexes[mm.group(1)] = lineno
    elif ATOMIC_DECL_RE.search(stmt) and "static" not in stmt:
        name = member_var_name(stmt)
        if name:
            cls.atomics[name] = lineno
    name = member_var_name(stmt)
    if name:
        tokens = set(re.findall(r"\w+", stmt)) - {name}
        cls.member_types[name] = tokens


def parse_class_body(cls, sf, body_start, body_end):
    """Split a class body into statements, skipping nested blocks."""
    code = sf.code
    i = body_start
    stmt_start = i
    stmt = []
    block = None
    while i < body_end:
        c = code[i]
        if c == ";":
            parse_statement(cls, sf, "".join(stmt), stmt_start, block)
            stmt, block = [], None
            i += 1
            stmt_start = i
        elif c == "{":
            close = match_delims(code, i, "{", "}")
            if close is None or close > body_end:
                return
            header = "".join(stmt)
            if is_function_header(header):
                # Method with an inline body: statement ends at the
                # closing brace (no ';' required).
                parse_statement(cls, sf, header, stmt_start, (i + 1, close))
                stmt, block = [], None
                i = close + 1
                # Swallow an optional trailing ';'.
                while i < body_end and code[i] in " \t\n":
                    i += 1
                if i < body_end and code[i] == ";":
                    i += 1
                stmt_start = i
            else:
                # Brace initializer or nested aggregate: skip the block,
                # keep accumulating until the ';'.
                block = (i + 1, close)
                i = close + 1
        else:
            stmt.append(c)
            i += 1
    if stmt:
        parse_statement(cls, sf, "".join(stmt), stmt_start, block)


def parse_classes(sf):
    """Every class/struct definition in the file (incl. nested ones)."""
    classes = []
    for m in CLASS_RE.finditer(sf.code):
        before = sf.code[max(0, m.start() - 8):m.start()]
        if re.search(r"\benum\s*$", before):
            continue
        open_pos = m.end() - 1
        close = match_delims(sf.code, open_pos, "{", "}")
        if close is None:
            continue
        cls = ClassInfo(m.group(2), sf, sf.lineno(m.start()))
        parse_class_body(cls, sf, open_pos + 1, close)
        classes.append(cls)
    return classes


# -------------------------------------------------- out-of-line bodies --

DEF_RE = re.compile(r"\b(\w+)::(~?\w+)\s*\(")
QUALIFIER_RE = re.compile(
    r"\s*(const\b|noexcept\b|CARAOKE_\w+(\([^)]*\))?)")


def find_out_of_line_bodies(sf, classes_by_name):
    """Yield (cls, method, body_start, body_end) for Class::method defs."""
    code = sf.code
    for m in DEF_RE.finditer(code):
        candidates = classes_by_name.get(m.group(1))
        if not candidates:
            continue
        close = match_delims(code, m.end() - 1, "(", ")")
        if close is None:
            continue
        j = close + 1
        while True:
            q = QUALIFIER_RE.match(code, j)
            if q is None or q.end() == j:
                break
            j = q.end()
        while j < len(code) and code[j] in " \t\n":
            j += 1
        if j >= len(code) or code[j] != "{":
            continue
        body_end = match_delims(code, j, "{", "}")
        if body_end is None:
            continue
        method = m.group(2)
        cls = next((c for c in candidates if method.lstrip("~") == c.name
                    or method in c.methods), candidates[0])
        yield cls, method, j + 1, body_end


# -------------------------------------------------------------- tables --

EDGE_LINE_RE = re.compile(r"^(\S+)\s*->\s*(\S+)$")
FORBID_LINE_RE = re.compile(r"^forbid\s+(\S+)\s*<->\s*(\S+)$")
PATTERN_LINE_RE = re.compile(r"^acquire\s+(\w+)\s*=\s*(.+)$")
TABLE_FENCE_RE = re.compile(r"```lockorder\n(.*?)```", re.S)


class LockOrderTable:
    def __init__(self):
        self.edges = set()      # (held label, acquired label)
        self.forbidden = set()  # (held label, acquired label), both ways
        self.patterns = {}      # call-site identifier -> [acquired labels]


def parse_table(text, path, findings):
    table = LockOrderTable()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m := FORBID_LINE_RE.match(line):
            table.forbidden.add((m.group(1), m.group(2)))
            table.forbidden.add((m.group(2), m.group(1)))
        elif m := PATTERN_LINE_RE.match(line):
            table.patterns[m.group(1)] = [
                x.strip() for x in m.group(2).split(",") if x.strip()]
        elif m := EDGE_LINE_RE.match(line):
            table.edges.add((m.group(1), m.group(2)))
        else:
            findings.append(Finding(
                "order", path, lineno,
                f"unparseable lockorder table line: {line!r}"))
    for edge in sorted(table.edges & table.forbidden):
        findings.append(Finding(
            "order", path, 1,
            f"lockorder table both declares and forbids {edge[0]} -> "
            f"{edge[1]}"))
    # The declared graph must be acyclic, else the "order" it encodes is
    # no order at all.
    adjacency = {}
    for a, b in table.edges:
        adjacency.setdefault(a, set()).add(b)
    state = {}

    def cyclic(node):
        state[node] = 1
        for nxt in adjacency.get(node, ()):
            if state.get(nxt) == 1:
                return True
            if state.get(nxt) is None and cyclic(nxt):
                return True
        state[node] = 2
        return False

    for node in sorted(adjacency):
        if state.get(node) is None and cyclic(node):
            findings.append(Finding(
                "order", path, 1,
                f"lockorder table contains a cycle through {node} — a "
                "cyclic hierarchy cannot prevent deadlock"))
            break
    return table


# ------------------------------------------------------------ analysis --

LOCK_ACQ_RE = re.compile(
    r"std::(?:lock_guard|scoped_lock|unique_lock)\s*(?:<[^<>]*>)?\s+"
    r"\w+\s*[({]\s*([\w\s,]+?)\s*[)}]")
MEMBER_CALL_RE = re.compile(r"\b(\w+)(?:\.|->)(\w+)\s*\(")
WRAPPER_TYPES = {
    "std", "unique_ptr", "shared_ptr", "vector", "deque", "map", "set",
    "optional", "mutable", "const",
}


class Model:
    def __init__(self):
        self.files = []
        self.classes_by_name = {}  # name -> [ClassInfo]
        self.bodies = []           # (cls, method, sf, start, end)

    def add_file(self, sf):
        self.files.append(sf)
        for cls in parse_classes(sf):
            self.classes_by_name.setdefault(cls.name, []).append(cls)

    def finalize(self):
        for sf in self.files:
            for cls in self.classes_by_name.values():
                for c in cls:
                    if c.sf is sf:
                        for method, start, end in c.inline_bodies:
                            self.bodies.append((c, method, sf, start, end))
            self.bodies.extend(
                (cls, method, sf, start, end)
                for cls, method, start, end
                in find_out_of_line_bodies(sf, self.classes_by_name))
        self.compute_acquiring()

    def compute_acquiring(self):
        """Which methods acquire which of their class's own mutexes —
        directly (a lock_guard in the body) or transitively (calling an
        acquiring sibling method, unqualified)."""
        for cls, method, sf, start, end in self.bodies:
            body = sf.code[start:end]
            for m in LOCK_ACQ_RE.finditer(body):
                for arg in m.group(1).split(","):
                    arg = arg.strip()
                    if arg in cls.mutexes:
                        cls.acquiring.setdefault(method, set()).add(arg)
        changed = True
        while changed:
            changed = False
            for cls, method, sf, start, end in self.bodies:
                body = sf.code[start:end]
                for m in re.finditer(r"(?<![\w.>:])(\w+)\s*\(", body):
                    callee = m.group(1)
                    if callee == method or callee not in cls.acquiring:
                        continue
                    got = cls.acquiring.setdefault(method, set())
                    add = cls.acquiring[callee] - got
                    if add:
                        got.update(add)
                        changed = True

    def member_class(self, cls, var):
        """ClassInfo of member `var`'s type, if that type declares locks."""
        tokens = cls.member_types.get(var)
        if not tokens:
            return None
        for token in tokens - WRAPPER_TYPES:
            for cand in self.classes_by_name.get(token, ()):
                if cand.mutexes:
                    return cand
        return None


def preceded_by_member_access(code, pos):
    """True when code[pos] is reached via '.', '->' or '::' (someone
    else's member, not an unqualified own access)."""
    i = pos - 1
    while i >= 0 and code[i] in " \t":
        i -= 1
    if i < 0:
        return False
    if code[i] == ".":
        return True
    if code[i] == ">" and i > 0 and code[i - 1] == "-":
        return True
    if code[i] == ":" and i > 0 and code[i - 1] == ":":
        return True
    return False


def analyze_body(model, table, cls, method, sf, start, end, findings):
    if method.lstrip("~") == cls.name:
        return  # ctor/dtor: single-threaded by construction contract
    code = sf.code
    body = code[start:end]

    held = []  # (mutex name, brace depth at acquisition)

    def held_names():
        return {mx for mx, _ in held}

    for mx in cls.requires.get(method, ()):
        held.append((mx, -1))

    # Point events, processed in source order with a live brace depth.
    events = []  # (pos_in_body, kind, payload)
    for m in LOCK_ACQ_RE.finditer(body):
        args = [a.strip() for a in m.group(1).split(",") if a.strip()]
        own = [a for a in args if a in cls.mutexes]
        if own:
            events.append((m.start(), "acquire", own))
    for member, mutex in cls.guarded.items():
        for m in re.finditer(rf"\b{re.escape(member)}\b", body):
            if preceded_by_member_access(body, m.start()):
                continue
            events.append((m.start(), "access", (member, mutex)))
    for req_method, mutexes in cls.requires.items():
        for m in re.finditer(rf"\b{re.escape(req_method)}\s*\(", body):
            if preceded_by_member_access(body, m.start()):
                continue
            events.append((m.start(), "reqcall", (req_method, mutexes)))
    for m in MEMBER_CALL_RE.finditer(body):
        events.append((m.start(), "membercall", (m.group(1), m.group(2))))
    for pattern, labels in table.patterns.items():
        for m in re.finditer(rf"\b{re.escape(pattern)}\b", body):
            events.append((m.start(), "pattern", (pattern, labels)))
    for acq_method, mutexes in cls.acquiring.items():
        if acq_method == method:
            continue
        for m in re.finditer(rf"\b{re.escape(acq_method)}\s*\(", body):
            if preceded_by_member_access(body, m.start()):
                continue
            events.append((m.start(), "selfcall", (acq_method, mutexes)))
    for i, c in enumerate(body):
        if c in "{}":
            events.append((i, c, None))
    events.sort(key=lambda e: (e[0], e[1] in "{}"))

    def check_order_edges(pos, acquired_labels, what):
        lineno = sf.lineno(start + pos)
        for mx, _ in held:
            held_label = cls.label(mx)
            for acq_label in acquired_labels:
                if acq_label == held_label:
                    continue
                if (held_label, acq_label) in table.forbidden:
                    if not allowed(sf, lineno, "order", findings):
                        findings.append(Finding(
                            "order", sf.rel, lineno,
                            f"{cls.name}::{method} acquires {acq_label} "
                            f"({what}) while holding {held_label} — "
                            "forbidden by the lockorder table "
                            "(DESIGN.md §10)"))
                elif (held_label, acq_label) not in table.edges:
                    if not allowed(sf, lineno, "order", findings):
                        findings.append(Finding(
                            "order", sf.rel, lineno,
                            f"{cls.name}::{method} acquires {acq_label} "
                            f"({what}) while holding {held_label} — edge "
                            "not declared in the lockorder table "
                            "(DESIGN.md §10)"))

    depth = 0
    for pos, kind, payload in events:
        if kind == "{":
            depth += 1
        elif kind == "}":
            depth -= 1
            held[:] = [(mx, d) for mx, d in held if d <= depth]
        elif kind == "acquire":
            lineno = sf.lineno(start + pos)
            for mx in payload:
                if mx in held_names():
                    if not allowed(sf, lineno, "order", findings):
                        findings.append(Finding(
                            "order", sf.rel, lineno,
                            f"{cls.name}::{method} re-locks {cls.label(mx)} "
                            "already held in this scope — self-deadlock "
                            "(std::mutex is non-recursive)"))
                    continue
                held.append((mx, depth))
        elif kind == "access":
            member, mutex = payload
            if mutex in held_names():
                continue
            lineno = sf.lineno(start + pos)
            if allowed(sf, lineno, "guard", findings):
                continue
            findings.append(Finding(
                "guard", sf.rel, lineno,
                f"{cls.name}::{method} accesses {member} (guarded by "
                f"{cls.label(mutex)}) without holding the mutex"))
        elif kind == "reqcall":
            callee, mutexes = payload
            missing = mutexes - held_names()
            if not missing:
                continue
            lineno = sf.lineno(start + pos)
            if allowed(sf, lineno, "guard", findings):
                continue
            labels = ", ".join(cls.label(mx) for mx in sorted(missing))
            findings.append(Finding(
                "guard", sf.rel, lineno,
                f"{cls.name}::{method} calls {callee}() "
                f"(CARAOKE_REQUIRES) without holding {labels}"))
        elif kind == "membercall":
            if not held:
                continue
            var, meth = payload
            target = model.member_class(cls, var)
            if target is None:
                continue
            acquired = target.acquiring.get(meth)
            if not acquired:
                continue
            check_order_edges(
                pos, sorted(target.label(mx) for mx in acquired),
                f"via {var}.{meth}()")
        elif kind == "pattern":
            if not held:
                continue
            pattern, labels = payload
            check_order_edges(pos, labels, f"via {pattern}")
        elif kind == "selfcall":
            callee, mutexes = payload
            relocked = mutexes & held_names()
            if not relocked:
                continue
            lineno = sf.lineno(start + pos)
            if allowed(sf, lineno, "order", findings):
                continue
            labels = ", ".join(cls.label(mx) for mx in sorted(relocked))
            findings.append(Finding(
                "order", sf.rel, lineno,
                f"{cls.name}::{method} calls {callee}() which locks "
                f"{labels} — already held here: self-deadlock "
                "(std::mutex is non-recursive)"))


def check_annotations(model, findings):
    """Rule `annotation`: no unannotated std::mutex / std::atomic members."""
    for classes in model.classes_by_name.values():
        for cls in classes:
            referenced = set(cls.guarded.values())
            for mutexes in cls.requires.values():
                referenced |= mutexes
            for mutexes in cls.acquiring.values():
                referenced |= mutexes
            for mutex, lineno in sorted(cls.mutexes.items()):
                if mutex in referenced:
                    continue
                if allowed(cls.sf, lineno, "annotation", findings):
                    continue
                findings.append(Finding(
                    "annotation", cls.sf.rel, lineno,
                    f"{cls.name}::{mutex} guards nothing — reference it "
                    "from a CARAOKE_GUARDED_BY / CARAOKE_REQUIRES "
                    "annotation (what is this mutex for?)"))
            for atomic, lineno in sorted(cls.atomics.items()):
                if atomic in cls.lockfree or atomic in cls.guarded:
                    continue
                if allowed(cls.sf, lineno, "annotation", findings):
                    continue
                findings.append(Finding(
                    "annotation", cls.sf.rel, lineno,
                    f"{cls.name}::{atomic} is an unannotated std::atomic "
                    "— mark it CARAOKE_LOCKFREE (intentional) or "
                    "CARAOKE_GUARDED_BY(m)"))


def run_analysis(file_texts, table_text, table_path="DESIGN.md",
                 rules=RULE_NAMES):
    """Full pipeline over {relpath: text} sources + a lockorder table."""
    findings = []
    table = parse_table(table_text, table_path, findings)
    model = Model()
    for rel in sorted(file_texts):
        model.add_file(SourceFile(rel, file_texts[rel]))
    model.finalize()
    if "annotation" in rules:
        check_annotations(model, findings)
    if "guard" in rules or "order" in rules:
        for cls, method, sf, start, end in model.bodies:
            analyze_body(model, table, cls, method, sf, start, end, findings)
        if "guard" not in rules:
            findings = [f for f in findings if f.rule != "guard"]
        if "order" not in rules:
            findings = [f for f in findings if f.rule != "order"]
    return findings


# ------------------------------------------------------------- selftest --

SELFTEST_HPP = """\
#include "common/thread_annotations.hpp"
class Sink {
 public:
  void record(int v);
 private:
  std::mutex mutex_;
  long total_ CARAOKE_GUARDED_BY(mutex_) = 0;
  %(sink_extra)s
};
class Widget {
 public:
  void push(int v);
  std::size_t size() const;
  void flush();
 private:
  void drainLocked() CARAOKE_REQUIRES(mutex_);
  mutable std::mutex mutex_;
  std::vector<int> items_ CARAOKE_GUARDED_BY(mutex_);
  std::atomic<bool> live_ CARAOKE_LOCKFREE{true};
  Sink sink_;
  %(widget_extra)s
};
"""

SELFTEST_CPP = """\
void Sink::record(int v) {
  std::lock_guard<std::mutex> lock(mutex_);
  total_ += v;
  %(record_extra)s
}
void Widget::push(int v) {
  %(push_body)s
}
std::size_t Widget::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return items_.size();
}
void Widget::flush() {
  %(flush_body)s
}
void Widget::drainLocked() { items_.clear(); }
"""

CLEAN_PUSH = """std::lock_guard<std::mutex> lock(mutex_);
  items_.push_back(v);
  sink_.record(v);"""
CLEAN_FLUSH = """std::lock_guard<std::mutex> lock(mutex_);
  drainLocked();"""
CLEAN_TABLE = "Widget.mutex_ -> Sink.mutex_\n"

SELFTEST_CASES = [
    # (what, hpp substitutions, cpp substitutions, table, expected rule
    #  or None, expected message fragment)
    ("clean tree", {}, {}, CLEAN_TABLE, None, None),
    ("unguarded member access",
     {}, {"push_body": "items_.push_back(v);"},
     CLEAN_TABLE, "guard", "without holding the mutex"),
    ("REQUIRES method called without the lock",
     {}, {"flush_body": "drainLocked();"},
     CLEAN_TABLE, "guard", "CARAOKE_REQUIRES"),
    ("unannotated mutex member",
     {"widget_extra": "std::mutex extra_;"}, {},
     CLEAN_TABLE, "annotation", "guards nothing"),
    ("unannotated atomic member",
     {"widget_extra": "std::atomic<int> hits_{0};"}, {},
     CLEAN_TABLE, "annotation", "unannotated std::atomic"),
    ("lock-order inversion (edge not declared)",
     {"sink_extra": "Widget* widget_ = nullptr;"},
     {"record_extra": "widget_->push(v);"},
     CLEAN_TABLE, "order", "not declared in the lockorder table"),
    ("forbidden edge observed",
     {}, {}, "forbid Widget.mutex_ <-> Sink.mutex_\n",
     "order", "forbidden by the lockorder table"),
    ("cyclic lockorder table",
     {}, {}, CLEAN_TABLE + "Sink.mutex_ -> Widget.mutex_\n",
     "order", "cycle"),
    ("self-deadlock (own locking method called under the lock)",
     {}, {"flush_body": CLEAN_FLUSH + "\n  size();"},
     CLEAN_TABLE, "order", "self-deadlock"),
    ("pattern acquisition without a declared edge",
     {}, {"push_body": CLEAN_PUSH + "\n  emitSpecial();"},
     "Widget.mutex_ -> Sink.mutex_\nacquire emitSpecial = Audit.mutex_\n",
     "order", "via emitSpecial"),
    ("pattern acquisition with the edge declared",
     {}, {"push_body": CLEAN_PUSH + "\n  emitSpecial();"},
     "Widget.mutex_ -> Sink.mutex_\n"
     "Widget.mutex_ -> Audit.mutex_\n"
     "acquire emitSpecial = Audit.mutex_\n",
     None, None),
    ("allow marker suppresses a finding",
     {}, {"push_body":
          "items_.push_back(v);  "
          "// lockcheck: allow(guard): selftest: demonstrating suppression"},
     CLEAN_TABLE, None, None),
    ("allow marker without a reason is itself a finding",
     {}, {"push_body":
          "items_.push_back(v);  // lockcheck: allow(guard)"},
     CLEAN_TABLE, "guard", "without a reason"),
]


def selftest():
    failures = []
    for what, hpp_sub, cpp_sub, table, rule, fragment in SELFTEST_CASES:
        hpp = SELFTEST_HPP % {"sink_extra": "", "widget_extra": "",
                              **hpp_sub}
        cpp = SELFTEST_CPP % {"push_body": CLEAN_PUSH,
                              "flush_body": CLEAN_FLUSH,
                              "record_extra": "", **cpp_sub}
        findings = run_analysis(
            {"src/widget.hpp": hpp, "src/widget.cpp": cpp}, table)
        if rule is None:
            if findings:
                failures.append(
                    f"selftest wrongly flagged {what}: {findings[0]}")
        elif not any(f.rule == rule and fragment in f.message
                     for f in findings):
            got = "; ".join(str(f) for f in findings) or "nothing"
            failures.append(f"selftest missed {what} (got: {got})")
    for f in failures:
        print(f, file=sys.stderr)
    return not failures


# ----------------------------------------------------------------- main --

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=pathlib.Path("."),
                        help="repository root (directory containing src/)")
    parser.add_argument("--rule", choices=RULE_NAMES, action="append",
                        help="run only these rules (default: all)")
    parser.add_argument("--table", type=pathlib.Path, default=None,
                        help="lockorder table file "
                             "(default: <root>/DESIGN.md fenced block)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in analyzer selftest first")
    args = parser.parse_args()

    if args.selftest and not selftest():
        print("lockcheck: selftest FAILED", file=sys.stderr)
        return 2

    src = (args.root / "src").resolve()
    if not src.is_dir():
        print(f"lockcheck: no src/ under {args.root}", file=sys.stderr)
        return 2

    table_path = args.table or (args.root / "DESIGN.md")
    table_rel = table_path.name if args.table else "DESIGN.md"
    try:
        table_doc = table_path.read_text(encoding="utf-8")
    except OSError as e:
        print(f"lockcheck: cannot read lockorder table: {e}",
              file=sys.stderr)
        return 2
    fence = TABLE_FENCE_RE.search(table_doc)
    if fence is None:
        print(f"lockcheck: no ```lockorder fenced block in {table_path} — "
              "the lock-order table is a required input (DESIGN.md §10)",
              file=sys.stderr)
        return 2

    file_texts = {}
    for path in sorted(src.rglob("*")):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            rel = path.resolve().relative_to(src.parent).as_posix()
            try:
                file_texts[rel] = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue

    findings = run_analysis(file_texts, fence.group(1), table_rel,
                            tuple(args.rule or RULE_NAMES))
    for finding in findings:
        print(finding)
    summary = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"lockcheck: {len(file_texts)} files, {summary}"
          + (" (selftest ok)" if args.selftest else ""))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
