#!/usr/bin/env python3
# Copyright 2026 The densest Authors.
"""Project-invariant linter (stdlib-only; a blocking CI step).

Enforces repo invariants that neither the compiler nor the sanitizers
check — the conventions the correctness story leans on:

  failpoint-registry   Every DENSEST_FAILPOINT("name") literal in src/ is
                       listed in src/common/failpoint_names.h, every
                       registered name is evaluated by some seam, and all
                       names follow the `subsystem.operation` grammar.
  metric-registry      Every DENSEST_METRIC_COUNTER/GAUGE/HISTOGRAM and
                       DENSEST_TRACE_SPAN name literal in src/ is listed in
                       the matching array of src/obs/metric_names.h, every
                       registered name has a call site, and all names
                       follow the `subsystem.operation` grammar (the
                       reserved "t." test prefix is exempt).
  nodiscard            `class Status` / `class StatusOr` (and the result
                       structs the engines return) keep their
                       [[nodiscard]] attribute — without it the
                       -Werror=unused-result gate silently stops gating.
  naked-new            No naked `new` / `delete` outside an immediate
                       smart-pointer wrap; intentional leaks carry a
                       `lint:allow(naked-new)` comment on the same or the
                       preceding line.
  tools-includes       tools/*.cc may include only standard headers and
                       the public CLI surface (cli/...); reaching into
                       internal headers would grow a second, unversioned
                       API out of the binaries.
  override             Subclass redeclarations of the stream interfaces'
                       virtual methods must say `override` — a stream that
                       silently stops overriding status() reverts to the
                       infallible default and swallows IO errors.
  one-read             A stream class in src/ implements one read: one
                       deriving from EdgeStream overrides at most one of
                       Next/NextBatch/NextView, one deriving from
                       UpdateStream at most one of Next/NextBatch. The
                       base classes derive the other spellings, so a
                       second override is a second copy of the decode and
                       sticky-status logic.
  one-job-form         A MapReduce job declared in src/mapreduce/*.h (a
                       function taking a MapReduceEnv&) reads its input
                       from a RecordSource: a `const MrEdges&` or
                       `const std::vector<KV<...>>&` parameter is a
                       second, in-memory form of a job.
  flag-table           CLI flags are declared only in the command table
                       (src/cli/command_table.cc): no GetInt/GetDouble/
                       GetBool/GetString("name") reads in src/ or tools/,
                       and every args.Int/Double/Bool/String("name") read
                       in src/cli/ names a flag the table declares.

Usage:
  tools/lint.py [--root DIR]     lint the tree (exit 1 on any violation)
  tools/lint.py --self-test      seed one violation per check into a temp
                                 tree and assert every check fires
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

# ---------------------------------------------------------------- helpers --

SOURCE_DIRS = ("src", "tests", "bench", "tools", "examples")
SOURCE_EXTS = (".cc", ".h", ".cpp")

FAILPOINT_GRAMMAR = re.compile(r"^[a-z0-9_]+\.[a-z0-9_]+$")


def source_files(root: str, subdirs=SOURCE_DIRS):
    for sub in subdirs:
        top = os.path.join(root, sub)
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def strip_comments(text: str, keep_strings: bool = False) -> str:
    """Blanks out // and /* */ comments and (unless keep_strings) string
    literals, preserving line structure so reported line numbers stay
    correct."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "str":
            if c == "\\":
                out.append(text[i : i + 2] if keep_strings else "  ")
                i += 2
                continue
            if c == '"':
                state = "code"
            if keep_strings:
                out.append(c)
            else:
                out.append(c if c in ('"', "\n") else " ")
        elif state == "chr":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
            out.append(c if c in ("'", "\n") else " ")
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: str):
        self.root = root
        self.violations: list[str] = []

    def report(self, check: str, path: str, line: int, msg: str):
        rel = os.path.relpath(path, self.root)
        self.violations.append(f"{rel}:{line}: [{check}] {msg}")

    # ------------------------------------------------- failpoint registry --

    def check_failpoints(self):
        check = "failpoint-registry"
        reg_path = os.path.join(self.root, "src/common/failpoint_names.h")
        if not os.path.exists(reg_path):
            self.report(check, reg_path, 1, "registry file missing")
            return
        reg_text = open(reg_path).read()
        # Entries are the quoted strings of the kFailpointNames initializer
        # (comments stripped, strings kept; helper code below the array may
        # use other literals).
        reg_code = strip_comments(reg_text, keep_strings=True)
        array = re.search(r"kFailpointNames\[\]\s*=\s*\{(.*?)\};", reg_code,
                          re.S)
        if array is None:
            self.report(check, reg_path, 1,
                        "kFailpointNames initializer not found")
            return
        registered = set(re.findall(r'"([^"]+)"', array.group(1)))
        for name in sorted(registered):
            if not FAILPOINT_GRAMMAR.match(name):
                line = next(
                    i
                    for i, l in enumerate(reg_text.splitlines(), 1)
                    if f'"{name}"' in l
                )
                self.report(
                    check, reg_path, line,
                    f"registered name '{name}' violates subsystem.operation "
                    "grammar",
                )

        # Seam usages: DENSEST_FAILPOINT("...") and the retry-wrapped
        # EvalFailpointWithRetry("...") form.
        seam_re = re.compile(
            r'(?:DENSEST_FAILPOINT|EvalFailpointWithRetry)\s*\(\s*"([^"]+)"'
        )
        used: dict[str, tuple[str, int]] = {}
        for path in source_files(self.root, subdirs=("src",)):
            # Comments stripped so documentation mentioning the macro does
            # not read as a seam.
            text = strip_comments(open(path).read(), keep_strings=True)
            for i, line_text in enumerate(text.splitlines(), 1):
                for m in seam_re.finditer(line_text):
                    name = m.group(1)
                    used.setdefault(name, (path, i))
                    if not FAILPOINT_GRAMMAR.match(name):
                        self.report(
                            check, path, i,
                            f"failpoint '{name}' violates subsystem.operation "
                            "grammar",
                        )
                    elif name not in registered:
                        self.report(
                            check, path, i,
                            f"failpoint '{name}' not listed in "
                            "src/common/failpoint_names.h",
                        )
        for name in sorted(registered - set(used)):
            line = next(
                i
                for i, l in enumerate(reg_text.splitlines(), 1)
                if f'"{name}"' in l
            )
            self.report(
                check, reg_path, line,
                f"registered failpoint '{name}' is evaluated by no seam "
                "(dead registry entry)",
            )

    # ------------------------------------------------ metric-name registry --

    # array in src/obs/metric_names.h -> the macro whose literals it indexes
    METRIC_ARRAYS = {
        "counter": ("kCounterNames", "DENSEST_METRIC_COUNTER"),
        "gauge": ("kGaugeNames", "DENSEST_METRIC_GAUGE"),
        "histogram": ("kHistogramNames", "DENSEST_METRIC_HISTOGRAM"),
        "trace span": ("kTraceSpanNames", "DENSEST_TRACE_SPAN"),
    }

    def check_metrics(self):
        check = "metric-registry"
        reg_path = os.path.join(self.root, "src/obs/metric_names.h")
        if not os.path.exists(reg_path):
            self.report(check, reg_path, 1, "registry file missing")
            return
        reg_text = open(reg_path).read()
        reg_code = strip_comments(reg_text, keep_strings=True)

        def reg_line(name: str) -> int:
            return next(
                (i for i, l in enumerate(reg_text.splitlines(), 1)
                 if f'"{name}"' in l),
                1,
            )

        registered: dict[str, set[str]] = {}
        for kind, (array, _) in self.METRIC_ARRAYS.items():
            m = re.search(
                re.escape(array) + r"\[\]\s*=\s*\{(.*?)\};", reg_code, re.S
            )
            if m is None:
                self.report(check, reg_path, 1,
                            f"{array} initializer not found")
                registered[kind] = set()
                continue
            names = set(re.findall(r'"([^"]+)"', m.group(1)))
            registered[kind] = names
            for name in sorted(names):
                if not FAILPOINT_GRAMMAR.match(name):
                    self.report(
                        check, reg_path, reg_line(name),
                        f"registered {kind} name '{name}' violates "
                        "subsystem.operation grammar",
                    )

        macro_kind = {macro: kind
                      for kind, (_, macro) in self.METRIC_ARRAYS.items()}
        seam_re = re.compile(
            r"(" + "|".join(re.escape(m) for m in macro_kind) + r')\s*\(\s*"([^"]+)"'
        )
        used: dict[str, set[str]] = {kind: set() for kind in registered}
        for path in source_files(self.root, subdirs=("src",)):
            text = strip_comments(open(path).read(), keep_strings=True)
            for i, line_text in enumerate(text.splitlines(), 1):
                for m in seam_re.finditer(line_text):
                    kind = macro_kind[m.group(1)]
                    name = m.group(2)
                    used[kind].add(name)
                    if name.startswith("t."):
                        continue  # reserved test prefix, never registered
                    if not FAILPOINT_GRAMMAR.match(name):
                        self.report(
                            check, path, i,
                            f"{kind} name '{name}' violates "
                            "subsystem.operation grammar",
                        )
                    elif name not in registered[kind]:
                        self.report(
                            check, path, i,
                            f"{kind} '{name}' not listed in "
                            "src/obs/metric_names.h",
                        )
        for kind in registered:
            for name in sorted(registered[kind] - used[kind]):
                self.report(
                    check, reg_path, reg_line(name),
                    f"registered {kind} '{name}' has no call site "
                    "(dead registry entry)",
                )

    # ------------------------------------------------------- [[nodiscard]] --

    # type name -> header that must declare it [[nodiscard]]
    NODISCARD_TYPES = {
        "Status": "src/common/status.h",
        "StatusOr": "src/common/status.h",
        "UndirectedPassResult": "src/core/alive_kernel.h",
        "DirectedPassResult": "src/core/alive_kernel.h",
        "MrDensestResult": "src/mapreduce/mr_densest.h",
        "MrDirectedResult": "src/mapreduce/mr_densest.h",
        "RestoredEngine": "src/dynamic/snapshot.h",
        "ReplayReport": "src/dynamic/replay.h",
    }

    def check_nodiscard(self):
        check = "nodiscard"
        for type_name, rel in self.NODISCARD_TYPES.items():
            path = os.path.join(self.root, rel)
            if not os.path.exists(path):
                self.report(check, path, 1, f"expected header for {type_name} missing")
                continue
            text = open(path).read()
            decl = re.search(
                r"^(?:class|struct)\s+(\[\[nodiscard\]\]\s+)?"
                + re.escape(type_name) + r"\b",
                text,
                re.M,
            )
            if decl is None:
                self.report(
                    check, path, 1,
                    f"declaration of {type_name} not found (moved? update "
                    "tools/lint.py NODISCARD_TYPES)",
                )
            elif decl.group(1) is None:
                line = text[: decl.start()].count("\n") + 1
                self.report(
                    check, path, line,
                    f"{type_name} lost its [[nodiscard]] attribute — the "
                    "-Werror=unused-result gate depends on it",
                )

    # ---------------------------------------------------------- naked new --

    NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (place)` is placement new
    DELETE_RE = re.compile(r"\bdelete\b\s*(\[\s*\])?[^;,)\]=]")

    def check_naked_new(self):
        check = "naked-new"
        allow = "lint:allow(naked-new)"
        for path in source_files(self.root):
            raw = open(path).read()
            text = strip_comments(raw)
            raw_lines = raw.splitlines()
            for i, line_text in enumerate(text.splitlines(), 1):
                m = self.NEW_RE.search(line_text)
                if m:
                    wrapped = (
                        "unique_ptr" in line_text
                        or "shared_ptr" in line_text
                        or "make_unique" in line_text
                    )
                    allowed = any(
                        allow in raw_lines[j]
                        for j in (i - 2, i - 1)
                        if 0 <= j < len(raw_lines)
                    )
                    if not wrapped and not allowed:
                        self.report(
                            check, path, i,
                            "naked `new` (wrap in std::unique_ptr on the same "
                            f"statement or annotate `// {allow} — why`)",
                        )
                m = self.DELETE_RE.search(line_text)
                if m and "= delete" not in line_text:
                    self.report(
                        check, path, i,
                        "naked `delete` (ownership belongs in smart pointers)",
                    )

    # ------------------------------------------------------ tools includes --

    TOOLS_ALLOWED_PREFIXES = ("cli/",)

    def check_tools_includes(self):
        check = "tools-includes"
        include_re = re.compile(r'^\s*#include\s+"([^"]+)"')
        for path in source_files(self.root, subdirs=("tools",)):
            if path.endswith(".py"):
                continue
            for i, line_text in enumerate(open(path).read().splitlines(), 1):
                m = include_re.match(line_text)
                if m is None:
                    continue
                header = m.group(1)
                if not header.startswith(self.TOOLS_ALLOWED_PREFIXES):
                    self.report(
                        check, path, i,
                        f'tools/ may not include internal header "{header}" '
                        "(only cli/* is the supported surface; route new "
                        "functionality through cli/commands.h)",
                    )

    # ------------------------------------------------------------ override --

    # Streams' virtual methods; a subclass redeclaring one without
    # `override` is either shadowing or silently detached from the base.
    STREAM_BASES = re.compile(
        r":\s*public\s+(?:\w+::)*\w*(?:EdgeStream|UpdateStream|RecordSource)"
    )
    STREAM_METHODS = re.compile(
        r"^\s*(?:virtual\s+)?[\w:<>,*&\s]+?\b"
        r"(Reset|Next|NextBatch|NextView|status|io_retry_stats|"
        r"HasUnitWeights|num_nodes|SizeHint|UndirectedCsrView|"
        r"DirectedCsrView|FillChunk|bytes_scanned|Skip)\s*\([^;{]*?[;{]",
        re.M,
    )

    def stream_classes(self, subdirs):
        """Yields (path, class header, class body, line of the body's first
        line) for every class deriving from a stream interface."""
        for path in source_files(self.root, subdirs=subdirs):
            text = strip_comments(open(path).read())
            for cls in re.finditer(r"class\s+\w+[^{;]*{", text):
                header = cls.group(0)
                if not self.STREAM_BASES.search(header):
                    continue
                # Class body: from the opening brace to its matching close.
                depth, j = 0, cls.end() - 1
                while j < len(text):
                    if text[j] == "{":
                        depth += 1
                    elif text[j] == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                body = text[cls.end(): j]
                yield path, header, body, text[: cls.end()].count("\n") + 1

    def check_override(self):
        check = "override"
        for path, _, body, base_line in self.stream_classes(("src", "tests")):
            for m in self.STREAM_METHODS.finditer(body):
                decl = m.group(0)
                if "override" in decl or "= 0" in decl or "static" in decl:
                    continue
                line = base_line + body[: m.start()].count("\n")
                self.report(
                    check, path, line,
                    f"stream subclass method '{m.group(1)}' missing "
                    "`override`",
                )

    # ------------------------------------------------------------ one-read --

    READ_METHODS = {
        "EdgeStream": ("Next", "NextBatch", "NextView"),
        "UpdateStream": ("Next", "NextBatch"),
    }
    READ_BASE = re.compile(r":\s*public\s+(?:\w+::)*\w*(EdgeStream|UpdateStream)\b")

    def check_one_read(self):
        check = "one-read"
        for path, header, body, base_line in self.stream_classes(("src",)):
            base = self.READ_BASE.search(header)
            if base is None:
                continue
            reads = self.READ_METHODS[base.group(1)]
            overridden = []
            for m in self.STREAM_METHODS.finditer(body):
                if m.group(1) in reads and "override" in m.group(0):
                    overridden.append(m)
            if len(overridden) > 1:
                line = base_line + body[: overridden[1].start()].count("\n")
                names = ", ".join(m.group(1) for m in overridden)
                self.report(
                    check, path, line,
                    f"{base.group(1)} subclass overrides {names}: implement "
                    "one read and let the base class derive the others",
                )

    # -------------------------------------------------------- one-job-form --

    JOB_DECL = re.compile(r"\b(\w+)\s*\(([^()]*)\)")
    JOB_ENV = re.compile(r"\bMapReduceEnv\s*&")
    VECTOR_INPUT = re.compile(
        r"\bconst\s+(?:MrEdges|(?:std::)?vector\s*<\s*KV\s*<[^;]*?>\s*>)\s*&")

    def check_one_job_form(self):
        check = "one-job-form"
        for path in source_files(self.root, subdirs=("src/mapreduce",)):
            if not path.endswith(".h"):
                continue
            text = strip_comments(open(path).read())
            for m in self.JOB_DECL.finditer(text):
                params = m.group(2)
                if not self.JOB_ENV.search(params):
                    continue
                if not self.VECTOR_INPUT.search(params):
                    continue
                line = text[: m.start()].count("\n") + 1
                self.report(
                    check, path, line,
                    f"job '{m.group(1)}' takes an in-memory vector input: "
                    "read an MrEdgeSource (wrap records in a "
                    "VectorRecordSource) so every job has one form",
                )

    # ---------------------------------------------------------- flag table --

    FLAG_TABLE = "src/cli/command_table.cc"
    FLAG_GET_RE = re.compile(r'\bGet(?:Int|Double|Bool|String)\s*\(\s*"([^"]*)"')
    FLAG_DECL_RE = re.compile(
        r'\b(?:Bool|Int|Double|String|Enum)Flag\s*\(\s*"([^"]+)"')
    FLAG_READ_RE = re.compile(
        r'\bargs(?:\.|->)(?:Int|Double|Bool|String)\s*\(\s*"([^"]+)"')

    def check_flag_table(self):
        check = "flag-table"
        table = os.path.join(self.root, self.FLAG_TABLE)
        declared: set[str] = set()
        if os.path.exists(table):
            declared = set(self.FLAG_DECL_RE.findall(
                strip_comments(open(table).read(), keep_strings=True)))
        cli_dir = os.path.join(self.root, "src", "cli") + os.sep
        for path in source_files(self.root, subdirs=("src", "tools")):
            if path == table:
                continue
            text = strip_comments(open(path).read(), keep_strings=True)
            for i, line_text in enumerate(text.splitlines(), 1):
                for m in self.FLAG_GET_RE.finditer(line_text):
                    self.report(
                        check, path, i,
                        f"ad-hoc flag read Get*(\"{m.group(1)}\"): declare "
                        f"the flag in {self.FLAG_TABLE} and read its typed "
                        "value from Args",
                    )
                if not path.startswith(cli_dir):
                    continue
                for m in self.FLAG_READ_RE.finditer(line_text):
                    if m.group(1) not in declared:
                        self.report(
                            check, path, i,
                            f"flag --{m.group(1)} is read but not declared in "
                            f"{self.FLAG_TABLE}",
                        )

    # ----------------------------------------------------------------- run --

    def run(self) -> int:
        self.check_failpoints()
        self.check_metrics()
        self.check_nodiscard()
        self.check_naked_new()
        self.check_tools_includes()
        self.check_override()
        self.check_one_read()
        self.check_one_job_form()
        self.check_flag_table()
        for v in self.violations:
            print(v)
        if self.violations:
            print(f"lint: {len(self.violations)} violation(s)", file=sys.stderr)
            return 1
        print("lint: clean")
        return 0


# ------------------------------------------------------------- self-test --


def self_test(repo_root: str) -> int:
    """Seeds one violation per check into a scratch tree (layered on top of
    a minimal skeleton) and asserts every check fires — so a refactor that
    silently breaks a lint regex is caught by CI, not trusted forever."""
    failures = []

    def expect(name: str, violations: list[str], needle: str):
        if not any(needle in v for v in violations):
            failures.append(
                f"self-test: check '{name}' did not fire (wanted '{needle}' "
                f"in {violations})"
            )

    def make_tree(tmp: str):
        """Minimal clean skeleton the seeded violations overlay."""
        os.makedirs(os.path.join(tmp, "src/common"), exist_ok=True)
        os.makedirs(os.path.join(tmp, "tools"), exist_ok=True)
        with open(os.path.join(tmp, "src/common/failpoint_names.h"), "w") as f:
            f.write(
                "inline constexpr std::string_view kFailpointNames[] = {\n"
                '    "spill.append",\n'
                "};\n"
            )
        with open(os.path.join(tmp, "src/common/status.h"), "w") as f:
            f.write(
                "class [[nodiscard]] Status {};\n"
                "template <typename T> class [[nodiscard]] StatusOr {};\n"
            )
        # The other NODISCARD_TYPES headers, minimally well-formed.
        for type_name, rel in Linter.NODISCARD_TYPES.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if type_name in ("Status", "StatusOr"):
                continue
            with open(path, "a") as f:
                f.write(f"struct [[nodiscard]] {type_name} {{}};\n")
        with open(os.path.join(tmp, "src/common/seams.cc"), "w") as f:
            f.write('auto a = DENSEST_FAILPOINT("spill.append");\n')

    # 1. Unregistered + ill-formed failpoint names, dead registry entry.
    with tempfile.TemporaryDirectory() as tmp:
        make_tree(tmp)
        reg = os.path.join(tmp, "src/common/failpoint_names.h")
        text = open(reg).read().replace(
            "};", '    "zombie.entry",\n    "BadGrammar",\n};', 1
        )
        with open(reg, "w") as f:
            f.write(text)
        with open(os.path.join(tmp, "src/common/seams.cc"), "a") as f:
            f.write('auto b = DENSEST_FAILPOINT("not.registered");\n')
        lint = Linter(tmp)
        lint.check_failpoints()
        expect("failpoint-unregistered", lint.violations, "not.registered")
        expect("failpoint-grammar", lint.violations, "BadGrammar")
        expect("failpoint-dead-entry", lint.violations, "zombie.entry")

    # 1b. Metric-name registry: unregistered + ill-formed names, a dead
    # entry, a counter literal misfiled under the gauge array, and the
    # exempt "t." test prefix.
    with tempfile.TemporaryDirectory() as tmp:
        make_tree(tmp)
        os.makedirs(os.path.join(tmp, "src/obs"), exist_ok=True)
        with open(os.path.join(tmp, "src/obs/metric_names.h"), "w") as f:
            f.write(
                "inline constexpr std::string_view kCounterNames[] = {\n"
                '    "core.passes",\n'
                '    "zombie.counter",\n'
                "};\n"
                "inline constexpr std::string_view kGaugeNames[] = {\n"
                '    "BadMetricGrammar",\n'
                "};\n"
                "inline constexpr std::string_view kHistogramNames[] = {\n"
                "};\n"
                "inline constexpr std::string_view kTraceSpanNames[] = {\n"
                '    "core.pass_round",\n'
                "};\n"
            )
        with open(os.path.join(tmp, "src/obs/seams.cc"), "w") as f:
            f.write(
                'auto c = DENSEST_METRIC_COUNTER("core.passes");\n'
                'auto d = DENSEST_METRIC_COUNTER("metric.unregistered");\n'
                'auto e = DENSEST_METRIC_GAUGE("core.passes");\n'
                'auto g = DENSEST_METRIC_COUNTER("t.test_only");\n'
                'DENSEST_TRACE_SPAN("core.pass_round");\n'
            )
        lint = Linter(tmp)
        lint.check_metrics()
        expect("metric-unregistered", lint.violations, "metric.unregistered")
        expect("metric-grammar", lint.violations, "BadMetricGrammar")
        expect("metric-dead-entry", lint.violations, "zombie.counter")
        expect("metric-kind-confusion", lint.violations,
               "gauge 'core.passes' not listed")
        if any("t.test_only" in v for v in lint.violations):
            failures.append(
                f"self-test: 't.' test prefix wrongly flagged: {lint.violations}"
            )

    # 2. Lost [[nodiscard]].
    with tempfile.TemporaryDirectory() as tmp:
        make_tree(tmp)
        with open(os.path.join(tmp, "src/common/status.h"), "w") as f:
            f.write(
                "class Status {};\n"
                "template <typename T> class [[nodiscard]] StatusOr {};\n"
            )
        lint = Linter(tmp)
        lint.check_nodiscard()
        expect("nodiscard", lint.violations, "Status lost its [[nodiscard]]")

    # 3. Naked new / delete (and that the allow-comment suppresses).
    with tempfile.TemporaryDirectory() as tmp:
        make_tree(tmp)
        with open(os.path.join(tmp, "src/common/leak.cc"), "w") as f:
            f.write(
                "void f() {\n"
                "  int* p = new int;\n"
                "  delete p;\n"
                "  // lint:allow(naked-new) — intentional\n"
                "  int* q = new int;\n"
                "  auto r = std::unique_ptr<int>(new int);\n"
                "}\n"
            )
        lint = Linter(tmp)
        lint.check_naked_new()
        expect("naked-new", lint.violations, "naked `new`")
        expect("naked-delete", lint.violations, "naked `delete`")
        if sum("naked `new`" in v for v in lint.violations) != 1:
            failures.append(
                "self-test: allow-comment or unique_ptr wrap did not "
                f"suppress: {lint.violations}"
            )

    # 4. tools/ including an internal header.
    with tempfile.TemporaryDirectory() as tmp:
        make_tree(tmp)
        with open(os.path.join(tmp, "tools/rogue.cc"), "w") as f:
            f.write('#include "cli/args.h"\n#include "core/pass_engine.h"\n')
        lint = Linter(tmp)
        lint.check_tools_includes()
        expect("tools-includes", lint.violations, "core/pass_engine.h")
        if any("cli/args.h" in v for v in lint.violations):
            failures.append("self-test: cli/ include wrongly flagged")

    # 5. Stream subclass missing `override`.
    with tempfile.TemporaryDirectory() as tmp:
        make_tree(tmp)
        with open(os.path.join(tmp, "src/common/stream_bad.h"), "w") as f:
            f.write(
                "class Bad : public EdgeStream {\n"
                " public:\n"
                "  void Reset();\n"
                "  bool Next(Edge* e) override;\n"
                "};\n"
            )
        lint = Linter(tmp)
        lint.check_override()
        expect("override", lint.violations, "'Reset' missing")

    # 5b. A stream implementing a second read; one read each is clean.
    with tempfile.TemporaryDirectory() as tmp:
        make_tree(tmp)
        with open(os.path.join(tmp, "src/common/stream_reads.h"), "w") as f:
            f.write(
                "class TwoReads : public EdgeStream {\n"
                "  size_t NextBatch(Edge* buf, size_t cap) override;\n"
                "  std::span<const Edge> NextView(Edge* s, size_t cap) override;\n"
                "};\n"
                "class TwoUpdateReads : public densest::UpdateStream {\n"
                "  bool Next(EdgeUpdate* u) override;\n"
                "  size_t NextBatch(EdgeUpdate* buf, size_t cap) override;\n"
                "};\n"
                "class OneRead : public EdgeStream {\n"
                "  std::span<const Edge> NextView(Edge* s, size_t cap) override;\n"
                "};\n"
                "class OneUpdateRead : public UpdateStream {\n"
                "  size_t NextBatch(EdgeUpdate* buf, size_t cap) override;\n"
                "};\n"
            )
        lint = Linter(tmp)
        lint.check_one_read()
        expect("one-read", lint.violations, "overrides NextBatch, NextView")
        expect("one-read-update", lint.violations, "overrides Next, NextBatch")
        if len(lint.violations) != 2:
            failures.append(
                f"self-test: one-read flagged a one-read stream: "
                f"{lint.violations}")

    # 5c. A MapReduce job over an in-memory vector; the source form and a
    # non-job vector parameter are clean.
    with tempfile.TemporaryDirectory() as tmp:
        make_tree(tmp)
        os.makedirs(os.path.join(tmp, "src/mapreduce"), exist_ok=True)
        with open(os.path.join(tmp, "src/mapreduce/jobs.h"), "w") as f:
            f.write(
                "EdgeId MrCountEdgesJob(MapReduceEnv& env, const MrEdges& e,\n"
                "                       JobStats* stats = nullptr);\n"
                "template <typename K2, typename V2, typename K1, typename V1>\n"
                "std::vector<KV<K2, V2>> RunJob(\n"
                "    MapReduceEnv& env, const std::vector<KV<K1, V1>>& input);\n"
                "StatusOr<EdgeId> MrCountEdgesJob(MapReduceEnv& env,\n"
                "    MrEdgeSource& edges, const JobOptions& options);\n"
                "explicit VectorRecordSource(const std::vector<KV<K, V>>& r);\n"
            )
        lint = Linter(tmp)
        lint.check_one_job_form()
        expect("one-job-form", lint.violations, "job 'MrCountEdgesJob'")
        expect("one-job-form-vector", lint.violations, "job 'RunJob'")
        if len(lint.violations) != 2:
            failures.append(
                f"self-test: one-job-form flagged a source-form job or a "
                f"non-job: {lint.violations}")

    # 6. Ad-hoc flag reads outside the command table, and a typed read of
    # a flag the table never declares.
    with tempfile.TemporaryDirectory() as tmp:
        make_tree(tmp)
        os.makedirs(os.path.join(tmp, "src/cli"), exist_ok=True)
        with open(os.path.join(tmp, Linter.FLAG_TABLE), "w") as f:
            f.write('auto k = IntFlag("known", "1", "a declared flag");\n')
        with open(os.path.join(tmp, "src/cli/commands.cc"), "w") as f:
            f.write(
                'auto a = args.GetInt("adhoc", 3);\n'
                'auto b = args.Int("undeclared");\n'
                'auto c = args.Int("known");\n'
            )
        lint = Linter(tmp)
        lint.check_flag_table()
        expect("flag-table-get", lint.violations, 'Get*("adhoc")')
        expect("flag-table-undeclared", lint.violations, "--undeclared")
        if any("--known" in v for v in lint.violations):
            failures.append(
                f"self-test: declared flag wrongly flagged: {lint.violations}")

    # 7. The real tree must be clean (the blocking-CI contract).
    real = Linter(repo_root)
    real.check_failpoints()
    real.check_metrics()
    real.check_nodiscard()
    real.check_naked_new()
    real.check_tools_includes()
    real.check_override()
    real.check_one_read()
    real.check_one_job_form()
    real.check_flag_table()
    for v in real.violations:
        failures.append(f"self-test: real tree not clean: {v}")

    for f in failures:
        print(f, file=sys.stderr)
    print("self-test:", "FAILED" if failures else "ok",
          file=sys.stderr if failures else sys.stdout)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify every check fires on a seeded violation",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test(args.root)
    return Linter(args.root).run()


if __name__ == "__main__":
    sys.exit(main())
