#!/usr/bin/env python3
"""papc_lint — repo-specific determinism + architecture lint for papc.

Every engine in this repo promises fixed-seed, bit-identical trajectories
across thread counts, queue kinds, and scalar/SIMD kernels. Those contracts
are pinned by runtime equivalence tests, but nothing in the compiler stops
new code from quietly breaking them: iterating an unordered_map into a
result, constructing a private std::mt19937, merging shard state in
pool-completion order — or, since v2, failure modes no single translation
unit can exhibit: an include cycle, an engine reaching "up" through the
layer graph, src/ code that no entry point uses, or two call sites
deriving colliding Rng substreams. The tool runs two kinds of passes:

Per-file rules (token patterns on comment/string-blanked lines):

  D1 raw-rng              No direct <random> engine construction, <random>
                          include, std::rand/srand, or std::random_device
                          outside src/support/random.{hpp,cpp}. All draws
                          route through support::Rng / Rng::substream so
                          seeds derive deterministically.
  D2 unordered-iteration  No unordered associative containers in engine
                          code (src/{sync,async,cluster,population,sim,
                          opinion,api}): their iteration order is
                          implementation-defined and can reach results,
                          deltas, or JSON output.
  D3 raw-thread           No std::thread/std::jthread/std::async and no
                          atomic read-modify-write outside
                          support/thread_pool and the two executors
                          (sync::ShardedRoundDriver, sim::WindowedExecutor).
                          Parallelism routes through the pool; shard merges
                          are index-ordered, never completion-ordered.
  D4 wall-clock           No wall-clock / ambient-state sources in engine
                          code (everything under src/ except src/support/):
                          system_clock, high_resolution_clock, time(),
                          gettimeofday, localtime, getenv. A trajectory may
                          depend only on (seed, config).
  D5 simd-hygiene         Vector intrinsics (_mm*/__m128/__m256/__m512,
                          *intrin.h includes) only in
                          src/sync/simd_gather.cpp, which must carry
                          static_assert'ed layout checks; everything else
                          reaches SIMD through the support/cpu runtime
                          dispatch.
  D6 fault-hygiene        The fault layer stays behind its sanctioned
                          injection points: fault:: types and injector
                          draw calls appear only in src/fault/ and the
                          engine drivers that wire a FaultPlan in
                          (executors, simulation drivers, scenario/
                          registry plumbing) — never inside round/pair
                          kernels. Inside src/fault/ no stream may come
                          from the parent-advancing Rng::split(): every
                          fault stream derives through the pure
                          Rng::substream, so attaching an injector never
                          shifts an engine's random tape.
  D8 shard-capture        A lambda handed to support::ThreadPool::
                          parallel_for (or the sharded-driver entry points
                          for_each_shard / run_batched / run_shards*) that
                          captures by reference must not WRITE captured
                          state from inside the job body unless the write
                          lands in a slot indexed by a lambda parameter
                          (per_trial[r] = ...). Anything else is a
                          completion-order race on the deterministic merge
                          contract. Approximate by design: writes through
                          locally-bound references or member calls are
                          invisible at token level; known-safe folds carry
                          a justified suppression.
  D9 unsequenced-draw     One engine statement (src/ outside support/)
                          may draw at most once from each generator
                          outside braced init lists: C++ leaves the
                          evaluation order of call arguments and of `+`
                          operands unspecified, so `f(rng.uniform(),
                          rng.uniform())` or `a.sample(rng) +
                          b.sample(rng)` draws in a compiler-chosen order
                          and a fixed seed stops fixing the trajectory.
                          A draw is a consuming Rng method called on an
                          identifier ending in `rng` (rng.exponential(),
                          rng_->split()) or such an identifier passed
                          whole to a call (latency.sample(rng)). Braced
                          init lists evaluate left to right, so each
                          counts once for the statement and is checked
                          element by element. Move each draw into a
                          named local. Approximate by design: a draw
                          made inside a lambda that captures the
                          generator (t2_prime(), sample_node()) is
                          invisible at the call site, and draws split by
                          &&, || or ?: are still counted together.

Whole-program passes (need the full target set, not one file):

  L1 include-cycle        The repo include graph (headers resolved per-TU
                          from the compile database's -I flags) must be a
                          DAG. Any cycle is reported once with its path.
  L2 layer-violation      Every include edge must stay within its layer or
                          point strictly DOWN the committed layer manifest
                          (tools/papc_lint/layers.toml: support -> opinion
                          -> core -> fault -> sim -> analysis -> engines ->
                          runner -> api -> tests/bench/examples/tools).
                          Same-rank layers (the four engine families) may
                          not include each other. A file not covered by
                          the manifest is itself an L2 finding, so new
                          directories cannot bypass the map. The
                          manifest's [[allow]] entries whitelist individual
                          layer edges with a mandatory reason.
  L3 unreachable-source   Every src/ file must be reachable through the
                          include graph from an entry point: the roots are
                          every file under src/api/, bench/ and examples/
                          (tests do not count), and a src/x/y.cpp is
                          reached when src/x/y.hpp is. Code only a test
                          uses is dead weight; delete it or justify it.
  D7 substream-collision  Every Rng::substream(a, b) call site is
                          extracted across all TUs, constant labels are
                          resolved (including constexpr channel tags like
                          the fault layer's), and two distinct sites whose
                          label tuples can collide under the same parent
                          generator are reported — the correlated-stream
                          hazard that silently biases every consensus
                          statistic and that no per-file rule can see.
                          Sites are grouped by the textual parent
                          expression (msg_base_, base_rng, ...); a pair is
                          cleared when any label position is provably
                          different constants on both sides.

Coverage: the whole-program run lints src/, tests/, bench/ and examples/
(tests/tools/fixtures/ excluded — those files violate on purpose). Rules
are gated by a per-directory profile: engine-only rules (D2, D3, D6, D7,
D8) are relaxed for tests/, which deliberately exercise pools, atomics,
fault plans, and colliding substreams.

Suppressions: `// papc-lint: allow(D3): <justification>` on the violating
line, or on its own line to cover the next code line. The justification
after the colon is mandatory — an allow() without one is itself reported
(rule SUPP). For D7 the pair is cleared when either colliding site is
suppressed; for L1/L2 the anchor is the offending #include line, for
L3 line 1 of the unreached file.

Usage:
  papc_lint.py --compdb <builddir|compile_commands.json>   whole-program
  papc_lint.py --files a.cpp b.cpp [--as-dir src/sync]     per-file rules
  papc_lint.py --tree DIR                                  lint DIR as a
                                                           mini-repo (all
                                                           passes; fixture
                                                           trees)
  papc_lint.py --layers FILE       alternative layer manifest
  papc_lint.py --graph out.dot     file-level include graph (Graphviz)
  papc_lint.py --layer-graph out.dot  condensed layer DAG (Graphviz)
  papc_lint.py --json report.json  structured findings for tooling
  papc_lint.py --github ...        GitHub annotations
  papc_lint.py --list-rules        print rule table

Exits 0 when clean (or everything suppressed with justification), 1 when
violations remain, 2 on usage/IO/manifest errors.

Implementation note: the checks are lexical — a comment/string-aware
tokenizer plus per-rule token patterns and a paren-matching call-site
extractor — so the tool has zero dependencies beyond CPython (the layer
manifest parses through tomllib when available, with a built-in fallback
for the restricted schema). When the `clang` Python bindings (libclang)
are importable the same entry points could be upgraded to AST queries;
this container ships neither libclang.so nor the bindings, so the lexical
engine is the supported path and the rules are written to be unambiguous
at token level.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_MARKERS = ("CMakeLists.txt", "ROADMAP.md")

SUPPRESS_RE = re.compile(
    r"papc-lint:\s*allow\(\s*([A-Za-z0-9_,\-\s]+?)\s*\)\s*(?::\s*(\S.*))?$"
)

RULE_NAMES = {
    "D1": "raw-rng",
    "D2": "unordered-iteration",
    "D3": "raw-thread",
    "D4": "wall-clock",
    "D5": "simd-hygiene",
    "D6": "fault-hygiene",
    "D7": "substream-collision",
    "D8": "shard-capture",
    "D9": "unsequenced-draw",
    "L1": "include-cycle",
    "L2": "layer-violation",
    "L3": "unreachable-source",
    "SUPP": "suppression-justification",
}
NAME_TO_ID = {name: rule_id for rule_id, name in RULE_NAMES.items()}

# Which rules run where, by top-level directory. Engine-only rules (D2,
# D3, D6, D7, D8, D9) are relaxed for tests/: the pool, atomics, fault plans
# and substream collisions are exactly what the test suites exercise on
# purpose. bench/ and examples/ are user-facing consumer code: they keep
# the container/SIMD/clock hygiene rules and the shard-capture rule (a
# racy example teaches the race), but not the engine-internal fault/
# substream layering rules. The whole-program layer pass (L1-L3) is not
# listed here — it runs on the full include graph regardless.
PROFILES = {
    "src": {"D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "SUPP"},
    "tests": {"D1", "D4", "D5", "SUPP"},
    "bench": {"D1", "D2", "D4", "D5", "D8", "SUPP"},
    "examples": {"D1", "D2", "D4", "D5", "D8", "SUPP"},
    "tools": {"SUPP"},
}
DEFAULT_PROFILE = {"SUPP"}

# Deliberately-violating lint fixtures — never lint as part of the tree.
EXCLUDED_PREFIXES = ("tests/tools/fixtures/",)


def profile_for(relpath):
    top = relpath.split("/", 1)[0]
    return PROFILES.get(top, DEFAULT_PROFILE)


class Violation:
    def __init__(self, path, line, col, rule_id, message):
        self.path = path          # repo-relative display path
        self.line = line          # 1-based
        self.col = col            # 1-based
        self.rule_id = rule_id
        self.message = message

    def key(self):
        return (self.path, self.line, self.col, self.rule_id)


# --------------------------------------------------------------- tokenizer

def split_code_and_comments(text):
    """Blanks comments, string and char literals out of `text`, preserving
    line structure, and collects comment text per line.

    Returns (code_lines, comments_by_line) where code_lines[i] is line i+1
    with every comment/string character replaced by a space, and
    comments_by_line maps 1-based line numbers to the concatenated comment
    text that ends on that line (suppressions live in comments).
    """
    code = []
    comments = {}
    i = 0
    n = len(text)
    line = 1
    cur = []
    cur_comment = []

    def flush_line():
        nonlocal cur
        code.append("".join(cur))
        cur = []

    def note_comment(at_line):
        nonlocal cur_comment
        if cur_comment:
            comments[at_line] = comments.get(at_line, "") + "".join(cur_comment)
            cur_comment = []

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            # Line comment: runs to end of line (ignore continuations —
            # nobody continues suppression comments across lines).
            j = text.find("\n", i)
            if j == -1:
                j = n
            cur_comment.append(text[i:j])
            note_comment(line)
            cur.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            cur_comment.append(chunk)
            for ch in chunk:
                if ch == "\n":
                    flush_line()
                    line += 1
                else:
                    cur.append(" ")
            note_comment(line)
            i = j
        elif c == '"' and text[max(0, i - 1):i + 1] != 'R"' :
            # Ordinary string literal (raw strings handled below via the
            # R" prefix check; the prefix char itself was already emitted).
            cur.append(" ")
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    cur.append("  ")
                    i += 2
                    continue
                if text[i] == "\n":
                    flush_line()
                    line += 1
                    i += 1
                    continue
                cur.append(" ")
                i += 1
            if i < n:
                cur.append(" ")
                i += 1
        elif c == '"':  # raw string: R"delim( ... )delim"
            m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
            if not m:
                cur.append(" ")
                i += 1
                continue
            closer = ")" + m.group(1) + '"'
            j = text.find(closer, i + m.end())
            j = n if j == -1 else j + len(closer)
            for ch in text[i:j]:
                if ch == "\n":
                    flush_line()
                    line += 1
                else:
                    cur.append(" ")
            i = j
        elif c == "'":
            cur.append(" ")
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    cur.append("  ")
                    i += 2
                    continue
                cur.append(" ")
                i += 1
            if i < n:
                cur.append(" ")
                i += 1
        elif c == "\n":
            flush_line()
            line += 1
            i += 1
        else:
            cur.append(c)
            i += 1
    flush_line()
    return code, comments


# ------------------------------------------------------------ suppressions

class Suppressions:
    """Parsed `papc-lint: allow(...)` comments for one file.

    A suppression on a line with code covers that line; on a standalone
    comment line it covers the next line that has code. allow() without a
    `: justification` is recorded so the caller can emit a SUPP violation.
    """

    def __init__(self, code_lines, comments_by_line):
        self.covered = {}        # line -> set of rule ids
        self.unjustified = []    # (line, raw rule list)
        for cline, ctext in sorted(comments_by_line.items()):
            m = SUPPRESS_RE.search(ctext)
            if not m:
                continue
            raw, justification = m.group(1), m.group(2)
            ids = set()
            for token in re.split(r"[,\s]+", raw.strip()):
                if not token:
                    continue
                rule_id = NAME_TO_ID.get(token, token.upper())
                ids.add(rule_id)
            if not justification:
                self.unjustified.append((cline, raw.strip()))
                # Still honor the allow: one finding (SUPP), not two.
            # A standalone comment (possibly a multi-line block) covers the
            # next line that carries code.
            target = cline
            if not code_lines[cline - 1].strip():
                for look in range(cline, len(code_lines)):
                    if code_lines[look].strip():
                        target = look + 1
                        break
            self.covered.setdefault(target, set()).update(ids)
            # A same-line allow also covers the comment line itself.
            self.covered.setdefault(cline, set()).update(ids)

    def allows(self, line, rule_id):
        return rule_id in self.covered.get(line, set())


# ------------------------------------------------------------------- rules

class Rule:
    """One lint rule: an applicability predicate over repo-relative paths
    plus token patterns evaluated on comment/string-blanked lines. The
    per-directory PROFILES gate is applied on top by the driver."""

    def __init__(self, rule_id, applies, patterns):
        self.rule_id = rule_id
        self.name = RULE_NAMES[rule_id]
        self.applies = applies
        self.patterns = patterns  # list of (compiled_regex, message)

    def check(self, relpath, code_lines):
        out = []
        for lineno, code in enumerate(code_lines, start=1):
            for regex, message in self.patterns:
                for m in regex.finditer(code):
                    out.append(Violation(relpath, lineno, m.start() + 1,
                                         self.rule_id, message))
        return out


def _under(relpath, *prefixes):
    return any(relpath.startswith(p) for p in prefixes)


D1_EXEMPT = ("src/support/random.hpp", "src/support/random.cpp")
D2_DIRS = tuple(f"src/{d}/" for d in
                ("sync", "async", "cluster", "population", "sim", "opinion",
                 "api"))
D3_EXEMPT = ("src/support/thread_pool.hpp", "src/support/thread_pool.cpp",
             "src/sim/windowed_executor.hpp", "src/sync/round_kernel.hpp")
D5_ALLOWED = "src/sync/simd_gather.cpp"

# The sanctioned fault-injection surface: the layer itself plus every
# engine driver that wires a FaultPlan in. Kernels, queues, census and
# support code must stay fault-free — faults interpose at delivery /
# round / pair boundaries, never inside the hot loops.
D6_SANCTIONED = (
    "src/fault/",
    "src/sim/windowed_executor.hpp",
    "src/sim/event_engine.hpp", "src/sim/event_engine.cpp",
    "src/async/config.hpp",
    "src/async/single_leader_core.hpp", "src/async/single_leader_core.cpp",
    "src/async/simulation.hpp", "src/async/simulation.cpp",
    "src/async/sequential_simulation.hpp",
    "src/async/sequential_simulation.cpp",
    "src/async/validated_simulation.hpp",
    "src/async/validated_simulation.cpp",
    "src/cluster/config.hpp",
    "src/cluster/simulation.hpp", "src/cluster/simulation.cpp",
    "src/sync/engine.hpp",
    "src/sync/baselines.hpp", "src/sync/baselines.cpp",
    "src/sync/algorithm1.hpp", "src/sync/algorithm1.cpp",
    "src/population/scheduler.hpp", "src/population/scheduler.cpp",
    "src/api/scenario.hpp", "src/api/scenario.cpp",
    "src/api/registry.cpp",
)

RULES = [
    Rule(
        "D1",
        lambda p: p not in D1_EXEMPT,
        [
            (re.compile(r"\b(?:mt19937(?:_64)?|minstd_rand0?"
                        r"|default_random_engine|knuth_b"
                        r"|ranlux(?:24|48)(?:_base)?|random_device)\b"),
             "direct <random> engine/device; route draws through "
             "support::Rng / Rng::substream"),
            (re.compile(r"\bsrand\s*\(|\bstd\s*::\s*rand\b"
                        r"|(?<![\w:])rand\s*\(\s*\)"),
             "C rand()/srand(); route draws through support::Rng"),
            (re.compile(r"#\s*include\s*<random>"),
             "<random> include outside support/random; use support::Rng"),
        ],
    ),
    Rule(
        "D2",
        lambda p: not _under(p, "src/") or _under(p, *D2_DIRS),
        [
            (re.compile(r"\bunordered_(?:multi)?(?:map|set)\b"),
             "unordered container in engine code: iteration order is "
             "implementation-defined and can reach results/deltas/JSON; "
             "use std::map, a sorted vector, or index-keyed storage"),
        ],
    ),
    Rule(
        "D3",
        lambda p: p not in D3_EXEMPT,
        [
            (re.compile(r"\bstd\s*::\s*(?:jthread|thread)\b"
                        r"(?!\s*::\s*hardware_concurrency)"),
             "raw std::thread; route parallelism through "
             "support::ThreadPool (index-ordered merges)"),
            (re.compile(r"\bstd\s*::\s*async\b"),
             "std::async; route parallelism through support::ThreadPool"),
            (re.compile(r"\.\s*fetch_(?:add|sub|and|or|xor)\s*\("
                        r"|\.\s*compare_exchange_(?:weak|strong)\s*\("),
             "atomic read-modify-write outside the pool/executors: "
             "completion-order accumulation breaks bit-identical merges; "
             "merge per-shard results in index order"),
        ],
    ),
    Rule(
        "D4",
        lambda p: not _under(p, "src/support/"),
        [
            (re.compile(r"\bsystem_clock\b|\bhigh_resolution_clock\b"),
             "wall-clock source in engine code; trajectories may depend "
             "only on (seed, config)"),
            (re.compile(r"\bstd\s*::\s*time\b|(?<!\w)::time\s*\("
                        r"|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
             "time-of-day source in engine code"),
            (re.compile(r"\bgettimeofday\b|\bclock_gettime\b|\blocaltime\b"
                        r"|\bgmtime\b|(?<![\w:])clock\s*\(\s*\)"),
             "time-of-day source in engine code"),
            (re.compile(r"\bgetenv\b"),
             "environment-derived state in engine code; thread config "
             "through Scenario/Config instead"),
        ],
    ),
    Rule(
        "D5",
        lambda p: p != D5_ALLOWED,
        [
            (re.compile(r"\b_mm\d*_\w+|\b__m(?:64|128|256|512)[a-z]?\b"),
             "vector intrinsics outside sync/simd_gather.cpp; add kernels "
             "there behind the support/cpu dispatch"),
            (re.compile(r"#\s*include\s*<\w*intrin\.h>"),
             "intrinsics header outside sync/simd_gather.cpp"),
        ],
    ),
    Rule(
        "D6",
        lambda p: _under(p, "src/") and not _under(p, *D6_SANCTIONED),
        [
            (re.compile(r"\bfault\s*::\s*\w+|#\s*include\s*\"fault/"),
             "fault-layer reference outside the sanctioned injection "
             "points; faults interpose at the engine drivers and "
             "executors, never inside kernels or support code"),
            (re.compile(r"\bdraw_fate\s*\(|\bbyzantine_round_stream\s*\(|"
                        r"\bbyzantine_reports\s*\("),
             "injector draw call outside the sanctioned injection points"),
        ],
    ),
    Rule(
        "D6",
        lambda p: _under(p, "src/fault/"),
        [
            (re.compile(r"\.\s*split\s*\(\s*\)"),
             "parent-advancing Rng::split() in the fault layer; derive "
             "every fault stream via the pure Rng::substream so attaching "
             "an injector never shifts an engine's random tape"),
        ],
    ),
]

# simd_gather.cpp itself must pin its layout assumptions: the AVX2 paths
# hard-code 8-byte gather strides and 4-byte Opinion stores.
D5_REQUIRED_TOKEN = re.compile(r"\bstatic_assert\s*\(")


# ----------------------------------------------------- call-site extraction

def match_paren(text, open_idx, open_ch="(", close_ch=")"):
    """Index one past the matching close for text[open_idx] == open_ch, or
    -1 when unbalanced. text must be comment/string-blanked."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def split_top_commas(text):
    """Splits an argument blob on commas at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for c in text:
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth = max(0, depth - 1)
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


class LineIndex:
    """Maps an offset in '\n'.join(code_lines) back to a 1-based line."""

    def __init__(self, code_lines):
        self.starts = []
        pos = 0
        for line in code_lines:
            self.starts.append(pos)
            pos += len(line) + 1
        self.text = "\n".join(code_lines)

    def line_of(self, offset):
        lo, hi = 0, len(self.starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def col_of(self, offset):
        return offset - self.starts[self.line_of(offset) - 1] + 1


# ------------------------------------------------- D7: substream collisions

SUBSTREAM_CALL_RE = re.compile(r"(?<!:)\.\s*substream\s*\(")
CONSTEXPR_RE = re.compile(
    r"\bconstexpr\b[^=;(){}]*?\b([A-Za-z_]\w*)\s*=\s*([^;,{}]+);")
INT_LITERAL_RE = re.compile(r"^(0[xX][0-9a-fA-F]+|\d+)(?:[uUlL]{0,3})$")
CAST_RE = re.compile(r"^(?:static_cast|std\s*::\s*uint64_t|std\s*::\s*"
                     r"size_t)\s*(?:<[^<>]*>)?\s*\((.*)\)$")


class SubstreamSite:
    """One textual Rng::substream(a, b) call site."""

    def __init__(self, relpath, line, col, parent, labels, snippet):
        self.relpath = relpath
        self.line = line
        self.col = col
        self.parent = parent      # normalized parent expression text
        self.labels = labels      # [(kind, value)] kind in {const, var}
        self.snippet = snippet

    def describe_labels(self):
        out = []
        for kind, value in self.labels:
            out.append(str(value) if kind == "const" else f"<{value}>")
        return "(" + ", ".join(out) + ")"


def parse_constants(code_lines, table):
    """Collects single-line `constexpr ... name = <int literal>;` constants
    into `table` (name -> int, or None when ambiguously redefined)."""
    for code in code_lines:
        for m in CONSTEXPR_RE.finditer(code):
            name, value_text = m.group(1), m.group(2).strip()
            lit = INT_LITERAL_RE.match(value_text)
            if not lit:
                continue
            value = int(lit.group(1), 0)
            if name in table and table[name] != value:
                table[name] = None  # conflicting definitions: unusable
            elif name not in table:
                table[name] = value


def normalize_label(text, constants):
    """Classifies one substream label argument as a resolved constant or a
    variable shape. Casts are stripped; constexpr names resolve through
    `constants`."""
    text = text.strip()
    while True:
        m = CAST_RE.match(text)
        if not m:
            break
        text = m.group(1).strip()
    lit = INT_LITERAL_RE.match(text)
    if lit:
        return ("const", int(lit.group(1), 0))
    if re.fullmatch(r"[A-Za-z_]\w*", text):
        value = constants.get(text)
        if value is not None:
            return ("const", value)
    return ("var", re.sub(r"\s+", "", text) or "?")


def extract_substream_sites(relpath, index, constants):
    """All substream call sites in one file, with parent expressions and
    normalized labels."""
    sites = []
    text = index.text
    for m in SUBSTREAM_CALL_RE.finditer(text):
        # Walk left over the parent expression: identifiers chained with
        # '.', '->' or '::' (e.g. msg_base_, lanes_[s]->rng, fault::tag).
        j = m.start()
        k = j
        while k > 0 and (text[k - 1].isalnum() or text[k - 1] in "_.:>]-"):
            k -= 1
        parent = re.sub(r"\s+", "", text[k:j])
        if not parent:
            continue
        open_idx = text.index("(", m.start())
        close = match_paren(text, open_idx)
        if close == -1:
            continue
        args = split_top_commas(text[open_idx + 1:close - 1])
        if len(args) != 2:
            continue
        labels = [normalize_label(a, constants) for a in args]
        line = index.line_of(m.start())
        col = index.col_of(m.start())
        sites.append(SubstreamSite(relpath, line, col, parent, labels,
                                   text[k:close].strip()))
    return sites


def labels_may_collide(a, b):
    """True unless some label position is provably different constants."""
    for (ka, va), (kb, vb) in zip(a, b):
        if ka == "const" and kb == "const" and va != vb:
            return False
    return True


def audit_substreams(sites):
    """Pairs of distinct call sites whose label tuples can collide under
    the same (textual) parent generator. Returns [(site_a, site_b)]."""
    by_parent = {}
    for site in sites:
        by_parent.setdefault(site.parent, []).append(site)
    collisions = []
    for parent in sorted(by_parent):
        group = sorted(by_parent[parent],
                       key=lambda s: (s.relpath, s.line, s.col))
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                if labels_may_collide(a.labels, b.labels):
                    collisions.append((a, b))
    return collisions


# ---------------------------------------------------- D8: shard captures

POOL_ENTRY_RE = re.compile(
    r"\b(?:parallel_for|for_each_shard|run_batched|run_shards_inline"
    r"|run_shards)\b\s*(?:<[^;<>]*>\s*)?\(")
PARAM_NAME_RE = re.compile(r"(?<!:)\b([A-Za-z_]\w*)\s*$")
LOCAL_DECL_RE = re.compile(
    r"\b(?:const\s+|constexpr\s+)?(?:auto|[A-Za-z_][\w:]*"
    r"(?:\s*<[^;{}()=]*>)?)\s*[&*]{0,2}\s+([A-Za-z_]\w*)\s*[=;({]")
WRITE_RES = [
    re.compile(r"^\s*(?:\+\+|--)\s*([A-Za-z_]\w*)"),
    re.compile(r"^\s*([A-Za-z_]\w*)\s*(?:\+\+|--)"),
    re.compile(r"^\s*([A-Za-z_]\w*)"
               r"((?:\s*(?:\.|->)\s*\w+|\s*\[[^\]]*\])*)"
               r"\s*(?:[-+*/%&|^]|<<|>>)?=(?!=)"),
]


def param_names(param_text):
    """Trailing identifier of each top-level comma-separated parameter —
    blanked /*name*/ comments simply yield no name."""
    names = set()
    for part in split_top_commas(param_text):
        m = PARAM_NAME_RE.search(part.rstrip())
        if m and m.group(1) not in ("const", "auto"):
            names.add(m.group(1))
    return names


def find_lambda(text, start, end):
    """First lambda literal inside text[start:end): returns (capture_start,
    body_start, body_end) or None. A '[' introduces a lambda when the
    previous non-space char opens an argument position."""
    i = start
    while i < end:
        c = text[i]
        if c == "[":
            k = i - 1
            while k >= start and text[k].isspace():
                k -= 1
            if k < start or text[k] in "(,":
                cap_end = match_paren(text, i, "[", "]")
                if cap_end == -1:
                    return None
                j = cap_end
                while j < end and text[j].isspace():
                    j += 1
                if j < end and text[j] == "(":
                    j = match_paren(text, j)
                    if j == -1:
                        return None
                while j < end and text[j] != "{":
                    if text[j] == ";":
                        return None
                    j += 1
                if j >= end:
                    return None
                body_end = match_paren(text, j, "{", "}")
                if body_end == -1:
                    return None
                return (i, j, body_end)
        i += 1
    return None


def analyze_pool_lambda(relpath, index, cap_start, body_start, body_end):
    """D8 write analysis of one pool-job lambda. Returns violations."""
    text = index.text
    cap_end = match_paren(text, cap_start, "[", "]")
    captures = text[cap_start + 1:cap_end - 1]
    if "&" not in captures and "this" not in captures:
        return []  # by-value captures cannot race the merge contract

    params = set()
    j = cap_end
    while j < body_start and text[j].isspace():
        j += 1
    if j < body_start and text[j] == "(":
        pclose = match_paren(text, j)
        params = param_names(text[j + 1:pclose - 1])

    body = text[body_start + 1:body_end - 1]
    locals_ = set(LOCAL_DECL_RE.findall(body))
    # Nested lambda parameters are locals of the enclosing job body too.
    for m in re.finditer(r"\]\s*\(", body):
        pclose = match_paren(body, m.end() - 1)
        if pclose != -1:
            locals_ |= param_names(body[m.end():pclose - 1])

    out = []
    # Statement-leading positions: after ';', '{' or '}'.
    for stmt in re.finditer(r"[;{}]", body):
        seg_start = stmt.end()
        seg_end = len(body)
        nxt = re.search(r"[;{}]", body[seg_start:])
        if nxt:
            seg_end = seg_start + nxt.start()
        _check_write_segment(body, seg_start, seg_end, params, locals_,
                             relpath, index, body_start + 1, out)
    # The first statement of the body has no preceding ';'/'{' inside body.
    first_end = len(body)
    nxt = re.search(r"[;{}]", body)
    if nxt:
        first_end = nxt.start()
    _check_write_segment(body, 0, first_end, params, locals_,
                         relpath, index, body_start + 1, out)
    return out


def _check_write_segment(body, seg_start, seg_end, params, locals_,
                         relpath, index, body_offset, out):
    segment = body[seg_start:seg_end]
    for regex in WRITE_RES:
        m = regex.match(segment)
        if not m:
            continue
        target = m.group(1)
        chain = m.group(2) if m.lastindex and m.lastindex >= 2 else ""
        if target in params or target in locals_:
            return
        if target in ("if", "while", "for", "return", "case", "else",
                      "switch", "do", "break", "continue", "goto"):
            return
        # A write into a slot indexed by a job parameter is the sanctioned
        # per-task result pattern (per_trial[r] = ...).
        for sub in re.finditer(r"\[([^\]]*)\]", chain):
            tokens = set(re.findall(r"[A-Za-z_]\w*", sub.group(1)))
            if tokens & params:
                return
        offset = body_offset + seg_start + m.start(1)
        out.append(Violation(
            relpath, index.line_of(offset), index.col_of(offset), "D8",
            f"pool-job lambda writes captured '{target}' outside a "
            f"parameter-indexed slot: completion-order writes break the "
            f"bit-identical merge contract; accumulate per-shard and fold "
            f"in index order at the barrier (or suppress with a "
            f"justification for a provably shard-local fold)"))
        return


def extract_pool_lambda_violations(relpath, index):
    """Finds lambdas handed to the pool/driver entry points (inline or via
    a nearby `name = [...]` binding) and runs the D8 analysis on each."""
    text = index.text
    seen_bodies = set()
    out = []
    for m in POOL_ENTRY_RE.finditer(text):
        open_idx = text.index("(", m.start())
        close = match_paren(text, open_idx)
        if close == -1:
            continue
        found = find_lambda(text, open_idx + 1, close - 1)
        if found is None:
            # No lambda literal: resolve bare-identifier arguments bound to
            # a lambda earlier in the file (const auto body = [&](...) ...).
            for arg in split_top_commas(text[open_idx + 1:close - 1]):
                name = arg.strip()
                if not re.fullmatch(r"[A-Za-z_]\w*", name):
                    continue
                best = None
                for b in re.finditer(
                        rf"\b{re.escape(name)}\s*=\s*\[", text):
                    if b.start() < m.start():
                        best = b
                if best is None:
                    continue
                found = find_lambda(text, best.end() - 1, len(text))
                if found:
                    break
        if found is None:
            continue
        cap_start, body_start, body_end = found
        if (cap_start, body_end) in seen_bodies:
            continue
        seen_bodies.add((cap_start, body_end))
        out.extend(analyze_pool_lambda(relpath, index, cap_start,
                                       body_start, body_end))
    return out


# -------------------------------------------------- D9: unsequenced draws

D9_METHODS = ("split", "next_u64", "fill_u64", "uniform", "uniform_index",
              "uniform_index_excluding", "bernoulli", "exponential",
              "normal", "gamma", "weibull", "lognormal", "shuffle")
DRAW_METHOD_RE = re.compile(
    r"\b(\w*rng_?)\s*(?:\.|->)\s*(?:" + "|".join(D9_METHODS) + r")\s*\(")
DRAW_ARG_RE = re.compile(r"[(,]\s*\*?\s*(\w*rng_?)\s*(?=[,)])")
CONTROL_RE = re.compile(r"\b(?:if|while|for|switch|catch)\s*$")
BLOCK_WORD_RE = re.compile(r"\b(?:else|do|try|const|override|final|"
                           r"noexcept)$")
TYPE_HEAD_RE = re.compile(r"(?:^|[;{}])\s*(?:template\s*<[^{};]*>\s*)?"
                          r"(?:struct|class|union|enum|namespace)\b[^;{}]*$")


class _Expr:
    """One full expression: its draws (offset, generator) outside braced
    init lists, and the init lists it holds (each a list of element
    _Exprs, which are sequenced left to right)."""

    def __init__(self):
        self.draws = []
        self.lists = []

    def generators(self):
        out = {g for _, g in self.draws}
        for elements in self.lists:
            for element in elements:
                out |= element.generators()
        return out


def _is_lambda_head(text, close_paren):
    """True when the ')' at text[close_paren] closes a lambda's parameter
    list (the matching '(' follows a capture list's ']')."""
    depth = 0
    for k in range(close_paren, -1, -1):
        if text[k] == ")":
            depth += 1
        elif text[k] == "(":
            depth -= 1
            if depth == 0:
                k -= 1
                while k >= 0 and text[k].isspace():
                    k -= 1
                return k >= 0 and text[k] == "]"
    return False


def _brace_kind(text, i, parent_kind):
    """Classifies the '{' at text[i]: 'list' (a braced init list),
    'lambda' (a body the enclosing statement continues past) or 'block'
    (a compound statement, function, type or namespace body)."""
    j = i - 1
    while j >= 0 and text[j].isspace():
        j -= 1
    if j < 0:
        return "block"
    last = text[j]
    head = text[max(0, j - 300):j + 1]
    if last == "]":
        return "lambda"
    if last == ")":
        return "lambda" if _is_lambda_head(text, j) else "block"
    if last in "{,":
        return "list" if last == "," or parent_kind == "list" else "block"
    if last in ";}:":
        return "block"
    if last in "=(" or re.search(r"\breturn$", head):
        return "list"
    if re.search(r"\bmutable$", head):
        return "lambda"
    arrow = re.search(r"\)\s*(?:mutable\s*)?(?:noexcept\s*)?->[^;{}()=]*$",
                      head)
    if arrow:
        close = j - len(head) + 1 + arrow.start()
        return "lambda" if _is_lambda_head(text, close) else "block"
    if BLOCK_WORD_RE.search(head) or TYPE_HEAD_RE.search(head):
        return "block"
    return "list"


def _check_expr(expr, relpath, index, out):
    """Reports each generator drawn more than once in `expr` (a braced
    init list counts once), then checks every init-list element."""
    units = {}
    for offset, generator in expr.draws:
        units.setdefault(generator, []).append(offset)
    for elements in expr.lists:
        drawn = set()
        for element in elements:
            drawn |= element.generators()
        for generator in drawn:
            units.setdefault(generator, []).append(None)
    for generator, offsets in sorted(units.items()):
        anchors = [o for o in offsets if o is not None]
        if len(offsets) < 2 or not anchors:
            continue
        out.append(Violation(
            relpath, index.line_of(anchors[0]), index.col_of(anchors[0]),
            "D9",
            f"{len(offsets)} unsequenced draws from '{generator}' in one "
            f"statement: C++ leaves their order unspecified, so the "
            f"fixed-seed trajectory depends on the compiler; draw into "
            f"named locals first"))
    for elements in expr.lists:
        for element in elements:
            _check_expr(element, relpath, index, out)


def extract_unsequenced_draws(relpath, index):
    """D9: statements that draw twice from one generator with nothing
    sequencing the draws."""
    text = "\n".join(" " * len(line) if line.lstrip().startswith("#")
                     else line for line in index.text.split("\n"))
    draws = {}
    for regex in (DRAW_METHOD_RE, DRAW_ARG_RE):
        for m in regex.finditer(text):
            draws[m.start(1)] = m.group(1)
    out = []
    # Frames [kind, payload]: block/lambda hold the current statement's
    # _Expr, list its element _Exprs, paren whether it is a control head
    # (if/while/for/switch/catch), whose close ends the statement.
    stack = [["block", _Expr()]]

    def collector():
        for kind, payload in reversed(stack):
            if kind in ("block", "lambda"):
                return payload
            if kind == "list":
                return payload[-1]
        return stack[0][1]

    def end_statement():
        frame = stack[-1]
        if frame[0] in ("block", "lambda"):
            _check_expr(frame[1], relpath, index, out)
            frame[1] = _Expr()

    for i, c in enumerate(text):
        if i in draws:
            collector().draws.append((i, draws[i]))
        if c in "([":
            stack.append(["paren", c == "(" and bool(
                CONTROL_RE.search(text[max(0, i - 24):i]))])
        elif c in ")]":
            if len(stack) > 1 and stack[-1][0] == "paren":
                if stack.pop()[1]:
                    end_statement()
        elif c == "{":
            kind = _brace_kind(text, i, stack[-1][0])
            if kind == "list":
                elements = [_Expr()]
                collector().lists.append(elements)
                stack.append(["list", elements])
            else:
                if kind == "block":
                    end_statement()
                stack.append([kind, _Expr()])
        elif c == "}":
            if len(stack) > 1:
                kind, payload = stack.pop()
                if kind in ("block", "lambda"):
                    _check_expr(payload, relpath, index, out)
        elif c == ";":
            end_statement()
        elif c == "," and stack[-1][0] == "list":
            stack[-1][1].append(_Expr())
    end_statement()
    return out


# ----------------------------------------------------- layer manifest + L*

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# L3 entry points: what a user builds or calls. Tests do not count.
REACHABILITY_ROOTS = ("src/api/", "bench/", "examples/")


class LayerManifest:
    def __init__(self, layers, allowed):
        self.layers = layers      # name -> (rank, [path prefixes])
        self.allowed = allowed    # set of (from_layer, to_layer)
        # Longest-prefix lookup table.
        self._prefixes = sorted(
            ((prefix, name) for name, (_, prefixes) in layers.items()
             for prefix in prefixes),
            key=lambda e: -len(e[0]))

    def layer_of(self, relpath):
        for prefix, name in self._prefixes:
            if relpath.startswith(prefix):
                return name
        return None

    def rank_of(self, layer):
        return self.layers[layer][0]


def _fallback_parse_toml(text):
    """Minimal parser for the restricted layers.toml schema ([[layer]] /
    [[allow]] tables with string/int/string-array values) for Pythons
    without tomllib."""
    doc = {"layer": [], "allow": []}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"\[\[(\w+)\]\]", line)
        if m:
            current = {}
            doc.setdefault(m.group(1), []).append(current)
            continue
        m = re.fullmatch(r"(\w+)\s*=\s*(.+)", line)
        if not m or current is None:
            raise ValueError(f"unsupported layers.toml line: {raw!r}")
        key, value = m.group(1), m.group(2).strip()
        if value.startswith("["):
            current[key] = re.findall(r'"([^"]*)"', value)
        elif value.startswith('"'):
            current[key] = value.strip('"')
        else:
            current[key] = int(value)
    return doc


def load_manifest(path):
    """Parses and validates layers.toml. Raises ValueError on any problem
    (the CI gate treats a broken manifest as a hard configure error)."""
    text = path.read_text(encoding="utf-8")
    try:
        import tomllib
        doc = tomllib.loads(text)
    except ModuleNotFoundError:
        doc = _fallback_parse_toml(text)
    layers = {}
    for entry in doc.get("layer", []):
        name = entry.get("name")
        rank = entry.get("rank")
        paths = entry.get("paths")
        if not name or not isinstance(rank, int) or not paths:
            raise ValueError(
                f"layers.toml: every [[layer]] needs name/rank/paths "
                f"(got {entry!r})")
        if name in layers:
            raise ValueError(f"layers.toml: duplicate layer {name!r}")
        layers[name] = (rank, list(paths))
    if not layers:
        raise ValueError("layers.toml: no [[layer]] entries")
    allowed = set()
    for entry in doc.get("allow", []):
        src, dst, reason = (entry.get("from"), entry.get("to"),
                            entry.get("reason"))
        if not src or not dst or not reason:
            raise ValueError(
                "layers.toml: every [[allow]] needs from/to/reason "
                "(the reason is mandatory, like a suppression "
                "justification)")
        for layer in (src, dst):
            if layer not in layers:
                raise ValueError(
                    f"layers.toml: [[allow]] references unknown layer "
                    f"{layer!r}")
        allowed.add((src, dst))
    return LayerManifest(layers, allowed)


class IncludeGraph:
    """File-level include DAG over the lint targets, edges resolved
    per-TU against the compile database's -I directories."""

    def __init__(self, root):
        self.root = root
        self.edges = {}           # relpath -> {included relpath: line}

    def add_file(self, relpath, path, raw_lines, code_lines, incdirs):
        out = self.edges.setdefault(relpath, {})
        for lineno, raw in enumerate(raw_lines, start=1):
            # The tokenizer blanks string literals, so match the raw line
            # for the path — but require the directive to survive blanking,
            # which drops commented-out includes.
            m = INCLUDE_RE.match(raw)
            if not m or not re.match(r"\s*#\s*include\b",
                                     code_lines[lineno - 1]):
                continue
            target = self._resolve(m.group(1), path, incdirs)
            if target is not None and target not in out:
                out[target] = lineno

    def _resolve(self, spec, including, incdirs):
        for base in [including.parent, *incdirs]:
            candidate = (base / spec)
            if candidate.is_file():
                try:
                    rel = candidate.resolve().relative_to(self.root)
                except ValueError:
                    return None  # outside the repo (system/gtest): ignore
                return rel.as_posix()
        return None

    def find_cycles(self):
        """One representative path per include cycle, deterministically.
        Returns [(cycle_path_list, anchor_file, anchor_line)] where the
        anchor is the include edge closing the cycle."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {}
        stack = []
        cycles = []

        def dfs(node):
            color[node] = GRAY
            stack.append(node)
            for target in sorted(self.edges.get(node, {})):
                state = color.get(target, WHITE)
                if state == GRAY:
                    start = stack.index(target)
                    cycle = stack[start:] + [target]
                    cycles.append(
                        (cycle, node, self.edges[node][target]))
                elif state == WHITE:
                    dfs(target)
            stack.pop()
            color[node] = BLACK

        sys.setrecursionlimit(max(10000, sys.getrecursionlimit()))
        for node in sorted(self.edges):
            if color.get(node, WHITE) == WHITE:
                dfs(node)
        return cycles

    def reachable_from(self, roots):
        """Every file reachable from `roots` along include edges, where a
        reached src/x/y.hpp also reaches its src/x/y.cpp."""
        reached = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in reached:
                continue
            reached.add(node)
            stack.extend(self.edges.get(node, {}))
            if node.endswith(".hpp"):
                twin = node[:-len(".hpp")] + ".cpp"
                if twin in self.edges:
                    stack.append(twin)
        return reached

    def layer_edges(self):
        """Condensed (from_layer, to_layer) -> count view, manifest applied
        by the caller."""
        return {(a, b): line for a, targets in self.edges.items()
                for b, line in targets.items()}


def check_layers(graph, manifest, lint_targets):
    """L1 + L2 + L3 violations over the include graph."""
    violations = []
    for cycle, anchor, line in graph.find_cycles():
        path_text = " -> ".join(cycle)
        violations.append(Violation(
            anchor, line, 1, "L1",
            f"include cycle: {path_text}; break the cycle (forward-declare "
            f"or move the shared type down a layer)"))

    target_set = set(lint_targets)
    for src_file in sorted(graph.edges):
        src_layer = manifest.layer_of(src_file)
        if src_layer is None:
            if src_file in target_set:
                violations.append(Violation(
                    src_file, 1, 1, "L2",
                    "file not covered by layers.toml; add its directory "
                    "to a [[layer]] entry so the layer graph stays "
                    "complete"))
            continue
        for dst_file, line in sorted(graph.edges[src_file].items()):
            dst_layer = manifest.layer_of(dst_file)
            if dst_layer is None:
                continue  # reported once as the file's own L2 above
            if dst_layer == src_layer:
                continue
            if (src_layer, dst_layer) in manifest.allowed:
                continue
            src_rank = manifest.rank_of(src_layer)
            dst_rank = manifest.rank_of(dst_layer)
            if dst_rank > src_rank:
                violations.append(Violation(
                    src_file, line, 1, "L2",
                    f"upward include: layer '{src_layer}' (rank "
                    f"{src_rank}) includes '{dst_file}' from layer "
                    f"'{dst_layer}' (rank {dst_rank}); depend only on "
                    f"lower layers, or add a justified [[allow]] edge to "
                    f"layers.toml"))
            elif dst_rank == src_rank:
                violations.append(Violation(
                    src_file, line, 1, "L2",
                    f"cross-layer include between same-rank layers "
                    f"'{src_layer}' and '{dst_layer}': sibling layers "
                    f"(e.g. the engine families) stay mutually "
                    f"independent"))

    reached = graph.reachable_from(
        f for f in graph.edges if f.startswith(REACHABILITY_ROOTS))
    for src_file in sorted(graph.edges):
        if src_file.startswith("src/") and src_file not in reached:
            violations.append(Violation(
                src_file, 1, 1, "L3",
                "unreachable source: no file under src/api/, bench/ or "
                "examples/ reaches it through includes (tests do not "
                "count; a .cpp is reached with its .hpp); delete it, or "
                "justify it with an inline allow(L3)"))
    return violations


def emit_graph_dot(graph, manifest, violations, out_path):
    """File-level include graph as Graphviz, clustered by layer, with
    violating edges drawn red."""
    bad_edges = set()
    for v in violations:
        if v.rule_id in ("L1", "L2"):
            bad_edges.add((v.path, v.line))
    by_layer = {}
    for node in graph.edges:
        by_layer.setdefault(manifest.layer_of(node) or "?", []).append(node)
    lines = ["digraph papc_includes {",
             "  rankdir=BT;",
             "  node [shape=box, fontsize=9, margin=\"0.06,0.03\"];",
             "  edge [arrowsize=0.5, color=\"#999999\"];"]
    for layer in sorted(by_layer,
                        key=lambda l: manifest.layers.get(
                            l, (9999, []))[0]):
        rank = manifest.layers.get(layer, (None,))[0]
        lines.append(f"  subgraph \"cluster_{layer}\" {{")
        label = layer if rank is None else f"{layer} (rank {rank})"
        lines.append(f"    label=\"{label}\"; color=\"#bbbbbb\";")
        for node in sorted(by_layer[layer]):
            lines.append(f"    \"{node}\";")
        lines.append("  }")
    for src in sorted(graph.edges):
        for dst, line in sorted(graph.edges[src].items()):
            attr = ""
            if (src, line) in bad_edges:
                attr = " [color=red, penwidth=1.6]"
            lines.append(f"  \"{src}\" -> \"{dst}\"{attr};")
    lines.append("}")
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_layer_dot(graph, manifest, out_path):
    """Condensed layer-level DAG (the README diagram source)."""
    counts = {}
    for src, targets in graph.edges.items():
        src_layer = manifest.layer_of(src)
        for dst in targets:
            dst_layer = manifest.layer_of(dst)
            if (src_layer and dst_layer and src_layer != dst_layer):
                key = (src_layer, dst_layer)
                counts[key] = counts.get(key, 0) + 1
    lines = ["digraph papc_layers {",
             "  rankdir=BT;",
             "  node [shape=box, fontsize=11];"]
    for name in sorted(manifest.layers,
                       key=lambda n: (manifest.layers[n][0], n)):
        rank = manifest.layers[name][0]
        lines.append(f"  \"{name}\" [label=\"{name}\\nrank {rank}\"];")
    for (src, dst) in sorted(counts):
        lines.append(
            f"  \"{src}\" -> \"{dst}\" [label=\"{counts[(src, dst)]}\","
            f" fontsize=9];")
    lines.append("}")
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --------------------------------------------------------------- lint core

class FileLint:
    """Per-file lint artifacts shared by the per-file and whole-program
    passes: blanked code, suppressions, call-site extractions."""

    def __init__(self, path, relpath, text):
        self.path = path
        self.relpath = relpath
        self.raw_lines = text.splitlines()
        self.code_lines, comments = split_code_and_comments(text)
        self.supp = Suppressions(self.code_lines, comments)
        self.index = LineIndex(self.code_lines)

    def snippet(self, line):
        if 1 <= line <= len(self.raw_lines):
            return self.raw_lines[line - 1].strip()
        return ""


def lint_per_file(fl):
    """All per-file rule violations (raw, pre-suppression) for one file."""
    profile = profile_for(fl.relpath)
    raw = []
    for rule in RULES:
        if rule.rule_id in profile and rule.applies(fl.relpath):
            raw.extend(rule.check(fl.relpath, fl.code_lines))

    if "D8" in profile:
        raw.extend(extract_pool_lambda_violations(fl.relpath, fl.index))

    if "D9" in profile and not _under(fl.relpath, "src/support/"):
        raw.extend(extract_unsequenced_draws(fl.relpath, fl.index))

    if fl.relpath == D5_ALLOWED and not any(
            D5_REQUIRED_TOKEN.search(line) for line in fl.code_lines):
        raw.append(Violation(
            fl.relpath, 1, 1, "D5",
            "simd_gather.cpp carries intrinsics but no static_assert'ed "
            "layout checks; pin the lane/stride assumptions"))
    return raw


def apply_suppressions(raw, files_by_relpath):
    """Splits raw violations into (active, suppressed) against each file's
    suppression table, and appends SUPP findings for bare allow()s."""
    active, suppressed = [], []
    for v in raw:
        fl = files_by_relpath.get(v.path)
        if fl is not None and fl.supp.allows(v.line, v.rule_id):
            suppressed.append(v)
        else:
            active.append(v)
    return active, suppressed


# -------------------------------------------------------------- file lists

def find_repo_root(start):
    p = start.resolve()
    for candidate in [p, *p.parents]:
        if all((candidate / m).exists() for m in REPO_MARKERS):
            return candidate
    return start.resolve()


def incdirs_from_compdb(compdb_arg, root):
    """Per-file -I directories from the compile database, plus the set of
    TU files it lists inside the repo. Returns (tu_files, incdirs_map,
    default_incdirs) or None on error."""
    compdb_path = Path(compdb_arg)
    if compdb_path.is_dir():
        compdb_path = compdb_path / "compile_commands.json"
    if not compdb_path.is_file():
        print(f"papc_lint: no compile database at {compdb_path} "
              f"(configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON)",
              file=sys.stderr)
        return None
    try:
        entries = json.loads(compdb_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        print(f"papc_lint: cannot parse {compdb_path}: {err}",
              file=sys.stderr)
        return None

    tu_files = set()
    incdirs_map = {}
    all_incdirs = []
    for entry in entries:
        f = Path(entry.get("file", ""))
        directory = Path(entry.get("directory", "."))
        if not f.is_absolute():
            f = directory / f
        try:
            f = f.resolve()
        except OSError:
            continue
        command = entry.get("command", "") or " ".join(
            entry.get("arguments", []))
        incdirs = []
        for m in re.finditer(r"-I\s*(\S+)", command):
            d = Path(m.group(1))
            if not d.is_absolute():
                d = directory / d
            incdirs.append(d)
            if d not in all_incdirs:
                all_incdirs.append(d)
        incdirs_map[f] = incdirs
        if f.is_file() and str(f).startswith(str(root) + "/"):
            tu_files.add(f)
    default = [d for d in all_incdirs] or [root / "src"]
    return tu_files, incdirs_map, default


def sweep_tree(root, dirs=("src", "tests", "bench", "examples")):
    """Every .cpp/.hpp under the given top-level dirs (fixtures excluded).
    This keeps coverage independent of which targets the build that
    exported the compile database enabled."""
    files = set()
    for top in dirs:
        base = root / top
        if not base.is_dir():
            continue
        for pattern in ("*.cpp", "*.hpp"):
            for f in base.rglob(pattern):
                rel = f.resolve().relative_to(root).as_posix()
                if any(rel.startswith(p) for p in EXCLUDED_PREFIXES):
                    continue
                files.add(f.resolve())
    return files


# -------------------------------------------------------------------- main

def build_report(targets_count, active, suppressed, files_by_relpath):
    def row(v, status):
        fl = files_by_relpath.get(v.path)
        return {
            "rule": v.rule_id,
            "name": RULE_NAMES.get(v.rule_id, v.rule_id),
            "file": v.path,
            "line": v.line,
            "col": v.col,
            "message": v.message,
            "snippet": fl.snippet(v.line) if fl else "",
            "status": status,
        }
    findings = [row(v, "violation") for v in active]
    findings += [row(v, "suppressed") for v in suppressed]
    findings.sort(key=lambda r: (r["file"], r["line"], r["col"], r["rule"]))
    return {
        "tool": "papc_lint",
        "version": 2,
        "summary": {
            "files": targets_count,
            "violations": len(active),
            "suppressed": len(suppressed),
        },
        "findings": findings,
    }


def main(argv):
    parser = argparse.ArgumentParser(
        prog="papc_lint",
        description="determinism + architecture lint for papc "
                    "(rules D1-D9, L1-L3; see --list-rules)")
    parser.add_argument("--compdb", metavar="BUILDDIR",
                        help="build dir (or compile_commands.json); lints "
                             "the whole repo (src/tests/bench/examples) "
                             "with includes resolved per-TU")
    parser.add_argument("--files", nargs="+", metavar="FILE",
                        help="explicit files to lint (fixture/test mode; "
                             "per-file rules + D7 within the set)")
    parser.add_argument("--tree", metavar="DIR",
                        help="lint DIR as a self-contained mini-repo (all "
                             "passes incl. the layer graph; fixture trees)")
    parser.add_argument("--as-dir", metavar="RELDIR",
                        help="with --files: pretend each file lives in this "
                             "repo-relative directory (rule scoping)")
    parser.add_argument("--root", metavar="DIR",
                        help="repo root (default: auto-detected)")
    parser.add_argument("--layers", metavar="FILE",
                        help="layer manifest (default: layers.toml next to "
                             "this script)")
    parser.add_argument("--graph", metavar="OUT.dot",
                        help="write the file-level include graph (Graphviz)")
    parser.add_argument("--layer-graph", metavar="OUT.dot",
                        help="write the condensed layer DAG (Graphviz)")
    parser.add_argument("--json", metavar="OUT.json",
                        help="write findings as structured JSON "
                             "(rule/file/line/snippet/suppression status)")
    parser.add_argument("--github", action="store_true",
                        help="emit GitHub Actions annotations")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, name in RULE_NAMES.items():
            print(f"{rule_id:5} {name}")
        return 0

    if args.tree:
        root = Path(args.tree).resolve()
    elif args.root:
        root = Path(args.root).resolve()
    else:
        root = find_repo_root(
            Path(args.compdb or args.files and args.files[0] or "."))

    manifest = None
    run_layer_pass = bool(args.compdb or args.tree)
    if run_layer_pass or args.layers:
        manifest_path = (Path(args.layers) if args.layers
                         else Path(__file__).resolve().parent / "layers.toml")
        try:
            manifest = load_manifest(manifest_path)
        except (OSError, ValueError) as err:
            print(f"papc_lint: bad layer manifest: {err}", file=sys.stderr)
            return 2

    incdirs_map = {}
    default_incdirs = [root / "src"]
    if args.compdb:
        loaded = incdirs_from_compdb(args.compdb, root)
        if loaded is None:
            return 2
        tu_files, incdirs_map, default_incdirs = loaded
        files = sweep_tree(root) | tu_files
        targets = sorted(
            (f, f.relative_to(root).as_posix()) for f in files
            if str(f).startswith(str(root) + "/"))
    elif args.tree:
        files = sweep_tree(root, dirs=tuple(
            p.name for p in sorted(root.iterdir()) if p.is_dir()))
        default_incdirs = [root / "src", root]
        targets = sorted((f, f.relative_to(root).as_posix()) for f in files)
        if not targets:
            print(f"papc_lint: no lintable files under {root}",
                  file=sys.stderr)
            return 2
    elif args.files:
        targets = []
        for name in args.files:
            f = Path(name).resolve()
            if args.as_dir:
                rel = f"{args.as_dir.rstrip('/')}/{f.name}"
            else:
                try:
                    rel = f.relative_to(root).as_posix()
                except ValueError:
                    rel = f.name
            targets.append((f, rel))
    else:
        parser.error("one of --compdb, --tree or --files is required")
        return 2

    # ------------------------------------------------- pass 1: per file
    files_by_relpath = {}
    raw = []
    constants = {}
    substream_sites = []
    graph = IncludeGraph(root) if run_layer_pass else None
    for path, relpath in targets:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as err:
            print(f"papc_lint: cannot read {path}: {err}", file=sys.stderr)
            return 2
        fl = FileLint(path, relpath, text)
        files_by_relpath[relpath] = fl
        raw.extend(lint_per_file(fl))
        parse_constants(fl.code_lines, constants)
        if graph is not None:
            graph.add_file(relpath, path, fl.raw_lines, fl.code_lines,
                           incdirs_map.get(path, default_incdirs))

    # --------------------------------------- pass 2: substream audit (D7)
    for relpath, fl in sorted(files_by_relpath.items()):
        if "D7" in profile_for(relpath):
            substream_sites.extend(
                extract_substream_sites(relpath, fl.index, constants))
    for a, b in audit_substreams(substream_sites):
        a_fl = files_by_relpath.get(a.relpath)
        b_fl = files_by_relpath.get(b.relpath)
        # A justified suppression on EITHER end clears the pair; route it
        # through the normal machinery by extending the anchor's cover.
        if ((a_fl and a_fl.supp.allows(a.line, "D7")) and b_fl):
            b_fl.supp.covered.setdefault(b.line, set()).add("D7")
        raw.append(Violation(
            b.relpath, b.line, b.col, "D7",
            f"substream labels {b.describe_labels()} under parent "
            f"'{b.parent}' may collide with {a.relpath}:{a.line} "
            f"{a.describe_labels()} — colliding (parent, labels) tuples "
            f"derive correlated streams; disambiguate a label component "
            f"or suppress with a justification on either site"))

    # -------------------------------------------- pass 3: layer graph (L*)
    layer_violations = []
    if graph is not None and manifest is not None:
        lint_target_rels = [rel for _, rel in targets]
        layer_violations = check_layers(graph, manifest, lint_target_rels)
        raw.extend(layer_violations)

    # ----------------------------------------------- suppressions + output
    active, suppressed_list = apply_suppressions(raw, files_by_relpath)
    for relpath, fl in sorted(files_by_relpath.items()):
        for line, rules in fl.supp.unjustified:
            if "SUPP" not in profile_for(relpath):
                continue
            active.append(Violation(
                relpath, line, 1, "SUPP",
                f"papc-lint: allow({rules}) has no justification; write "
                f"`papc-lint: allow({rules}): <why this is safe>`"))

    if graph is not None and manifest is not None:
        if args.graph:
            emit_graph_dot(graph, manifest, active, Path(args.graph))
        if args.layer_graph:
            emit_layer_dot(graph, manifest, Path(args.layer_graph))
    elif args.graph or args.layer_graph:
        print("papc_lint: --graph/--layer-graph need --compdb or --tree",
              file=sys.stderr)
        return 2

    active.sort(key=Violation.key)
    for v in active:
        name = RULE_NAMES.get(v.rule_id, v.rule_id)
        if args.github:
            print(f"::error file={v.path},line={v.line},col={v.col},"
                  f"title=papc_lint {v.rule_id} ({name})::{v.message}")
        else:
            print(f"{v.path}:{v.line}:{v.col}: [{v.rule_id} {name}] "
                  f"{v.message}")

    if args.json:
        report = build_report(len(targets), active, suppressed_list,
                              files_by_relpath)
        Path(args.json).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"papc_lint: {len(targets)} files, {len(active)} "
          f"violation(s), {len(suppressed_list)} suppressed",
          file=sys.stderr)
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
