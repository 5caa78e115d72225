#!/usr/bin/env python3
"""Check docs/*.md + README.md against the repo: links and the nsflow CLI.

Three passes, no network:

1. Relative markdown links must resolve — file part *and* `#anchor`
   fragment. External links (http/https/mailto) are skipped; everything
   else is resolved against the linking file's directory (or the repo
   root for absolute-style paths) and must exist. A fragment (in-page or
   cross-file) must match a GitHub heading slug in the target markdown
   file: lowercased, punctuation stripped, spaces hyphenated, duplicate
   headings suffixed -1, -2, ... — the same anchors github.com renders.

2. Every `src/<dir>/` subsystem must be *named* by at least one doc
   (README.md or docs/*.md): a new source directory cannot land without
   a sentence somewhere saying what it is. docs/README.md is the
   intended home, but any doc satisfies the check.

3. The docs and the CLI must agree. The per-command flag tables in
   src/tools/nsflow_cli.cpp (the single source of `--help` and flag
   validation) are parsed, then:
     * every `nsflow <subcommand>` invocation in a fenced code block must
       name a real subcommand and use only that subcommand's flags
       (backslash continuations are followed);
     * every markdown flag-table row (tables under a heading mentioning
       "flag", or with a "Flag" column) may only document flags the CLI
       actually has — and so may any table row, in any table, whose first
       cell is a `--flag` (a stale row for a removed flag fails wherever
       it sits);
     * a heading that names one command's flag reference (e.g.
       "## `nsflow serve` flags") arms the *completeness* drift check:
       the section's table rows must cover every flag that command
       accepts — adding a CLI flag without documenting it there fails;
     * conversely, every user-facing CLI flag and subcommand must be
       mentioned somewhere in README.md or docs/*.md.

Exits non-zero listing every violation.
"""
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_SOURCE = os.path.join(REPO_ROOT, "src", "tools", "nsflow_cli.cpp")

# [text](target) — excluding images is unnecessary; they must resolve too.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def md_files():
    files = [os.path.join(REPO_ROOT, "README.md")]
    docs = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                files.append(os.path.join(docs, name))
    return [f for f in files if os.path.isfile(f)]


def github_slug(heading):
    """The anchor GitHub renders for a markdown heading line."""
    text = heading.lstrip("#").strip()
    # Keep link text, drop the URL; drop inline-code backticks.
    text = re.sub(r"\[([^\]]*)\]\([^)\s]*\)", r"\1", text)
    text = text.replace("`", "").lower()
    # Word chars, spaces, and hyphens survive; everything else vanishes
    # (so an em dash contributes nothing and its flanking spaces become
    # the doubled hyphen GitHub produces).
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path, _cache={}):
    """All heading anchors of one markdown file (fences skipped,
    duplicate slugs suffixed -1, -2, ... exactly as GitHub does)."""
    if path in _cache:
        return _cache[path]
    anchors = set()
    counts = {}
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence or not re.match(r"#{1,6}\s", line):
                continue
            slug = github_slug(line)
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
    _cache[path] = anchors
    return anchors


def check(path):
    broken = []
    with open(path, encoding="utf-8") as f:
        text = f.read()
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, fragment = target.partition("#")
        if not file_part:  # In-page anchor: resolve against this file.
            resolved = path
        elif file_part.startswith("/"):
            resolved = os.path.join(REPO_ROOT, file_part.lstrip("/"))
        else:
            resolved = os.path.join(os.path.dirname(path), file_part)
        if not os.path.exists(resolved):
            broken.append((target, resolved))
            continue
        if fragment and resolved.endswith(".md"):
            if fragment not in anchors_of(resolved):
                broken.append(
                    (target, f"{resolved} has no heading #{fragment}"))
    return broken


def check_subsystem_coverage(files):
    """Every src/<dir>/ subsystem must be named by at least one doc."""
    src = os.path.join(REPO_ROOT, "src")
    subsystems = sorted(d for d in os.listdir(src)
                        if os.path.isdir(os.path.join(src, d)))
    corpus = ""
    for path in files:
        with open(path, encoding="utf-8") as f:
            corpus += f.read()
    problems = []
    for name in subsystems:
        if not re.search(rf"src/{re.escape(name)}(?![\w-])", corpus):
            problems.append(
                f"subsystem src/{name}/ is not named by any doc — add it "
                "to docs/README.md (or the doc that owns it)")
    return problems


def parse_cli_spec():
    """Flags per subcommand from nsflow_cli.cpp's spec tables.

    FlagSpec rows look like `{"--qps", "F", "100", "..."}` and CommandSpec
    rows open with `{"serve", ...`; kDseFlags (appended to commands via
    WithDseFlags) is parsed from its own initializer.
    """
    with open(CLI_SOURCE, encoding="utf-8") as f:
        text = f.read()

    dse_block = re.search(
        r"kDseFlags\s*=\s*\{(.*?)\n\};", text, re.DOTALL)
    dse_flags = set(re.findall(r'\{"(--[a-z0-9-]+)"', dse_block.group(1)))

    commands_block = re.search(
        r"kCommands\s*=\s*\{(.*?)\n\s*\};", text, re.DOTALL)
    commands = {}
    # Split on command openers: {"name", "operand", or {"name", "",
    current = None
    for line in commands_block.group(1).splitlines():
        opener = re.match(r'\s*\{"([a-z][a-z0-9-]*)",', line)
        flag = re.search(r'\{"(--[a-z0-9-]+)"', line)
        if opener:
            current = opener.group(1)
            commands[current] = set()
            if "WithDseFlags" in line:
                commands[current] |= dse_flags
        elif current is not None:
            if "WithDseFlags" in line:
                commands[current] |= dse_flags
            if flag:
                commands[current].add(flag.group(1))
    # --help is accepted everywhere but intentionally undocumented per-row.
    for flags in commands.values():
        flags.add("--help")
    return commands


def check_cli_docs(files, commands):
    """Cross-check doc-mentioned subcommands/flags against the CLI spec."""
    problems = []
    all_flags = set().union(*commands.values())
    mentioned = ""  # Concatenated doc text for the reverse check.

    for path in files:
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        mentioned += "\n".join(lines)

        in_fence = False
        heading = ""
        in_flag_table = False  # Inside a table whose header names a Flag
                               # column (or that sits under a "flags"
                               # heading).
        logical = None  # Backslash-continued command line.

        # Completeness scope: a heading naming one command's flag table
        # ("## `nsflow serve` flags") collects the section's documented
        # flags and, at the next heading (or EOF), requires the full set.
        armed_command = None
        armed_flags = set()

        def finish_flag_table():
            nonlocal armed_command, armed_flags
            if armed_command is not None:
                for flag in sorted(commands[armed_command] - {"--help"} -
                                   armed_flags):
                    problems.append(
                        f"{rel}: flag table for `nsflow {armed_command}` "
                        f"does not document {flag} (drift: the CLI accepts "
                        "it)")
            armed_command = None
            armed_flags = set()

        for line in lines:
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                logical = None
                continue
            if not in_fence and line.startswith("#"):
                finish_flag_table()
                heading = line.lower()
                named = re.search(r"nsflow\s+([a-z][a-z0-9-]*)", heading)
                if "flag" in heading and named and named.group(1) in commands:
                    armed_command = named.group(1)
                continue
            if not in_fence and not line.startswith("|"):
                in_flag_table = False

            if in_fence:
                # Stitch backslash continuations into one logical line.
                if logical is not None:
                    logical += " " + line.strip()
                elif re.match(r"\s*(\./build/)?nsflow(\s|$)", line):
                    logical = line.strip()
                if logical is None:
                    continue
                if logical.endswith("\\"):
                    logical = logical[:-1]
                    continue
                tokens = logical.replace("./build/", "").split()
                logical = None
                sub = tokens[1] if len(tokens) > 1 else ""
                if sub.startswith("-") and sub not in ("--help", "-h"):
                    problems.append(f"{rel}: `nsflow {sub}` without a "
                                    "subcommand")
                    continue
                if not sub or sub in ("--help", "-h", "help"):
                    continue
                if sub not in commands:
                    problems.append(f"{rel}: unknown subcommand in example: "
                                    f"nsflow {sub}")
                    continue
                for token in tokens[2:]:
                    if token.startswith("--"):
                        flag = token.split("=")[0]
                        if flag not in commands[sub]:
                            problems.append(
                                f"{rel}: example uses {flag}, which "
                                f"`nsflow {sub}` does not accept")
            else:
                # Flag-table rows: a table under a "flags"-ish heading, or
                # one whose header row names a Flag column (the header row
                # itself arms the check for the rows that follow).
                if line.startswith("|"):
                    if re.search(r"\|\s*Flag\s*\|", line) or "flag" in heading:
                        in_flag_table = True
                    row_flags = (re.findall(r"`(--[a-z0-9-]+)", line)
                                 if in_flag_table else [])
                    lead = re.match(r"\|\s*`(--[a-z0-9-]+)", line)
                    if lead and lead.group(1) not in row_flags:
                        row_flags.append(lead.group(1))
                    for flag in row_flags:
                        if flag not in all_flags:
                            problems.append(
                                f"{rel}: documents {flag}, which is not in "
                                "the CLI help table (src/tools/"
                                "nsflow_cli.cpp)")
                        if in_flag_table and armed_command is not None:
                            armed_flags.add(flag)
        finish_flag_table()  # A flag table may end the file.

    # Reverse direction: every user-facing flag/subcommand is documented.
    # Word-boundary matches: `--out` must not be satisfied by `--out-dir`,
    # nor `nsflow plan` by a hypothetical `nsflow planner`.
    def doc_mentions(token):
        return re.search(re.escape(token) + r"(?![a-z0-9-])", mentioned)

    for sub, flags in commands.items():
        if not doc_mentions(f"nsflow {sub}"):
            problems.append(f"CLI subcommand `nsflow {sub}` is not "
                            "mentioned in README.md or docs/")
        for flag in sorted(flags - {"--help"}):
            if not doc_mentions(flag):
                problems.append(f"CLI flag {flag} (nsflow {sub}) is not "
                                "mentioned in README.md or docs/")
    return problems


def main():
    files = md_files()
    failures = 0
    for path in files:
        for target, resolved in check(path):
            rel = os.path.relpath(path, REPO_ROOT)
            print(f"BROKEN: {rel}: ({target}) -> {resolved}")
            failures += 1
    for problem in check_subsystem_coverage(files):
        print(f"SUBSYSTEM: {problem}")
        failures += 1
    cli_problems = check_cli_docs(files, parse_cli_spec())
    for problem in cli_problems:
        print(f"CLI-DOC DRIFT: {problem}")
        failures += 1
    print(f"checked {len(files)} file(s), {failures} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
