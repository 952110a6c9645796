#!/usr/bin/env python3
"""Docs gate: keep the documentation verifiably in sync with the code.

Six checks, stdlib-only so CI and laptops run it with any Python 3:

1. **Figure catalogue coverage** (needs --names): every figure name the
   `leakyhammer` binary registers must have a `### `name`` entry in
   docs/FIGURES.md, and every catalogue entry must name a registered
   figure — the catalogue can neither lag behind nor run ahead of the
   registry.

       build/leakyhammer list --names > names.txt
       tools/check_docs.py --names names.txt

2. **Golden coverage** (needs --names): every registered figure must
   have a golden CSV in tests/golden/ (regenerate with `leakyhammer
   repro --update-golden`), and every golden CSV must name a registered
   figure — goldens can neither lag behind the registry nor outlive a
   deleted figure silently.

3. **Registry table coverage** (needs --names): every registered
   figure must appear in the per-family registry table of
   docs/EXPERIMENTS.md (the `| `figures_*.cc` | ... |` rows), and every
   name in that table must be registered — the table cannot drop an
   entry or keep a deleted one.

4. **Lint-rule catalogue coverage** (always): docs/LINTING.md must hold
   a `### `rule-id`` heading for exactly the rule ids the leaky-lint
   registry exposes (the same set `tools/lint/leaky_lint.py
   --list-rules` prints, meta rules included) — the rule catalogue can
   neither lag behind nor run ahead of the analyzer.

5. **Link resolution** (always): every relative markdown link in
   README.md and docs/*.md must point at an existing file. External
   (http/https/mailto) links and pure #anchors are skipped; a trailing
   #fragment on a relative link is stripped before the check.

6. **Core API names** (always): every `core::<identifier>` named in
   README.md or docs/*.md must be declared in src/core/*.hh (comments
   stripped) — the docs cannot point readers at a deleted runner.

Exit status: 0 = docs in sync, 1 = at least one failure, 2 = bad
invocation.
"""

import argparse
import os
import re
import sys

HEADING_RE = re.compile(r"^###\s+`([^`]+)`")
# [text](target) with no whitespace in the target; images (![...]) match
# too via the optional bang.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")
# A registry-table row of docs/EXPERIMENTS.md: | `figures_<family>.cc` |
TABLE_ROW_RE = re.compile(r"^\|\s*`figures_\w+\.cc`\s*\|")
BACKTICK_RE = re.compile(r"`([^`]+)`")
CORE_NAME_RE = re.compile(r"\bcore::([A-Za-z_]\w*)")
# // line comments and /* block */ comments of a C++ header.
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def doc_files(root):
    files = [os.path.join(root, "README.md")]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                files.append(os.path.join(docs_dir, name))
    return [f for f in files if os.path.isfile(f)]


def check_catalogue(names_path, figures_md, failures):
    registered = read_names(names_path, failures)
    if registered is None:
        return
    try:
        with open(figures_md) as fh:
            documented = [m.group(1) for m in
                          (HEADING_RE.match(line) for line in fh) if m]
    except OSError as err:
        failures.append("cannot read %s: %s" % (figures_md, err))
        return

    for name in registered:
        if name not in documented:
            failures.append(
                "figure '%s' is registered but has no '### `%s`' entry "
                "in docs/FIGURES.md" % (name, name))
    for name in documented:
        if name not in registered:
            failures.append(
                "docs/FIGURES.md documents '%s', which the binary does "
                "not register (stale entry?)" % name)
    seen = set()
    for name in documented:
        if name in seen:
            failures.append(
                "docs/FIGURES.md documents '%s' twice" % name)
        seen.add(name)
    if not failures:
        print("check_docs: catalogue in sync (%d figures)"
              % len(registered))


def read_names(names_path, failures):
    try:
        with open(names_path) as fh:
            return [line.strip() for line in fh if line.strip()]
    except OSError as err:
        failures.append("cannot read --names file: %s" % err)
        return None


def check_goldens(names_path, golden_dir, failures):
    registered = read_names(names_path, failures)
    if registered is None:
        return
    if not os.path.isdir(golden_dir):
        failures.append(
            "golden directory '%s' does not exist (run `leakyhammer "
            "repro --update-golden`)" % golden_dir)
        return
    goldens = sorted(
        name[:-len(".csv")] for name in os.listdir(golden_dir)
        if name.endswith(".csv"))
    for name in registered:
        if name not in goldens:
            failures.append(
                "figure '%s' is registered but has no golden CSV in "
                "%s (run `leakyhammer repro --update-golden`)"
                % (name, golden_dir))
    for name in goldens:
        if name not in registered:
            failures.append(
                "%s/%s.csv has no registered figure (stale golden? "
                "delete it or restore the figure)" % (golden_dir, name))
    if not failures:
        print("check_docs: goldens in sync (%d figures)" % len(goldens))


def check_registry_table(names_path, experiments_md, failures):
    """The docs/EXPERIMENTS.md registry table <-> the registered names.

    Table rows start with a backticked `figures_<family>.cc` file; their
    last cell lists the family's entries, each in backticks.
    """
    registered = read_names(names_path, failures)
    if registered is None:
        return
    try:
        with open(experiments_md) as fh:
            rows = [line for line in fh if TABLE_ROW_RE.match(line)]
    except OSError as err:
        failures.append("cannot read %s: %s" % (experiments_md, err))
        return
    tabled = []
    for row in rows:
        entries = row.strip().strip("|").split("|")[-1]
        tabled.extend(BACKTICK_RE.findall(entries))
    count = len(failures)
    for name in registered:
        if name not in tabled:
            failures.append(
                "figure '%s' is registered but missing from the registry "
                "table in docs/EXPERIMENTS.md" % name)
    for name in tabled:
        if name not in registered:
            failures.append(
                "the docs/EXPERIMENTS.md registry table lists '%s', which "
                "the binary does not register" % name)
    if len(failures) == count:
        print("check_docs: registry table in sync (%d figures)"
              % len(registered))


def check_lint_rules(root, failures):
    """docs/LINTING.md headings <-> the leaky-lint rule registry.

    Imports the same registry `leaky_lint.py --list-rules` prints, so
    the doc check and the tool cannot disagree about what a rule is.
    """
    sys.path.insert(0, os.path.join(root, "tools", "lint"))
    try:
        import rules as lint_rules
    except Exception as err:  # Import failure is a docs-gate failure.
        failures.append(
            "cannot import the tools/lint rules package: %s" % err)
        return
    registered = lint_rules.all_rule_ids()
    linting_md = os.path.join(root, "docs", "LINTING.md")
    try:
        with open(linting_md) as fh:
            documented = [m.group(1) for m in
                          (HEADING_RE.match(line) for line in fh) if m]
    except OSError as err:
        failures.append("cannot read %s: %s" % (linting_md, err))
        return
    for rule_id in registered:
        if rule_id not in documented:
            failures.append(
                "lint rule '%s' is registered but has no '### `%s`' "
                "entry in docs/LINTING.md" % (rule_id, rule_id))
    for rule_id in documented:
        if rule_id not in registered:
            failures.append(
                "docs/LINTING.md documents rule '%s', which "
                "leaky_lint.py does not register (stale entry?)"
                % rule_id)
    seen = set()
    for rule_id in documented:
        if rule_id in seen:
            failures.append(
                "docs/LINTING.md documents rule '%s' twice" % rule_id)
        seen.add(rule_id)
    if not failures:
        print("check_docs: lint-rule catalogue in sync (%d rules)"
              % len(registered))


def check_links(files, failures):
    checked = 0
    for path in files:
        base = os.path.dirname(path)
        with open(path) as fh:
            text = fh.read()
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(EXTERNAL) or target.startswith("#"):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            checked += 1
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                failures.append(
                    "%s: broken relative link '%s'"
                    % (os.path.relpath(path, repo_root()),
                       match.group(1)))
    print("check_docs: %d relative links checked" % checked)


def check_core_names(root, files, failures):
    """`core::<identifier>` in the docs <-> declarations in src/core."""
    core_dir = os.path.join(root, "src", "core")
    code = ""
    for name in sorted(os.listdir(core_dir)):
        if name.endswith(".hh"):
            with open(os.path.join(core_dir, name)) as fh:
                code += COMMENT_RE.sub(" ", fh.read()) + "\n"
    declared = set(re.findall(r"\b[A-Za-z_]\w*\b", code))
    named = 0
    for path in files:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                for ident in CORE_NAME_RE.findall(line):
                    named += 1
                    if ident not in declared:
                        failures.append(
                            "%s:%d: names 'core::%s', which src/core/*.hh "
                            "does not declare"
                            % (os.path.relpath(path, root), lineno, ident))
    print("check_docs: %d core:: names checked" % named)


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--names",
        help="file with one registered figure name per line (from "
             "`leakyhammer list --names`); omits the catalogue, golden "
             "and registry-table checks when absent")
    parser.add_argument(
        "--golden-dir",
        help="golden CSV directory to cross-check against --names "
             "(default: tests/golden)")
    args = parser.parse_args(argv)

    root = repo_root()
    failures = []
    if args.names:
        check_catalogue(args.names, os.path.join(root, "docs",
                                                 "FIGURES.md"),
                        failures)
        check_goldens(args.names,
                      args.golden_dir or os.path.join(root, "tests",
                                                      "golden"),
                      failures)
        check_registry_table(args.names,
                             os.path.join(root, "docs", "EXPERIMENTS.md"),
                             failures)
    check_lint_rules(root, failures)
    check_links(doc_files(root), failures)
    check_core_names(root, doc_files(root), failures)

    for failure in failures:
        print("check_docs: %s" % failure, file=sys.stderr)
    if failures:
        print("check_docs: %d failure(s)" % len(failures),
              file=sys.stderr)
        return 1
    print("check_docs: docs are in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
