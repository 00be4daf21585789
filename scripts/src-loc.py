#!/usr/bin/env python3
"""Count the lines of src/ at HEAD, and at a base ref with the delta.

Usage:
    scripts/src-loc.py [BASE_REF]

Prints the total lines and the code lines of every file under src/ as
committed at HEAD. A code line is a line that is neither blank nor only
comment (`//` comments and `/* ... */` blocks; comment markers inside
string and character literals do not count). With BASE_REF (any commit
git can resolve, e.g. a base branch or SHA) it prints the same counts
at that commit and the change from it to HEAD, so a pull request can
report its net src/ size.

Reads committed trees only (`git ls-tree` / `git cat-file`), never the
working tree. Exits 0 on success, 2 when a ref cannot be resolved.
"""

import argparse
import subprocess
import sys


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def code_lines(text):
    """Number of lines holding code outside comments."""
    count = 0
    in_block = False
    for line in text.splitlines():
        has_code = False
        quote = None
        i = 0
        while i < len(line):
            ch = line[i]
            pair = line[i:i + 2]
            if in_block:
                if pair == "*/":
                    in_block = False
                    i += 2
                    continue
            elif quote is not None:
                if ch == "\\":
                    i += 2
                    continue
                if ch == quote:
                    quote = None
            elif pair == "//":
                break
            elif pair == "/*":
                in_block = True
                i += 2
                continue
            elif not ch.isspace():
                has_code = True
                if ch in "\"'":
                    quote = ch
            i += 1
        if has_code:
            count += 1
    return count


def count_tree(ref):
    """(files, total lines, code lines) of src/ at `ref`."""
    paths = git("ls-tree", "-r", "--name-only", ref, "--", "src").split()
    total = 0
    code = 0
    for path in paths:
        text = git("cat-file", "blob", f"{ref}:{path}")
        total += len(text.splitlines())
        code += code_lines(text)
    return len(paths), total, code


def resolve(ref):
    try:
        return git("rev-parse", "--short", "--verify", f"{ref}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"src-loc: cannot resolve {ref!r}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", metavar="BASE_REF",
                        help="commit to compare HEAD against")
    args = parser.parse_args()

    refs = ["HEAD"] + ([args.base] if args.base else [])
    shorts = [resolve(ref).strip() for ref in refs]
    counts = {}
    for ref, short in zip(refs, shorts):
        counts[ref] = count_tree(ref)
        files, total, code = counts[ref]
        print(f"src/ at {ref} ({short}): {total} lines, {code} code lines, "
              f"{files} files")
    if args.base:
        head = counts["HEAD"]
        base = counts[args.base]
        print(f"delta: {head[1] - base[1]:+d} lines, "
              f"{head[2] - base[2]:+d} code lines, "
              f"{head[0] - base[0]:+d} files")


if __name__ == "__main__":
    main()
