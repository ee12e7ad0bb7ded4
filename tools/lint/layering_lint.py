#!/usr/bin/env python3
"""Layering lint: enforces the module DAG of the BOAT codebase.

The repo is layered (DESIGN.md §11):

    common -> storage -> {split, datagen} -> tree -> rainforest -> boat
                                                                -> serve
    tools / tests / bench may depend on anything.

A module may include headers only from itself and from layers strictly
below it. The lint walks every C++ source under src/ and tools/, resolves
each quoted #include to a module, and fails on any edge not in the
allowlist below. System includes (<...>) are exempt; so are includes of
third-party or generated headers (none exist today — add them here if
that changes).

Module resolution:
  * `#include "mod/header.h"` -> module `mod` (must be a known module);
  * a bare `#include "header.h"` resolves to the includer's own directory
    (the only such includes today are tools/common_flags.h siblings).

Run directly (exit 0/1) or via ctest / CI:
    python3 tools/lint/layering_lint.py [repo_root]
"""

import pathlib
import re
import sys

# module -> modules it may include (itself always allowed).
# This is the DAG, not the current include graph: an edge being absent
# today is not enough, it must also be architecturally legal.
ALLOWED = {
    "common": set(),
    "storage": {"common"},
    "split": {"common", "storage"},
    "datagen": {"common", "storage"},
    "tree": {"common", "storage", "split"},
    "rainforest": {"common", "storage", "split", "tree"},
    "boat": {"common", "storage", "split", "datagen", "tree", "rainforest"},
    "serve": {"common", "storage", "split", "datagen", "tree", "rainforest",
              "boat"},
}

# Directories whose sources are linted but may include any module.
UNRESTRICTED = ("tools", "tests", "bench")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

SOURCE_GLOBS = ("*.h", "*.hpp", "*.cc", "*.cpp")


def module_of_file(path: pathlib.Path, repo: pathlib.Path) -> str | None:
    """The layering module owning `path`, or None if unrestricted/unknown."""
    rel = path.relative_to(repo)
    top = rel.parts[0]
    if top in UNRESTRICTED:
        return None
    if top != "src":
        return None
    return rel.parts[1]


def module_of_include(target: str, includer_module: str | None) -> str | None:
    """The module an include target belongs to, or None if unresolvable."""
    if "/" in target:
        head = target.split("/", 1)[0]
        return head if head in ALLOWED else None
    # Bare include: same-directory sibling of the includer.
    return includer_module


def lint(repo: pathlib.Path) -> list[str]:
    errors = []
    roots = [repo / "src"] + [repo / d for d in UNRESTRICTED]
    for root in roots:
        if not root.is_dir():
            continue
        for pattern in SOURCE_GLOBS:
            for path in sorted(root.rglob(pattern)):
                mod = module_of_file(path, repo)
                if mod is not None and mod not in ALLOWED:
                    errors.append(f"{path.relative_to(repo)}: unknown module "
                                  f"'{mod}' — add it to the DAG in "
                                  "tools/lint/layering_lint.py")
                    continue
                for lineno, line in enumerate(
                        path.read_text(encoding="utf-8").splitlines(), 1):
                    m = INCLUDE_RE.match(line)
                    if not m:
                        continue
                    dep = module_of_include(m.group(1), mod)
                    if dep is None or mod is None or dep == mod:
                        continue
                    if dep not in ALLOWED[mod]:
                        errors.append(
                            f"{path.relative_to(repo)}:{lineno}: layering "
                            f"violation: module '{mod}' may not include "
                            f"'{m.group(1)}' (module '{dep}'); allowed: "
                            f"{{{', '.join(sorted(ALLOWED[mod])) or 'none'}}}")
    return errors


def main() -> int:
    repo = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    if not (repo / "src").is_dir():
        print(f"layering_lint: no src/ under {repo}", file=sys.stderr)
        return 2
    errors = lint(repo)
    for e in errors:
        print(e)
    if errors:
        print(f"layering_lint: {len(errors)} violation(s)")
        return 1
    print("layering_lint: module DAG clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
