#!/usr/bin/env python3
"""Docs gate: markdown links, header comments, pool and caller rules.

Five checks, no third-party dependencies:

1. Every relative link and image reference in the repo's markdown
   files (README.md, docs/, and the top-level record files) must
   resolve to an existing file or directory. External links
   (http/https/mailto) and pure #fragments are not fetched. A
   fragment on a local markdown link (docs/FOO.md#section) checks
   that the target file contains a matching heading.

2. Every public header under src/ (*.hh) must open with a
   doxygen-style comment: a `/**` block containing `@file` within
   the first few lines. This is the convention the docs tree links
   into (docs/ARCHITECTURE.md points at header comments as the
   per-subsystem reference), so it is enforced, not aspirational.

3. Library code reaches a thread or buffer pool only through the
   ExecContext its caller passes. No non-comment line of a *.cc or
   *.hh file under src/ may call ExecContext::global(),
   ThreadPool::global() or BufferPool::global(), except in the files
   that define them (src/common/{thread_pool,exec_context,
   buffer_pool}.*). This keeps global-pool twins of the kernel
   signatures from coming back.

4. The deconvolution transformation has one executor,
   deconv::DeconvPlan. No non-comment line of a *.cc or *.hh file
   under src/ outside src/deconv/ may call extractSubKernel(), so a
   second hand-rolled copy of the phase loop cannot come back.

5. The convolution has one executor, tensor::convNdInto, and one
   named reference, tensor::referenceConv. No non-comment line of a
   *.cc or *.hh file under src/ outside src/tensor/ and
   src/dnn/runtime.cc (NetworkRuntime::referenceForward) may call
   referenceConv(), so the reference cannot become a production
   route.

Exit 0 when clean; prints one line per violation and exits 1
otherwise.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MARKDOWN_ROOTS = ["README.md", "ROADMAP.md", "PAPER.md", "CHANGES.md",
                  "ISSUE.md"]
MARKDOWN_DIRS = ["docs"]

# [text](target) and ![alt](target); ignore inline code spans.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")


def heading_anchors(path: Path) -> set[str]:
    """GitHub-style anchors of every heading in a markdown file."""
    anchors = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence or not line.startswith("#"):
            continue
        text = line.lstrip("#").strip()
        text = re.sub(r"`([^`]*)`", r"\1", text)
        anchor = re.sub(r"[^\w\- ]", "", text.lower())
        anchors.add(anchor.replace(" ", "-"))
    return anchors


def check_markdown(path: Path) -> list[str]:
    errors = []
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        stripped = CODE_SPAN_RE.sub("", line)
        for m in LINK_RE.finditer(stripped):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                continue  # same-file fragment; heading set below
            target, _, fragment = target.partition("#")
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                errors.append(f"{path.relative_to(ROOT)}:{lineno}: "
                              f"broken link: {target}")
                continue
            if fragment and resolved.suffix == ".md":
                if fragment.lower() not in heading_anchors(resolved):
                    errors.append(
                        f"{path.relative_to(ROOT)}:{lineno}: "
                        f"missing anchor: {target}#{fragment}")
    return errors


def check_header_comment(path: Path) -> list[str]:
    head = path.read_text(encoding="utf-8").splitlines()[:5]
    if any("@file" in line for line in head) and \
            any(line.strip().startswith("/**") for line in head):
        return []
    return [f"{path.relative_to(ROOT)}: missing doxygen-style "
            f"/** ... @file header comment in the first 5 lines"]


GLOBAL_POOL_RE = re.compile(
    r"\b(ExecContext|ThreadPool|BufferPool)::global\(\)")
GLOBAL_POOL_OWNERS = {"thread_pool", "exec_context", "buffer_pool"}


def strip_comments(line: str, in_block: bool) -> tuple[str, bool]:
    """Code part of @p line, given whether a /* block is open."""
    code = []
    i = 0
    while i < len(line):
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(code), True
            in_block = False
            i = end + 2
        elif line.startswith("//", i):
            break
        elif line.startswith("/*", i):
            in_block = True
            i += 2
        else:
            code.append(line[i])
            i += 1
    return "".join(code), in_block


def code_matches(path: Path, pattern: re.Pattern):
    """(line number, match) of @p pattern on non-comment code."""
    in_block = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        code, in_block = strip_comments(line, in_block)
        m = pattern.search(code)
        if m:
            yield lineno, m


def check_global_pools(path: Path) -> list[str]:
    rel = path.relative_to(ROOT)
    if rel.parts[:2] == ("src", "common") and \
            path.stem in GLOBAL_POOL_OWNERS:
        return []
    return [f"{rel}:{lineno}: library code calls {m.group(0)}; take "
            f"an ExecContext from the caller instead"
            for lineno, m in code_matches(path, GLOBAL_POOL_RE)]


# Rules 4 and 5: (call pattern, the src/ paths allowed to make it,
# what to do instead). A path is allowed when it starts with one of
# the listed path-part prefixes.
CALLER_RULES = [
    (re.compile(r"\bextractSubKernel\("), [("src", "deconv")],
     "run the transformation through deconv::DeconvPlan instead"),
    (re.compile(r"\breferenceConv\("),
     [("src", "tensor"), ("src", "dnn", "runtime.cc")],
     "run the convolution through tensor::convNdInto instead"),
]


def check_callers(path: Path) -> list[str]:
    rel = path.relative_to(ROOT)
    errors = []
    for pattern, allowed, remedy in CALLER_RULES:
        if any(rel.parts[:len(a)] == a for a in allowed):
            continue
        errors += [f"{rel}:{lineno}: calls {m.group(0)}); {remedy}"
                   for lineno, m in code_matches(path, pattern)]
    return errors


def main() -> int:
    md_files = [ROOT / name for name in MARKDOWN_ROOTS
                if (ROOT / name).exists()]
    for d in MARKDOWN_DIRS:
        md_files += sorted((ROOT / d).glob("**/*.md"))

    errors = []
    for md in md_files:
        errors += check_markdown(md)
    for hh in sorted((ROOT / "src").glob("**/*.hh")):
        errors += check_header_comment(hh)
    sources = sorted((ROOT / "src").glob("**/*.cc")) + \
        sorted((ROOT / "src").glob("**/*.hh"))
    for src in sources:
        errors += check_global_pools(src)
        errors += check_callers(src)

    for e in errors:
        print(e)
    checked = len(md_files) + len(list((ROOT / "src").glob("**/*.hh")))
    if errors:
        print(f"{len(errors)} problem(s) across {checked} files",
              file=sys.stderr)
        return 1
    print(f"docs check passed ({len(md_files)} markdown files, "
          f"{len(list((ROOT / 'src').glob('**/*.hh')))} headers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
