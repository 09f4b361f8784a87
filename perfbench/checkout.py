"""Where the benchmark finds the simulator it measures.

The benchmark runs from the root of a source checkout and imports the
``repro`` package from that checkout's ``src/`` directory, never from an
installed copy.  Everything it writes goes under :data:`WORK_DIR`, inside
the same checkout.
"""

from __future__ import annotations

import os
import sys

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
#: Scratch space for private codegen cache directories (git-ignored).
WORK_DIR = os.path.join(ROOT, ".perfbench-work")


class MissingSource(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def use_checkout_source():
    """Put the checkout's ``src/`` first on ``sys.path`` and import ``repro``.

    Raises :class:`MissingSource` when the checkout has no package or when
    ``import repro`` resolves to a copy outside the checkout.
    """
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise MissingSource("no simulator source at %s" % PACKAGE)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import repro

    location = os.path.dirname(os.path.abspath(repro.__file__))
    if location != PACKAGE:
        raise MissingSource("imported repro from %s, expected %s" % (location, PACKAGE))
    return repro


def git_commit():
    """The checkout's commit id read from ``.git``, or ``"unknown"``.

    Reads the files directly instead of running git, so a checkout that is
    not a repository (or sits inside another one) reports ``unknown``.
    """
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"
