"""Lines of src/framelab that the test suite never runs.

    python tests/coverage_probe.py [pytest arguments]

Runs pytest in this process (extra arguments go to it; the default is
``-q``) under a `sys.settrace` hook that traces only frames of files under
src/framelab, then prints each module's unreached lines and the total of
reached and executable lines.  A line is executable when the compiled
module, or a code object nested in it, maps an instruction to it.  Lines run
only in a child process, such as the CLI's ``__main__`` guard, count as
unreached.  The exit status is pytest's.  It uses only the standard library
and pytest; the name keeps it out of pytest's ``test_*.py`` collection.
"""

import os
import sys
import threading
import types

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "framelab")


def executable_lines(path: str) -> set:
    """Line numbers that some instruction of the module at ``path`` maps to."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


class Probe:
    """Records (file, line) of every traced event in a framelab frame."""

    def __init__(self):
        self.hits = {}

    def trace(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(SRC):
            return None  # no local tracing outside framelab
        lines = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    def pytest_configure(self, config):
        sys.settrace(self.trace)
        threading.settrace(self.trace)

    def pytest_unconfigure(self, config):
        sys.settrace(None)
        threading.settrace(None)


def main(args) -> int:
    probe = Probe()
    code = pytest.main(args or ["-q"], plugins=[probe])
    total = reached = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        lines = executable_lines(path)
        missed = sorted(lines - probe.hits.get(path, set()))
        total, reached = total + len(lines), reached + len(lines) - len(missed)
        if missed:
            print(f"{name}: {', '.join(map(str, missed))}")
    print(f"reached {reached} of {total} executable lines; {total - reached} unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
