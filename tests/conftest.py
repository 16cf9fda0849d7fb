"""Shared test helpers: the environment of a `python -m misrecon` subprocess,
a policy that answers from a script, and a fixture that patches a capacity
constant."""

import os
from pathlib import Path

import pytest

import misrecon
from misrecon import graphs


def cli_env():
    """Environment for a `python -m misrecon` child process.

    PYTHONPATH starts with the absolute directory that holds the imported
    `misrecon` package, so the child imports the same package as the test
    process whatever its cwd (a relative `PYTHONPATH=src` does not resolve
    from a per-run directory) and an installed copy cannot shadow it. The
    inherited entries follow.
    """
    env = dict(os.environ)
    package_root = str(Path(misrecon.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return env


class Scripted:
    """Duck-typed, without index_free: answers index i with script[i], in
    one answers() call."""

    def __init__(self, script):
        self.script = list(script)

    def answers(self, g, masks, start=0):
        return self.script[start:]


@pytest.fixture
def set_cap(monkeypatch):
    """set_cap(module, name, value) patches the capacity constant module.name
    for one test. The memo of graphs.enumerate_bounded_degree_graphs is cleared
    at each patch and after the test, so an enumeration cached under another
    cap neither hides a refusal nor outlives the patch."""

    def patch(module, name, value):
        graphs.enumerate_bounded_degree_graphs.cache_clear()
        monkeypatch.setattr(module, name, value)

    yield patch
    graphs.enumerate_bounded_degree_graphs.cache_clear()
