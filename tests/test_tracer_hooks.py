"""Every hook target of the benchmark tracer resolves in the package.

``perfbench/tracer.py`` patches functions by module and dotted attribute name.
A rename leaves a traced benchmark run with a warning and without the metrics
that hook feeds; this catches it in the tier-1 suite, without running the
benchmark.  The tracer source is compiled from its file and never imported as
a module, so nothing is patched and nothing is written next to it.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_hooks() -> list[tuple[str, str]]:
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return sorted({(module, attr) for module, attr, *_ in namespace["HOOKS"]})


HOOK_TARGETS = _tracer_hooks()


def test_tracer_has_hooks():
    assert len(HOOK_TARGETS) >= 30


@pytest.mark.parametrize(
    "module_name, attr", HOOK_TARGETS, ids=[f"{m}:{a}" for m, a in HOOK_TARGETS]
)
def test_hook_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
