"""Every function the benchmark's tracer wraps must exist in the package, so
that deleting or renaming a traced name fails here instead of breaking
``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    if "." in attr:
        # Methods are wrapped on the class that defines them.
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name, object)).get(meth)
    return getattr(owner, attr, None)


def test_every_target_resolves_to_a_callable():
    targets = _targets()
    assert targets
    missing = [f"{m}.{a}" for m, a in targets if not callable(_resolve(m, a))]
    assert not missing, missing
