"""The benchmark tracer's hooks still name attributes of the program.

``perfbench/tracer.py`` wraps pipeline functions by module attribute.  A
renamed or removed function breaks the traced benchmark run; this test
catches it with the tier-1 suite.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_module)


def test_install_pipeline_patches_existing_attributes_and_restores_them():
    tracer = tracer_module.Tracer()
    try:
        # install() reads every attribute before replacing it, so a
        # missing one raises AttributeError here
        tracer_module.install_pipeline(tracer)
        installed = list(tracer._installed)
        assert installed
        for owner, attr, original, name, _ in installed:
            assert getattr(owner, attr) is not original, name
    finally:
        tracer.uninstall()
    for owner, attr, original, name, _ in installed:
        assert getattr(owner, attr) is original, name
