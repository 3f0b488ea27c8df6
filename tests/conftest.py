import math

import pytest

from toy import toy_bundle, toy_dict, toy_text

from recap_engine import bundle, codegen, writer


@pytest.fixture
def toy():
    return toy_bundle()


@pytest.fixture
def toy_doc():
    return toy_dict()


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.bundle"
    path.write_text(toy_text(), encoding="utf-8")
    return path


def set_paths(monkeypatch, mode: str) -> None:
    """Put every record class but the bundle into the hot state, with its
    decoder generated now ("generated"), or every class into the cold
    state ("general"); ``monkeypatch`` puts each codec back afterwards. A
    hot class's citation walk and writer are generated on first use; a
    cold class decodes, walks and writes on the general paths. No class
    changes state while it is set: ``bundle._HOT`` is out of reach. The
    bundle stays on the general paths, as in a parse, and so do the
    classes a check keeps cold. Texts kept from an earlier write are
    dropped, so each record is written on the path chosen."""
    monkeypatch.setattr(bundle, "_HOT", math.inf)
    for codec in bundle.CODECS.values():
        for name, cold in (("fast", None), ("cite", None), ("write", None), ("seen", 0)):
            monkeypatch.setattr(codec, name, cold)
    writer._texts = {}
    if mode == "generated":
        for codec in bundle.CODECS.values():
            if codec.fast is None and not codec.general and codec.cls is not bundle.ProjectBundle:
                codec.fast = codegen.generate(codec)


def paths_fixture(scope: str):
    """A ``paths`` fixture of ``scope``: it runs a test once with every
    record class hot and once with every one cold (:func:`set_paths`). A
    module whose hypothesis tests need one path for all their examples
    declares a module-scoped one, ``paths = paths_fixture("module")``; the
    codecs, not their methods, hold the state, so the module's other tests
    run on a path the product runs."""

    @pytest.fixture(scope=scope, params=["generated", "general"], name="paths")
    def paths(request):
        with pytest.MonkeyPatch.context() as mp:
            set_paths(mp, request.param)
            yield request.param

    return paths


paths = paths_fixture("function")
