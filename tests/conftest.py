import math

import pytest

from toy import toy_bundle, toy_dict, toy_text

from recap_engine import bundle, codegen


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


def set_decoders(monkeypatch, mode: str) -> None:
    """Decode each record by its class's generated decoder, generated now
    for every class that has one ("generated"), or every record by the
    general path ("general"); ``monkeypatch`` puts the decoders back
    afterwards."""
    monkeypatch.setattr(bundle, "_HOT", 0 if mode == "generated" else math.inf)
    for codec in bundle.CODECS.values():
        monkeypatch.setattr(codec, "fast", None)
        monkeypatch.setattr(codec, "seen", 0)
    for codec in bundle.CODECS.values():
        if mode == "generated" and not codec.general and codec.fast is None:
            codec.fast = codegen.generate(codec)


@pytest.fixture(params=["generated", "general"])
def decoders(request, monkeypatch):
    """Runs a test once with every record decoded by its generated decoder
    and once by the general path alone."""
    set_decoders(monkeypatch, request.param)
    return request.param
