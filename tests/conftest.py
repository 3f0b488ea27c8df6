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


def set_decoders(monkeypatch, mode: str) -> None:
    """Decode each record by its class's generated decoder, generated now
    for every class that has one ("generated"), or every record by the
    general path ("general"); ``monkeypatch`` puts the decoders back
    afterwards. A class's citation walk is generated with its decoder, so
    the walks generated before are dropped too."""
    monkeypatch.setattr(bundle, "_HOT", 0 if mode == "generated" else math.inf)
    monkeypatch.setattr(bundle, "_CITERS", {})
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


def set_writers(monkeypatch, mode: str) -> None:
    """Write each record by its class's generated writer, generated now for
    every class ("generated"), or every record by the general writer
    ("general"); ``monkeypatch`` puts the writers back afterwards. Texts
    kept from an earlier write are dropped, so each record is written on
    the path chosen."""
    monkeypatch.setattr(writer, "_HOT", 0 if mode == "generated" else math.inf)
    monkeypatch.setattr(writer, "_FAST", {})
    monkeypatch.setattr(writer, "_seen", {})
    writer._texts = {}
    if mode == "generated":
        for cls in bundle.CODECS:
            writer._generated(cls)


@pytest.fixture(scope="module", params=["generated", "general"])
def writers(request):
    """Runs a module's tests once with every record written by its
    generated writer and once by the general writer alone. Module-scoped,
    so a hypothesis test keeps one path for all its examples."""
    with pytest.MonkeyPatch.context() as mp:
        set_writers(mp, request.param)
        yield request.param


def set_citers(monkeypatch, mode: str) -> None:
    """Walk what each record cites by its class's generated citation walk,
    generated now for every class but the bundle, whose step over its
    sections stays on the general walk as it does in a parse
    ("generated"), or by the general walk alone ("general");
    ``monkeypatch`` puts the walks back afterwards."""
    monkeypatch.setattr(bundle, "_CITERS", {})
    if mode == "general":
        monkeypatch.setattr(bundle, "_citer", lambda cls: None)
        return
    for cls in bundle.PLANS:
        if cls is not bundle.ProjectBundle and cls not in bundle._CITERS:
            bundle._CITERS[cls] = codegen.generate_citer(cls)


@pytest.fixture(scope="module", params=["generated", "general"])
def citers(request):
    """Runs a module's tests once with every record's citations walked by
    its generated walk and once by the general walk alone. Module-scoped,
    so a hypothesis test keeps one path for all its examples."""
    with pytest.MonkeyPatch.context() as mp:
        set_citers(mp, request.param)
        yield request.param
