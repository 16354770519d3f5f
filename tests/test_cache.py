"""JSON-lines cache: round trips and corruption handling."""

import pytest

from purecubic.cache import ResultCache


def test_roundtrip(tmp_path):
    c = ResultCache(str(tmp_path / "c.jsonl"))
    assert c.load() == []
    c.append({"p": 19, "ok": True})
    c.append({"p": 37, "ok": False})
    assert c.load() == [{"p": 19, "ok": True}, {"p": 37, "ok": False}]


def test_corrupted_trailing_line_truncated(tmp_path, caplog):
    path = tmp_path / "c.jsonl"
    path.write_text('{"p": 19}\n{"p": 37}\n{"bro', encoding="utf-8")
    c = ResultCache(str(path))
    with caplog.at_level("WARNING"):
        records = c.load()
    assert records == [{"p": 19}, {"p": 37}]
    assert any("truncating" in r.message for r in caplog.records)
    # the file itself was repaired
    assert path.read_text(encoding="utf-8") == '{"p": 19}\n{"p": 37}\n'
    assert c.load() == [{"p": 19}, {"p": 37}]


def test_corrupted_middle_line_is_an_error(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"p": 19}\nnot json\n{"p": 37}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        ResultCache(str(path)).load()


def test_append_after_truncation(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"p": 19}\n{"bro', encoding="utf-8")
    c = ResultCache(str(path))
    c.load()
    c.append({"p": 37})
    assert c.load() == [{"p": 19}, {"p": 37}]


def test_append_after_a_lost_final_newline(tmp_path):
    # a write interrupted just after a record's closing brace: the record is
    # whole, and the next append must start a line of its own
    path = tmp_path / "c.jsonl"
    c = ResultCache(str(path))
    c.append({"p": 19}, {"p": 37})
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    assert c.load() == [{"p": 19}, {"p": 37}]
    c.append({"p": 73})
    assert c.load() == [{"p": 19}, {"p": 37}, {"p": 73}]
    assert path.read_text(encoding="utf-8") == '{"p":19}\n{"p":37}\n{"p":73}\n'
