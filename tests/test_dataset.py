import json
import re

import pytest

from thinker.dataset import Dataset, QAItem, load_dataset, sample_batch, write_dataset
from thinker.errors import DatasetError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_two_records_in_order(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"id": "a", "question": "q1", "answer": "1"}),
        json.dumps({"id": "b", "question": "q2", "answer": "2"}),
    ])
    ds = load_dataset(str(path))
    assert [item.id for item in ds] == ["a", "b"]
    assert ds.items[0].question == "q1"


def test_missing_answer_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"id": "a", "question": "q1", "answer": "1"}),
        json.dumps({"id": "b", "question": "q2"}),
    ])
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(str(path))


def test_invalid_json_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"question": "q", "answer": "a"}\nnot json {\n', encoding="utf-8")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(str(path))


def test_empty_file_gives_empty_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    ds = load_dataset(str(path))
    assert len(ds) == 0
    with pytest.raises(DatasetError):
        sample_batch(ds, 1, seed=0)


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('\n{"question": "q", "answer": "a"}\n\n', encoding="utf-8")
    ds = load_dataset(str(path))
    assert len(ds) == 1
    assert ds.items[0].id == "line-2"


def test_auto_ids_use_line_numbers(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"question": "q1", "answer": "1"}),
        json.dumps({"question": "q2", "answer": "2"}),
    ])
    ds = load_dataset(str(path))
    assert [item.id for item in ds] == ["line-1", "line-2"]


def test_duplicate_explicit_id_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"id": "x", "question": "q1", "answer": "1"}),
        json.dumps({"id": "x", "question": "q2", "answer": "2"}),
    ])
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(str(path))


def test_unreadable_file():
    with pytest.raises(DatasetError, match="cannot read"):
        load_dataset("/nonexistent/nowhere.jsonl")


def test_non_utf8_file_is_dataset_error(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'\xff\xfe{"question": "q", "answer": "1"}\n')
    with pytest.raises(DatasetError, match=re.escape(f"cannot read dataset {str(path)!r}")):
        load_dataset(str(path))


def test_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'\xef\xbb\xbf{"id": "a", "question": "q", "answer": "1"}\n')
    assert [item.id for item in load_dataset(str(path))] == ["a"]


def test_empty_fields_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [json.dumps({"question": "", "answer": "1"})])
    with pytest.raises(DatasetError, match="line 1"):
        load_dataset(str(path))


def test_extra_fields_ignored(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [json.dumps({"question": "q", "answer": "a", "difficulty": 3})])
    assert len(load_dataset(str(path))) == 1


def make_dataset(n):
    return Dataset(items=tuple(
        QAItem(id=f"i{k}", question=f"q{k}", answer=str(k)) for k in range(n)))


def test_sample_deterministic():
    ds = make_dataset(4)
    first = [item.id for item in sample_batch(ds, 2, seed=7)]
    second = [item.id for item in sample_batch(ds, 2, seed=7)]
    assert first == second
    assert len(first) == 2


def test_sample_full_size_is_permutation():
    ds = make_dataset(5)
    ids = [item.id for item in sample_batch(ds, 5, seed=3)]
    assert sorted(ids) == sorted(item.id for item in ds)


def test_oversample_uses_replacement():
    ds = make_dataset(3)
    picked = sample_batch(ds, 6, seed=11)
    assert len(picked) == 6
    assert {item.id for item in picked} <= {item.id for item in ds}


def test_sampled_ids_exist_in_source():
    ds = make_dataset(10)
    for n in (1, 5, 10, 25):
        for item in sample_batch(ds, n, seed=n):
            assert ds.get(item.id) is item


def test_load_then_sample_pure_function(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"id": f"i{k}", "question": f"q{k}", "answer": str(k)}) for k in range(6)
    ])
    a = [item.id for item in sample_batch(load_dataset(str(path)), 4, seed=42)]
    b = [item.id for item in sample_batch(load_dataset(str(path)), 4, seed=42)]
    assert a == b


def test_write_roundtrip(tmp_path):
    ds = make_dataset(4)
    path = tmp_path / "out.jsonl"
    write_dataset(str(path), ds.items)
    again = load_dataset(str(path))
    assert again.items == ds.items


def test_item_invariants():
    with pytest.raises(DatasetError):
        QAItem(id="", question="q", answer="a")
    with pytest.raises(DatasetError):
        QAItem(id="x", question="", answer="a")
    with pytest.raises(DatasetError):
        QAItem(id="x", question="q", answer="")
