"""Question-answer corpora: loading, validation, and seeded sampling.

Datasets are JSON Lines files, one record per line with fields ``question``
and ``answer`` (required, nonempty) and ``id`` (optional; missing ids are
assigned ``line-<n>`` from the 1-based line number). Extra fields are
ignored. See README for the format reference.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

from .errors import DatasetError

# a lone surrogate ("\ud800"): a JSON \u escape or a non-UTF-8 argv can make one; UTF-8 cannot
find_surrogate = re.compile("[\ud800-\udfff]").search


@dataclass(frozen=True)
class QAItem:
    """One question with its ground-truth answer."""

    id: str
    question: str
    answer: str

    def __post_init__(self) -> None:
        for name in ("id", "question", "answer"):
            if not getattr(self, name):
                raise DatasetError(f"item {self.id!r}: {name} must be nonempty")
            if find_surrogate(getattr(self, name)):
                raise DatasetError(f"item {self.id!r}: {name} holds text UTF-8 cannot encode")


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of QAItems with unique ids."""

    items: tuple[QAItem, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        seen: set[str] = set()
        for item in self.items:
            if item.id in seen:
                raise DatasetError(f"duplicate item id {item.id!r}")
            seen.add(item.id)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def get(self, item_id: str) -> QAItem:
        for item in self.items:
            if item.id == item_id:
                return item
        raise DatasetError(f"no item with id {item_id!r}")


def _parse_record(line: str, line_no: int) -> QAItem:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise DatasetError(f"line {line_no}: record must be a JSON object")
    for key in ("question", "answer"):
        if key not in record:
            raise DatasetError(f"line {line_no}: missing field {key!r}")
        if not isinstance(record[key], str) or not record[key]:
            raise DatasetError(f"line {line_no}: field {key!r} must be a nonempty string")
    item_id = record.get("id")
    if item_id is None:
        item_id = f"line-{line_no}"
    elif not isinstance(item_id, str) or not item_id:
        raise DatasetError(f"line {line_no}: field 'id' must be a nonempty string")
    return QAItem(id=item_id, question=record["question"], answer=record["answer"])


def load_dataset(path: str) -> Dataset:
    """Load a JSONL dataset, preserving file order.

    Raises DatasetError naming the offending line for malformed records and
    for duplicate explicit ids. An empty file yields an empty dataset.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read dataset {path!r}: {exc}") from exc

    items: list[QAItem] = []
    seen: set[str] = set()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        item = _parse_record(line, line_no)
        if item.id in seen:
            raise DatasetError(f"line {line_no}: duplicate id {item.id!r}")
        seen.add(item.id)
        items.append(item)
    return Dataset(items=tuple(items))


def sample_batch(dataset: Dataset, n: int, seed: int) -> list[QAItem]:
    """Draw n items deterministically.

    Without replacement while n fits in the dataset (n == size gives a
    permutation); with replacement when oversampling a small dataset.
    """
    if len(dataset) == 0:
        raise DatasetError("cannot sample from an empty dataset")
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    rng = random.Random(seed)
    items = list(dataset.items)
    if n <= len(items):
        return rng.sample(items, n)
    return rng.choices(items, k=n)


def write_dataset(path: str, items) -> None:
    """Write items as JSONL with explicit ids (inverse of load_dataset)."""
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(json.dumps(
                {"id": item.id, "question": item.question, "answer": item.answer},
                ensure_ascii=False,
            ))
            fh.write("\n")
