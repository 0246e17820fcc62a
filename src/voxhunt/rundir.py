"""The run directory: the one definition of its layout and its dataset format.

Training writes the files named below; triage, report and export read nothing
else. ``TrajectoryLog`` writes and reads the two logs, and ``Columns.of`` packs
the checked dataset fields both for a JSONL read and for the index.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import nn
from .world import Action

FORMAT_VERSION = 1  # of MANIFEST

CONFIG = "config.json"  # the resolved TrainConfig
MANIFEST = "manifest.json"  # format version, config hash, seed, profile, map
DATASET = "dataset.jsonl"  # every trajectory; its index is at index_path(DATASET)
METRICS = "metrics.jsonl"  # one object per iteration
TIMING = "timing.json"  # wall-clock seconds, kept out of the bit-exact files
DIAGNOSTICS = "diagnostics.json"  # written only when an update diverges
REPORT = "triage_report.json"  # written by `voxhunt triage`
EXPORT = "trajectories.tsv"  # `voxhunt export`'s default output
CHECKPOINTS = "checkpoints"  # a directory of one file per net:
CHECKPOINT_FILES = {
    "policy": "policy.vxnp",
    "critic": "critic.vxnp",
    "discriminator": "discriminator.vxnp",
    "rnd_target": "rnd_target.vxnp",
    "rnd_predictor": "rnd_predictor.vxnp",
}


class TriageError(Exception):
    """A run directory cannot be read back for triage or export."""


def fresh_dir(path: Path) -> bool:
    """Whether a run can be written at ``path``: it is missing or an empty directory."""
    return not path.exists() or (path.is_dir() and not any(path.iterdir()))


def _ints(values) -> bool:
    return set(map(type, values)) <= {int}  # a bool is not an int here


INT = ("an int", lambda v: type(v) is int)
REAL = ("a real number", lambda v: type(v) in (int, float))
INTS = ("a list of ints", lambda v: type(v) is list and _ints(v))

# What each dataset field a reader keeps must hold, and the test for it.
FIELD_TYPES = {
    "id": INT,
    "alpha": REAL,
    "reached_goal": ("a bool", lambda v: type(v) is bool),
    "positions": (
        "a list of [x, y, z] int lists",
        lambda v: type(v) is list
        and set(map(type, v)) <= {list}
        and set(map(len, v)) <= {3}
        and _ints(chain.from_iterable(v)),
    ),
    "bug_regions": INTS,
    "actions": (
        f"a list of action ids 0..{len(Action) - 1}",
        lambda v: type(v) is list and _ints(v) and (not v or 0 <= min(v) <= max(v) < len(Action)),
    ),
}


def key_problem(doc: dict, required, types: dict, noun: str) -> str | None:
    """What is wrong with ``doc``, if anything: the ``required`` keys it
    lacks, else the first of its keys in ``types`` whose value fails the test."""
    missing = [k for k in required if k not in doc]
    if missing:
        return f"missing {noun} {', '.join(missing)}"
    bad = next((k for k in doc if k in types and not types[k][1](doc[k])), None)
    return bad and f"{noun} {bad} is not {types[bad][0]}"


def _record_problem(record: dict, fields: tuple[str, ...], index: int) -> str | None:
    """key_problem of a kept dataset record, or positions that are not one
    more than its actions, named by its id (or ``index`` if the id is bad)."""
    problem = key_problem(record, fields, FIELD_TYPES, "field")
    if not problem and {"actions", "positions"} <= record.keys():
        n, m = len(record["positions"]), len(record["actions"])
        problem = f"{n} positions for {m} actions" if n != m + 1 else None
    name = f"trajectory {record['id']}" if type(record.get("id")) is int else f"record {index}"
    return problem and f"{name}: {problem}"


# The dataset index: the FIELD_TYPES fields of every record as typed
# columns, in a file beside the log (``index_path``). Per field, the dtype of
# its values and, for a list field, the shape of one element (None: one value
# per record).
INDEX_COLUMNS = {
    "id": ("<i8", None),
    "alpha": ("<f8", None),
    "reached_goal": ("|b1", None),
    "actions": ("|u1", ()),
    "positions": ("<i2", (3,)),  # a map wider than 32767 voxels gets no index
    "bug_regions": ("<i8", ()),
}
# An index's first line names this layout, so one written for another
# layout never reads as this one.
INDEX_FORMAT = f"voxhunt dataset index {json.dumps(INDEX_COLUMNS)}\n".encode()


def index_path(log_path: str | Path) -> Path:
    """Where the index of the log at ``log_path`` lives: dataset.jsonl -> dataset.index."""
    return Path(log_path).with_suffix(".index")


def _file_sha256(path: str | Path) -> str:
    """The sha256 of the file at ``path``, read in 256 KiB chunks so memory
    stays flat (``hashlib.file_digest`` needs Python 3.11; 1 MiB chunks
    raised a triage pass's peak RSS by ≈0.9 MB)."""
    sha, buf = hashlib.sha256(), bytearray(1 << 18)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            sha.update(memoryview(buf)[:n])
    return sha.hexdigest()


@dataclass(frozen=True)
class Columns:
    """Dataset fields of ``n`` records, in record order, as a projected
    ``TrajectoryLog.read`` returns them: ``values[k]`` holds a scalar field's
    n values, or a list field's values of every record end to end (positions
    as rows of 3), and ``lengths[k]`` a list field's count per record. A
    column has its INDEX_COLUMNS dtype, or is an object array of the decoded
    JSON values when one does not fit it (an id beyond int64, a position
    beyond int16; such a dataset has no index)."""

    n: int
    values: dict[str, np.ndarray]
    lengths: dict[str, np.ndarray]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, field: str) -> np.ndarray:
        return self.values[field]

    def split(self, field: str) -> list[list]:
        """A list field's values as one Python list per record."""
        values, ends = self.values[field].tolist(), np.cumsum(self.lengths[field]).tolist()
        return [values[a:b] for a, b in zip([0, *ends], ends)]

    @classmethod
    def of(cls, records: list[dict], fields: tuple[str, ...], optional=()) -> Columns:
        """``records``, each holding ``fields`` with values that pass their
        FIELD_TYPES test, as columns; a record lacking one of the ``optional``
        list fields holds it empty."""
        values, lengths = {}, {}
        for k in (*fields, *optional):
            dtype, item = INDEX_COLUMNS[k]
            if item is None:
                values[k] = _column([r[k] for r in records], dtype, ())
                continue
            parts = [r.get(k, ()) for r in records]
            lengths[k] = np.array([len(p) for p in parts], "<i8")
            values[k] = _column(list(chain.from_iterable(parts)), dtype, item)
        return cls(len(records), values, lengths)


def _column(values: list, dtype: str, item: tuple[int, ...]) -> np.ndarray:
    """``values``, each of shape ``item``, as an array of ``dtype`` when
    every number fits it (an int alpha reads as a float), else as an array
    of the values themselves."""
    numbers = chain.from_iterable(values) if item else values
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # NumPy 1.x wraps an int out of range
            column = np.fromiter(numbers, dtype, len(values) * int(np.prod(item)))
    except (OverflowError, DeprecationWarning):  # NumPy 2 refuses it
        return np.array(values, object)
    return column.reshape(-1, *item)


def _read_index(path: Path, keep: tuple[str, ...]) -> Columns | None:
    """The fields ``keep`` of every record of the log at ``path``, as
    read-only column views of its index; None when the index is absent,
    damaged (its checksum) or stale (it was not written for these bytes)."""
    try:
        blob = index_path(path).read_bytes()
    except OSError:
        return None
    start = len(INDEX_FORMAT) + 65  # the format line, then the body's sha256 line
    body = memoryview(blob)[start:]
    if blob[:start] != INDEX_FORMAT + hashlib.sha256(body).hexdigest().encode() + b"\n":
        return None
    end = blob.index(b"\n", start) + 1
    tie = json.loads(blob[start:end])  # the log's line count and sha256
    if tie["sha256"] != _file_sha256(path):
        return None
    n, offset, values, lengths = tie["lines"], end, {}, {}

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal offset
        column = np.frombuffer(blob, dtype, count, offset)
        offset += column.nbytes
        return column

    for k, (dtype, item) in INDEX_COLUMNS.items():
        if item is None:
            values[k] = take(dtype, n)
            continue
        lengths[k] = take("<i8", n)
        values[k] = take(dtype, int(lengths[k].sum()) * int(np.prod(item))).reshape(-1, *item)
    return Columns(n, {k: values[k] for k in keep}, {k: lengths[k] for k in keep if k in lengths})


class TrajectoryLog:
    """Append-only JSONL file, one sorted-key object per line: a run's dataset or metrics.

    While every appended record passes _record_problem and ``Columns.of``
    packs it into the INDEX_COLUMNS dtypes, the log keeps the packed columns,
    and ``close`` writes them to ``index_path`` if the file holds exactly the
    appended lines. The index is derived data: opening a log removes any old
    one, and ``read`` takes it only when it is intact and matches the file's
    bytes, so a missing, stale or damaged index never changes a result.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.count = 0
        self._fh = open(self.path, "ab")
        index_path(self.path).unlink(missing_ok=True)
        # Per INDEX_COLUMNS field, the index's (lengths, values) columns of
        # the records appended so far (≈0.95 KB per 128-step record; a
        # scalar field has no lengths). None once a record cannot be packed.
        self._columns = [(bytearray(), bytearray()) for _ in INDEX_COLUMNS]
        self._sha = hashlib.sha256()  # of the appended bytes

    def append(self, record: dict) -> None:
        line = (json.dumps(record, sort_keys=True) + "\n").encode()
        self._fh.write(line)
        self.count += 1
        if self._columns is None:
            return
        fields = tuple(INDEX_COLUMNS)
        packed = None if _record_problem(record, fields, 0) else Columns.of([record], fields)
        if packed is None or any(v.dtype == object for v in packed.values.values()):
            self._columns = None
            return
        for k, (lengths, values) in zip(fields, self._columns):
            if k in packed.lengths:
                lengths += packed.lengths[k].tobytes()
            values += packed[k].tobytes()
        self._sha.update(line)

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()
        if self._columns is None or not self.count:
            return
        tie = {"lines": self.count, "sha256": self._sha.hexdigest()}
        if _file_sha256(self.path) != tie["sha256"]:
            return  # the file holds more or other than the appended lines
        body = (json.dumps(tie, sort_keys=True) + "\n").encode()
        body += b"".join(chain.from_iterable(self._columns))
        checksum = hashlib.sha256(body).hexdigest().encode()
        nn.write_atomic(index_path(self.path), INDEX_FORMAT + checksum + b"\n" + body)

    @staticmethod
    def read(
        path: str | Path, fields: tuple[str, ...] | None = None, optional: tuple[str, ...] = ()
    ) -> list[dict] | Columns:
        """Every record in the file, in order; a missing file, a line that is
        not UTF-8, a torn line, or a line that is not a JSON object is a
        TriageError naming the path.

        With ``fields`` (dataset fields, FIELD_TYPES keys) the read is
        projected and returns Columns of ``fields`` and ``optional`` (list
        fields, empty where a record lacks one): views of the log's index
        when that was written for these bytes, else ``Columns.of`` the JSONL
        records, each cut to those fields as it is decoded and checked, a
        _record_problem being a TriageError."""
        if fields is not None:
            keep = (*fields, *optional)
            if unknown := [k for k in keep if k not in INDEX_COLUMNS]:
                raise ValueError(f"not dataset fields: {', '.join(unknown)}")
            if scalar := [k for k in optional if INDEX_COLUMNS[k][1] is None]:
                raise ValueError(f"only a list field can be optional: {', '.join(scalar)}")
        if not Path(path).exists():
            raise TriageError(f"missing dataset: {path}")
        if fields is not None and (columns := _read_index(Path(path), keep)) is not None:
            return columns
        records = []
        with open(path, "rb") as fh:
            for number, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode().strip()
                except UnicodeDecodeError as e:
                    raise TriageError(
                        f"{path}: line {number}: torn or malformed record (not UTF-8: {e.reason})"
                    ) from e
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    raise TriageError(
                        f"{path}: line {number}: torn or malformed record ({e.msg})"
                    ) from e
                if not isinstance(record, dict):
                    raise TriageError(f"{path}: line {number}: record is not a JSON object")
                if fields is not None:
                    record = {k: record[k] for k in keep if k in record}
                    if problem := _record_problem(record, fields, len(records) + 1):
                        raise TriageError(f"{path}: {problem}")
                records.append(record)
        return records if fields is None else Columns.of(records, fields, optional)
