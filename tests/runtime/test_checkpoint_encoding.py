"""Checkpoint files are encoded from per-table text, byte-identically.

``save_checkpoint`` splices the memoized JSON text of each table into
the header's encoding instead of ``json.dumps``-ing the whole database.
Two pins:

* at every boundary of a hardened run the file on disk equals the
  reference encoding ``json.dumps(checkpoint.to_json()) + "\\n"``;
* after one checkpoint has warmed the memo, a database that differs by
  one replaced table encodes only that table's text.
"""

import json

import pytest

from repro.core import make_table
from repro.obs.examples import EXAMPLES
from repro.runtime import checkpoint as ck
from repro.runtime import run_hardened
from repro.runtime.workloads import parse_workload


def _workload(name):
    if name in EXAMPLES:
        db, run = EXAMPLES[name].setup()
        return run.__self__, db
    _label, program, db = parse_workload(name)
    return program, db


@pytest.mark.parametrize(
    "name, engine",
    [("tc:6", "naive"), ("tc:6", "vector"), ("fig4-group", "naive")],
)
def test_files_match_the_reference_encoding_at_every_boundary(
    name, engine, tmp_path, monkeypatch
):
    program, db = _workload(name)
    save = ck.save_checkpoint
    boundaries = []

    def checked_save(path, checkpoint):
        written = save(path, checkpoint)
        reference = json.dumps(checkpoint.to_json()) + "\n"
        assert written.read_text() == reference, len(boundaries)
        boundaries.append(checkpoint.done)
        return written

    monkeypatch.setattr(ck, "save_checkpoint", checked_save)
    result = run_hardened(program, db, checkpoint_path=tmp_path / "ck.json", engine=engine)
    assert result == program.run(db)
    assert len(boundaries) > 2 and boundaries[-1] is True


def test_one_replaced_table_is_the_only_table_encoded(tmp_path, monkeypatch):
    _label, _program, db = parse_workload("tc:5")
    path = tmp_path / "ck.json"

    def checkpoint(database):
        return ck.Checkpoint(
            statement_index=1, iterations=0, next_tag=0, db=database, fingerprint="f"
        )

    ck.save_checkpoint(path, checkpoint(db))  # warms the memo

    t = make_table("X", ["A", "B"], [(1, 2), (3, 4)])
    changed = db.replace_named("X", [t])
    dumps = json.dumps
    encoded = []

    def counting_dumps(obj, *args, **kwargs):
        text = dumps(obj, *args, **kwargs)
        encoded.append((obj, text))
        return text

    monkeypatch.setattr(json, "dumps", counting_dumps)
    ck.save_checkpoint(path, checkpoint(changed))
    monkeypatch.undo()

    table_texts = [text for obj, text in encoded if isinstance(obj, list)]
    assert table_texts == [dumps(ck.table_to_data(t))]
    headers = [obj for obj, _text in encoded if isinstance(obj, dict)]
    assert all("database" not in header for header in headers)
    assert path.read_text() == json.dumps(checkpoint(changed).to_json()) + "\n"
