"""Every entry a model checkpoint stores has a reader.

For each model file of a tiny run, each header entry and tensor name is one
its loader reads, an identity entry the loader checks (``kind``, ``system``,
``variant``), or an entry of ``ALLOWED``. A fact that nothing reads back is
not stored: it could only drift from the one that is read.
"""

import numpy as np

from test_config_cli import tiny_run  # noqa: F401 (fixture)
from xldv import archive, backend, ivector, pipeline
from xldv.evalkit import SYSTEMS
from xldv.nn import NetworkGraph

# Stored and read by no loader, kept on purpose.
ALLOWED = {
    "lda_dim": "perfbench's retune check reads it from each back-end header",
    "val_accuracy": "the training record, for ROADMAP direction 8's event stream",
    "val_loss": "the training record, for ROADMAP direction 8's event stream",
}


def _load_parts(**parts):
    return lambda path, header: archive.load_model(path, header, **parts)


def loaders():
    """Each model file of a run dir -> (the identity its reader checks, the loader)."""
    table = {
        pipeline.UBM_MODEL: ({"kind": "ubm"}, _load_parts(ubm=ivector.UBM)),
        pipeline.TMATRIX_MODEL: ({"kind": "tmatrix"}, _load_parts(tmatrix=ivector.TMatrix)),
        pipeline.ASR_MODEL: ({"kind": "phone-classifier"}, NetworkGraph.from_checkpoint),
    }
    for aware, variant in pipeline.CTDNN_VARIANTS.items():
        table[pipeline.ctdnn_model(aware)] = ({"kind": "ctdnn", "variant": variant},
                                              NetworkGraph.from_checkpoint)
    for system in SYSTEMS:
        table[pipeline.backend_model(system)] = (
            {"kind": "backend", "system": system},
            _load_parts(mean=np.ndarray, lda=np.ndarray, plda=backend.PLDAModel))
    return table


class Recording(dict):
    """A dict that adds each key read through ``[]`` to ``read``."""

    def __init__(self, data, read):
        super().__init__(data)
        self.read = read

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.read.add(key)
        return value


def test_every_stored_entry_has_a_reader(tiny_run, monkeypatch):  # noqa: F811
    read = set()
    load_checkpoint = archive.load_checkpoint
    monkeypatch.setattr(archive, "load_checkpoint",
                        lambda path: tuple(Recording(d, read) for d in load_checkpoint(path)))
    table = loaders()
    models = sorted(p.relative_to(tiny_run).as_posix()
                    for p in (tiny_run / "models").glob("*.nnck"))
    assert models == sorted(table)
    unread, allowed_seen = {}, set()
    for rel, (identity, load) in table.items():
        read.clear()
        load(tiny_run / rel, identity)
        header, tensors = load_checkpoint(tiny_run / rel)
        stored = set(header) | set(tensors)
        allowed_seen |= stored & set(ALLOWED)
        extra = stored - read - set(identity) - set(ALLOWED)
        if extra:
            unread[rel] = sorted(extra)
    assert unread == {}, f"stored but read by no loader (drop, or allow with a reason): {unread}"
    assert allowed_seen == set(ALLOWED), (
        f"allowed but stored in no model file: {sorted(set(ALLOWED) - allowed_seen)}")
