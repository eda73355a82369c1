"""The one writer of every file ionpulse produces: each goes to <path>.tmp, which
os.replace renames over <path>, so a stopped or failed write leaves the previous
file, never a truncated one. No fsync (a power loss may lose the newest file). A
plain open makes the temp file, so it gets the umask's usual permission bits."""

import itertools
import json
import os

import numpy as np


def _write(path, fill, binary=False):
    """Call fill(fh) on <path>.tmp, opened for writing, then rename it over path."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="") as fh:
            fill(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_text(path, chunks):
    """Write the strings in chunks to path through <path>.tmp and a rename."""
    _write(path, lambda fh: fh.writelines(chunks))


def write_json(path, payload):
    """payload as JSON indented by 2, keys sorted, and a trailing newline."""
    write_text(path, [json.dumps(payload, indent=2, sort_keys=True), "\n"])


def write_csv(path, header, rows):
    """A row of the header's names, then one per item of rows, its cells by repr.

    These are csv.writer's bytes ("\\r\\n" row ends) for Python ints and floats, whose
    reprs never need quoting: pass .tolist() values, not numpy scalars."""
    lines = (",".join(map(repr, row)) + "\r\n" for row in rows)
    write_text(path, itertools.chain([",".join(header) + "\r\n"], lines))


def write_npz(path, **arrays):
    """The arrays as an uncompressed np.savez archive, one <name>.npy member each.

    The values are stored exactly, and np.load(path, allow_pickle=False) reads
    them: an object array, which would need a pickle, raises ValueError. np.savez
    stamps every member 1980-01-01, so equal arrays give equal bytes. It is handed
    the open temp file, since it would append ".npz" to a name."""
    _write(path, lambda fh: np.savez(fh, allow_pickle=False, **arrays), binary=True)
