"""The volcur command's input cache: one entry per input file, in a directory of
the user's own, named by the SHA-256 of the file's bytes and of all that the
entry's arrays depend on.  Only cli imports it; the library writes no file."""
import os
import sys
from contextlib import ExitStack, suppress
from operator import attrgetter
from pathlib import Path
from stat import S_ISDIR, S_ISREG
from typing import Callable, TextIO

import numpy as np

from . import _BLAS_SETTING
from .spectra import _read_table

_FORMAT = "input-1"         # in every key: bump it when the text grammar or an entry changes
_CACHE_CAP = 1 << 30        # bytes of cache files kept; the least recently used go first
_STALE = 3600 * 10**9       # ns: a *.tmp file this much older than the newest is a dead store's
_stamp = attrgetter("st_size", "st_mtime_ns", "st_ctime_ns")     # of a file's os.fstat


def _read(path: str, what: str, transform: str, build: Callable[[list], object]) -> object:
    """build(arrays), the `what` file at path as the command takes it: [table] on a miss,
    read through the handle that hashed it; on a hit (_cache_entry), what build left in
    that list on a miss where the file did not change while read: a spectrum's [table]
    or a matrix's [entries, w, v], also where a check after eigh refused them.  A file
    that cannot be opened or hashed is left to the reader."""
    with ExitStack() as stack:
        try:
            file = stack.enter_context(open(path))
            stamp, entry = _stamp(os.fstat(file.fileno())), _cache_entry(file, what, transform)
        except OSError:
            return build([_read_table(path, what)])
        if entry and (arrays := _cache_load(entry, what)):
            return build(arrays)
        arrays = [_read_table(path, what, file)]
        fresh = entry and _stamp(os.fstat(file.fileno())) == stamp
        try:
            return build(arrays)
        finally:
            if fresh and len(arrays) == (1 if what == "spectrum" else 3):
                _cache_store(entry, arrays)


def _cache_entry(file: TextIO, what: str, transform: str) -> Path | None:
    """The entry of the input read from an open file: the SHA-256 of _FORMAT, what the file is
    read as, its text encoding and transform, numpy's version, install and BLAS build, the
    BLAS setting numpy loaded with, the host, and the file's bytes, read through its handle,
    then rewound.  None for a file that is not regular (a pipe), where no cache directory may
    be used, and where the BLAS setting is unknown (volcur._BLAS_SETTING is None, or
    threadpoolctl is loaded)."""
    if (not S_ISREG(os.fstat(file.fileno()).st_mode) or _BLAS_SETTING is None
            or "threadpoolctl" in sys.modules or (directory := _cache_dir()) is None):
        return None
    import hashlib          # loads OpenSSL: only a command that reads a regular file pays for it
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies")
    digest = hashlib.sha256(f"{_FORMAT}\0{what}\0{file.encoding}\0{transform}\0{np.__version__}\0"
                            f"{np.__file__}\0{blas}\0{_BLAS_SETTING}\0{os.uname().nodename}\0"
                            .encode())
    while block := file.buffer.read(1 << 20):
        digest.update(block)
    file.seek(0)
    return directory / f"{digest.hexdigest()}.npy"


def _cache_dir() -> Path | None:
    """$XDG_CACHE_HOME/volcur (~/.cache/volcur where that is unset or relative), if it does
    not exist yet or is a directory of this user's that no one else may write to; else
    None, as whoever may write there could plant the entry of a file whose bytes they know."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    directory = Path(base if os.path.isabs(base) else os.path.expanduser("~/.cache"), "volcur")
    try:
        stat = os.stat(directory)
    except FileNotFoundError:
        return directory if directory.is_absolute() else None   # _cache_store makes it
    except OSError:
        return None
    private = S_ISDIR(stat.st_mode) and stat.st_uid == os.getuid() and not stat.st_mode & 0o022
    return directory if private and directory.is_absolute() else None


def _cache_load(entry: Path, what: str) -> list[np.ndarray] | None:
    """The float64 arrays stored as entry, read with no unpickling, marked as just used: a
    spectrum's 2-D [table], a matrix's [entries, w, v] (n x n, n, n x n); else None."""
    try:
        with open(entry, "rb") as file:
            arrays = [np.lib.format.read_array(file, allow_pickle=False)
                      for _ in range(1 if what == "spectrum" else 3)]
        os.utime(entry)
    except (OSError, ValueError):
        return None
    n = arrays[0].shape[:1]
    shapes = [arrays[0].shape] if what == "spectrum" else [n * 2, n, n * 2]
    ok = arrays[0].ndim == 2 and [x.shape for x in arrays] == shapes
    return arrays if ok and all(x.dtype == np.float64 for x in arrays) else None


def _cache_store(entry: Path, arrays: list[np.ndarray]) -> None:
    """Store arrays as entry, one .npy array after another, unless past _CACHE_CAP alone; then
    evict the least recently used files past the cap.  A store cut short removes its *.tmp
    file; one _STALE older than the newest, a dead process's, counts and goes as an entry."""
    if sum(x.nbytes for x in arrays) > _CACHE_CAP:
        return
    temp = entry.with_name(f"{entry.stem}.{os.getpid()}.tmp")
    try:
        entry.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        if _cache_dir() != entry.parent:    # made by another user, or writable by others
            return
        with open(temp, "wb") as out:
            for x in arrays:
                np.save(out, x)
        os.replace(temp, entry)
        with os.scandir(entry.parent) as scan:
            files = sorted((s.st_mtime_ns, s.st_size, e.path)
                           for e in scan if e.is_file() for s in [e.stat()])
        fresh = files[-1][0] - _STALE
        files = [f for f in files if f[0] <= fresh or not f[2].endswith(".tmp")]
        total = sum(size for _, size, _ in files)
        for _, size, name in files:     # oldest first, until the rest fit
            if total > _CACHE_CAP:
                os.unlink(name)
                total -= size
    except (OSError, ValueError):
        pass
    finally:
        with suppress(OSError):
            os.unlink(temp)     # there is none once it became the entry
