"""The byte tokenizer of the edge, affiliation, venue and check-in files
(their format is in the README).  A file is read once into a byte array; token
and line bounds, comments and field counts come from array operations,
and ids are interned on packed 8-byte words, so only distinct ids become
strings.  ``raise_first`` names the first bad record of a file, and of the
in-memory inputs too (edges, draws, visit weights, venue coordinates).
"""

from __future__ import annotations

import codecs
import re
from itertools import repeat

import numpy as np

# the ASCII characters str.split() splits on: \t \n \v \f \r, \x1c-\x1f, space
SPACE = np.zeros(256, dtype=bool)
SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")  # whitespace outside ASCII


def records(path, fields: int, expected: str):
    """(data, starts, lens, lines, pending): the file's bytes, the (r, fields)
    byte offsets and lengths of the tokens of its data lines before the
    first bad line, their 1-based line numbers, and the error naming that
    line, or None."""
    data = np.fromfile(path, dtype=np.uint8)
    offset = np.int32 if len(data) < 2**31 else np.int64
    inside = ~SPACE[data]
    edge = np.zeros(len(data) + 1, dtype=bool)  # where a token starts or ends
    edge[:-1] = inside
    edge[1:] ^= inside
    del inside
    bounds = np.flatnonzero(edge)
    del edge
    starts = bounds[0::2].astype(offset)
    lens = np.subtract(bounds[1::2], bounds[0::2], dtype=offset)
    del bounds
    breaks = np.flatnonzero(data == 10)  # line ends: \n, and \r not before \n
    cr = np.flatnonzero(data == 13)
    if len(cr):
        breaks = np.sort(np.concatenate((breaks, cr[np.take(data, cr + 1, mode="clip") != 10])))
    line = np.searchsorted(breaks, starts).astype(offset)  # 0-based line of each token
    head = np.ones(len(line), dtype=bool)  # first token of its line
    np.not_equal(line[1:], line[:-1], out=head[1:])
    comment = data[starts[head]] == ord("#")
    if comment.any():
        keep = ~comment[np.cumsum(head) - 1]
        starts, lens, line, head = starts[keep], lens[keep], line[keep], head[keep]
    heads = np.flatnonzero(head)
    count = np.diff(heads, append=len(line))  # tokens per data line

    cut, bad = len(line), None
    wrong = np.flatnonzero(count != fields)[:1]
    if len(wrong):
        cut, last = int(heads[wrong[0]]), int(heads[wrong[0]] + count[wrong[0]] - 1)
        text = token_text(data, starts[cut], starts[last] + lens[last] - starts[cut])
        bad = (line[cut], f"{expected}, got {text!r}")
    odd = first_non_ascii_error(data) if data.max(initial=0) >= 0x80 else None
    if odd is not None:
        at = np.searchsorted(breaks, odd[0])
        if bad is None or at <= bad[0]:
            cut, bad = int(np.searchsorted(line, at)), (at, odd[1])
    pending = None if bad is None else f"{path}:{bad[0] + 1}: {bad[1]}"
    return (data, starts[:cut].reshape(-1, fields), lens[:cut].reshape(-1, fields),
            line[:cut:fields] + 1, pending)


def first_non_ascii_error(data, chunk: int = 1 << 20):
    """(byte offset, message) of the first byte that is not UTF-8 or starts
    whitespace outside ASCII, which str.split() would split on; or None.
    The file is decoded a chunk at a time, so its text is never held whole."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    view = memoryview(data)
    for lo in range(0, len(data), chunk):
        at = lo - len(decoder.getstate()[0])  # the byte the chunk's text starts at
        try:
            text = decoder.decode(view[lo:lo + chunk], final=lo + chunk >= len(data))
        except UnicodeDecodeError as exc:
            return at + exc.start, f"not UTF-8: {exc.reason}"
        wide = WIDE_SPACE.search(text)
        if wide:
            return (at + len(text[:wide.start()].encode("utf-8")), f"non-ASCII whitespace "
                    f"{wide.group()!r}; fields are separated by ASCII whitespace only")
    return None


def token_text(data, start, length) -> str:
    return data[start:start + length].tobytes().decode("utf-8", "replace")


def pack(data, starts, lens, width: int) -> np.ndarray:
    """(n, width) uint8 matrix of the tokens' bytes, zero padded."""
    out = np.zeros((len(starts), width), dtype=np.uint8)
    at = starts.astype(np.intp)
    for k in range(min(width, int(lens.max(initial=0)))):
        out[:, k] = np.where(lens > k, np.take(data, at, mode="clip"), 0)
        at += 1
    return out


def intern(data, starts, lens):
    """(codes, names): token i is id ``codes[i]``, ids numbered by first
    appearance.  A token of 8w to 8w + 7 bytes is keyed by w + 1 uint64
    words, zero padded, with its length mod 8 in the free last byte so that
    trailing NUL bytes do not merge two ids."""
    starts, lens = starts.reshape(-1), lens.reshape(-1)
    counts = np.bincount(lens >> 3)
    group = np.empty(len(lens), dtype=lens.dtype)  # each token's group of equal tokens
    firsts = [np.empty(0, dtype=np.int64)]  # first appearance of each group
    for w in np.flatnonzero(counts).tolist():
        sel = slice(None) if counts[w] == len(lens) else np.flatnonzero(lens >> 3 == w)
        keys = pack(data, starts[sel], lens[sel], 8 * w + 8)
        keys[:, -1] = lens[sel] & 7
        keys = keys.view(np.uint64)
        # any order of equal keys will do; lexsort of one key is ~2.5x slower
        at = np.argsort(keys[:, 0]) if w == 0 else np.lexsort(keys.T)
        keys = keys[at]
        new = np.ones(len(at), dtype=bool)
        new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        # the group of each sorted token, counted in the keys' own memory
        ids = np.cumsum(new, out=keys.reshape(-1).view(lens.dtype)[:len(at)])
        ids += sum(map(len, firsts)) - 1
        at = at if isinstance(sel, slice) else sel[at]
        group[at] = ids
        firsts.append(np.minimum.reduceat(at, np.flatnonzero(new)))
        del keys, ids, at, sel, new
    firsts = np.concatenate(firsts)
    order = np.argsort(firsts)
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[order] = np.arange(len(firsts))
    names = decode(data, starts[firsts[order]], lens[firsts[order]])
    return rank[group], names


def decode(data, starts, lens) -> list:
    """The tokens as str, decoded at once."""
    total = int(lens.sum())
    src = np.arange(total) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    joined = np.full(total + len(lens), ord("\n"), dtype=np.uint8)
    joined[np.arange(total) + np.repeat(np.arange(len(lens)), lens)] = data[src]
    return joined.tobytes().decode("utf-8").split("\n")[:-1]


def resolve(data, starts, lens, node_names) -> np.ndarray:
    """The position of each token in ``node_names``, -1 where it is absent:
    one dict lookup per distinct token."""
    codes, names = intern(data, starts, lens)
    ids = dict(zip(node_names, range(len(node_names))))
    return np.fromiter(map(ids.get, names, repeat(-1)), dtype=np.int64, count=len(names))[codes]


def floats(data, starts, lens):
    """(values, failed): the tokens as float64, and a mask of the first one
    that is no float literal; values from there on read 0."""
    width = max(1, int(lens.max(initial=0)))
    col = pack(data, starts, lens, width)
    col[(col == 0) & (np.arange(width) < lens[:, None])] = ord("x")  # NUL is no digit
    col = col.view(f"S{width}").ravel()
    failed = np.zeros(len(col), dtype=bool)
    try:
        return col.astype(np.float64), failed
    except ValueError:
        lo, hi = 0, len(col)  # col[:lo] parses, col[lo:hi] does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                col[lo:mid].astype(np.float64)
                lo = mid
            except ValueError:
                hi = mid
        failed[lo] = True
        return np.concatenate((col[:lo].astype(np.float64), np.zeros(len(col) - lo))), failed


class InputError(ValueError):
    """A bad record of a data file, named by ``path:line``."""


def raise_first(checks, path=None, lines=None, pending=None) -> None:
    """Raise a ValueError naming the earliest bad record, by the first of
    ``checks`` it fails: (mask over the records, message of record i) pairs.
    File records get a ``path:line`` prefix from ``lines`` and raise an
    InputError; with no bad record, so does the pending error."""
    firsts = [int(np.argmax(mask)) if mask.any() else len(mask) for mask, _ in checks]
    i = min(firsts)
    if i < len(checks[0][0]):
        message = checks[firsts.index(i)][1](i)
        raise ValueError(message) if path is None else InputError(f"{path}:{lines[i]}: {message}")
    if pending is not None:
        raise InputError(pending)
