"""Structured span/event tracing, streamed to a JSONL file.

A :class:`Tracer` records two record shapes (see :mod:`repro.obs.schema`
for the frozen format):

* **spans** — timed regions with identity and a parent, one per
  protocol transaction (``protocol.fetch``), memory reference
  (``ref``), or whole run (``run``);
* **events** — point occurrences (``dlb_hit``, ``msg``, ``phase``)
  attached to the innermost open span.

Span nesting is tracked with a stack rather than explicit handles: the
simulator processes each transaction synchronously to completion, so
``begin``/``end`` pairs are strictly LIFO per machine.  Ids are
assigned at ``begin`` and parents captured then, so every reference in
the output resolves; records are *written* when a span ends (children
before parents in the stream).

A tracer streams every record to its JSONL file, after a ``meta``
header; the file keeps the full history.  Recording on a closed tracer
raises :class:`~repro.common.errors.ConfigurationError`.  The hot paths
in node/protocol/crossbar code only touch a tracer through an ``is
None`` check, so a detached tracer costs one pointer comparison.

Two recording paths share the stack, the id counter, and the output
stream:

* the **generic** path (:meth:`Tracer.begin` / :meth:`Tracer.end` /
  :meth:`Tracer.event`) builds one dict per record and walks it in
  :func:`_encode` — flexible, used for rare records (``meta``,
  ``run``, ``phase``, ``sim.*``);
* the **packed** path (:meth:`Tracer.event_emitter` /
  :meth:`Tracer.span_emitter`) is for hot, fixed-shape records: the
  call site hoists an emitter once and each record becomes one
  ``struct``-packed ``bytes`` object — a codec-id byte followed by the
  slot values as little-endian int64s — appended to a binary batch
  that is rendered to JSONL text in bulk: by the compiled
  ``fs_trace_render`` kernel when the timing backend is available,
  else by a Python fallback.  Every codec's rendering is verified
  against :func:`_encode` at creation, so the on-disk byte stream is
  identical whichever path — or renderer — produced a record.

A third producer writes packed records from outside Python: the
compiled timing engine (``fastsim.c``).  It learns the codec ids and
global string ids from the emitters (each carries its ``codec``),
continues the span-id counter and last seen time
(:attr:`Tracer.span_state`), and hands its drained buffer to
:meth:`Tracer.take_packed`.  A full drain (``PACKED_FLUSH_BYTES`` or
more) that finds no packed records batched is rendered straight from
the engine's memory and written after any pending lines; a smaller one
is batched for the renderer exactly as the emitters' records are.
Either way the compiled renderer's output reaches the file as a view
of its buffer, without a Python copy.
"""

from __future__ import annotations

import json
import struct
import zlib
from sys import intern as _intern
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.schema import TRACE_FORMAT_VERSION

#: Encoded records accumulated before a single batched file write.
FLUSH_BATCH = 512

#: Packed bytes accumulated before one bulk render + file write
#: (a few thousand records at typical shapes; the render is O(bytes)
#: so larger batches just amortize the drain call better).
PACKED_FLUSH_BYTES = 1 << 17

#: Zero bytes after the segment and string blobs handed to
#: ``fs_trace_render`` (its ``TR_SLACK``: chunked copies overrun by up
#: to 15 bytes).
_TABLE_PAD = 32

# Fallback for values the fast path below doesn't handle inline.
_json_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
).encode

# The compiled renderer rides in the fastsim library; resolved lazily so
# importing this module never triggers a build, and kept module-global
# because the library is process-wide anyway.
_RENDER_BACKEND = None
_render_resolved = False


def _render_lib():
    """The loaded fastsim library (for ``fs_trace_render``) or None."""
    global _RENDER_BACKEND, _render_resolved
    if not _render_resolved:
        _render_resolved = True
        try:
            from repro.core.timing_kernels import get_backend

            _RENDER_BACKEND = get_backend()
        except Exception:
            _RENDER_BACKEND = None
    return None if _RENDER_BACKEND is None else _RENDER_BACKEND.lib


def _encode(record: Dict) -> str:
    """Serialize one flat trace record to compact JSON.

    Trace records are single-level dicts of scalars by construction,
    which lets this skip :class:`json.JSONEncoder`'s generic machinery
    (~2x on the enabled-tracing hot path).  Keys follow insertion
    order, which is deterministic because every record shape is built
    by exactly one code path; strings needing escapes and non-scalar
    values fall back to the stdlib encoder.
    """
    parts = []
    append = parts.append
    for key, value in record.items():
        tv = type(value)
        if tv is int:
            append(f'"{key}":{value}')
        elif tv is str:
            if '"' not in value and "\\" not in value and value.isprintable():
                append(f'"{key}":"{value}"')
            else:
                append(f'"{key}":{_json_encode(value)}')
        elif value is None:
            append(f'"{key}":null')
        elif tv is bool:
            append(f'"{key}":true' if value else f'"{key}":false')
        else:
            append(f'"{key}":{_json_encode(value)}')
    return "{" + ",".join(parts) + "}"


# Slot kinds shared with fs_trace_render: a plain int, an int rendered
# as ``null`` when negative (optional span/parent ids), or an index
# into the tracer's global string table (enum choices, true/false).
_SLOT_INT = 0
_SLOT_NULLABLE = 1
_SLOT_STRING = 2


class _PackedCodec:
    """Fixed layout of one hot record shape.

    A packed record is ``[codec id u8][slot values as int64 LE]`` with
    slots in JSON key order.  Enum and bool slots hold ids into the
    owning tracer's global string table; the call site passes the
    choice *index* (or the bool) and the emitter maps it through a
    per-slot ``gmaps`` tuple when packing.  ``segments`` holds the
    literal JSON text between slots — quoting included — so rendering
    is a strict alternation of literal copy and value formatting, in
    C or in :meth:`render`.  Both are verified against :func:`_encode`
    at construction.
    """

    __slots__ = (
        "kind",
        "name",
        "begin_keys",
        "end_keys",
        "slots",
        "id",
        "struct",
        "size",
        "segments",
        "slot_kinds",
        "gmaps",
        "_strings",
    )

    def __init__(
        self,
        tracer: "Tracer",
        cid: int,
        kind: str,
        name: str,
        begin_keys: Tuple[str, ...],
        end_keys: Tuple[str, ...],
        slots: Dict[str, object],
    ) -> None:
        self.kind = kind
        self.name = _intern(name)
        self.begin_keys = begin_keys
        self.end_keys = end_keys
        #: key -> None (int slot) | tuple of choices (enum) | bool.
        self.slots = slots
        self.id = cid
        self._strings = tracer._strings
        head = 2 if kind == "event" else 4  # (span, t) / (id, parent, t0, t1)
        nvals = len(begin_keys) + len(end_keys)
        self.struct = struct.Struct("<B" + "q" * (head + nvals))
        self.size = self.struct.size
        gmaps = []
        for key in begin_keys + end_keys:
            conv = slots[key]
            if conv is None:
                gmaps.append(None)
            elif conv is bool:
                gmaps.append(
                    (tracer._global_string("false"), tracer._global_string("true"))
                )
            else:
                gmaps.append(tuple(tracer._global_string(c) for c in conv))
        self.gmaps = tuple(gmaps)
        self.segments, self.slot_kinds = self._build_layout()
        self._selfcheck()

    # -- construction ---------------------------------------------------
    def _build_layout(self) -> Tuple[List[str], bytes]:
        """Literal segments around each slot, and one kind byte per
        slot.  Enum slots are quoted (the quotes live in the adjacent
        segments); bool slots render their string unquoted."""
        if self.kind == "event":
            prefixes = ['{"kind":"event","span":', f',"name":"{self.name}","t":']
            kinds = [_SLOT_NULLABLE, _SLOT_INT]
        else:
            prefixes = [
                '{"kind":"span","id":',
                ',"parent":',
                f',"name":"{self.name}","t0":',
                ',"t1":',
            ]
            kinds = [_SLOT_INT, _SLOT_NULLABLE, _SLOT_INT, _SLOT_INT]
        quoted = [False] * len(prefixes)
        for key in self.begin_keys + self.end_keys:
            conv = self.slots[key]
            prefixes.append(f',"{key}":')
            quoted.append(conv is not None and conv is not bool)
            kinds.append(_SLOT_INT if conv is None else _SLOT_STRING)
        segments: List[str] = []
        for i, prefix in enumerate(prefixes):
            seg = ('"' if i > 0 and quoted[i - 1] else "") + prefix
            segments.append(seg + '"' if quoted[i] else seg)
        segments.append(('"' if quoted[-1] else "") + "}\n")
        return segments, bytes(kinds)

    def render(self, values: Sequence[int]) -> str:
        """Python fallback for ``fs_trace_render``: one record's slot
        values (codec id already stripped) to its JSONL line."""
        strings = self._strings
        segments = self.segments
        kinds = self.slot_kinds
        parts = []
        for j, v in enumerate(values):
            parts.append(segments[j])
            k = kinds[j]
            if k == _SLOT_STRING:
                parts.append(strings[v])
            elif k == _SLOT_NULLABLE and v < 0:
                parts.append("null")
            else:
                parts.append(str(v))
        parts.append(segments[-1])
        return "".join(parts)

    def _selfcheck(self) -> None:
        """Rendering must reproduce :func:`_encode` byte-for-byte, for
        both the present and the null span/parent head."""
        sample = []
        keys = self.begin_keys + self.end_keys
        for i, key in enumerate(keys):
            conv = self.slots[key]
            if conv is None:
                sample.append(101 + i)
            elif conv is bool:
                sample.append(self.gmaps[i][1])
            else:
                sample.append(self.gmaps[i][0])
        heads = ((31, 57), (-1, 57)) if self.kind == "event" else ((11, 3, 5, 9), (11, -1, 5, 9))
        for head in heads:
            packed = self.struct.pack(self.id, *head, *sample)
            rendered = self.render(self.struct.unpack(packed)[1:])
            expected = _encode(self.decode(packed)) + "\n"
            if rendered != expected:
                raise ConfigurationError(
                    f"packed layout for {self.kind} '{self.name}' diverges "
                    f"from the generic encoder: {rendered!r} != {expected!r}"
                )

    # -- decoding (cold: the construction self-check, truncated closes) -
    def decode(self, packed: bytes) -> Dict:
        """Rebuild the dict the generic path would have recorded."""
        values = self.struct.unpack(packed)
        strings = self._strings
        if self.kind == "event":
            record: Dict = {
                "kind": "event",
                "span": None if values[1] == -1 else values[1],
                "name": self.name,
                "t": values[2],
            }
            body = values[3:]
        else:
            record = {
                "kind": "span",
                "id": values[1],
                "parent": None if values[2] == -1 else values[2],
                "name": self.name,
                "t0": values[3],
                "t1": values[4],
            }
            body = values[5:]
        for key, value in zip(self.begin_keys + self.end_keys, body):
            conv = self.slots[key]
            if conv is None:
                record[key] = value
            elif conv is bool:
                record[key] = strings[value] == "true"
            else:
                record[key] = strings[value]
        return record

    def open_to_dict(self, entry: Tuple) -> Dict:
        """Materialize a still-open packed span (stack entry, raw
        caller values) as the dict the generic ``begin`` would have
        pushed — used when a packed span is closed by the generic
        :meth:`Tracer.end` (e.g. truncation at ``close()``)."""
        record: Dict = {
            "kind": "span",
            "id": entry[1],
            "parent": None if entry[2] == -1 else entry[2],
            "name": self.name,
            "t0": entry[3],
            "t1": None,
        }
        for key, value in zip(self.begin_keys, entry[4:]):
            conv = self.slots[key]
            if conv is None:
                record[key] = value
            elif conv is bool:
                record[key] = bool(value)
            else:
                record[key] = conv[value]
        return record


def _slot_table(
    keys: Tuple[str, ...], enums: Optional[Dict], bools: Sequence[str]
) -> Dict[str, object]:
    slots: Dict[str, object] = {}
    for key in keys:
        if enums and key in enums:
            slots[key] = tuple(_intern(str(c)) for c in enums[key])
        elif key in bools:
            slots[key] = bool
        else:
            slots[key] = None
    return slots


def _shape_key(kind, name, begin_keys, end_keys, enums, bools):
    frozen_enums = (
        tuple(sorted((k, tuple(map(str, v))) for k, v in enums.items()))
        if enums
        else ()
    )
    return (kind, name, tuple(begin_keys), tuple(end_keys), frozen_enums, tuple(bools))


class Tracer:
    """Collects spans and events and streams them to a JSONL file.

    Every record (meta header included) goes to ``path`` (gzipped for
    a ``.gz`` path); encoded lines are batched ``FLUSH_BATCH`` at a
    time (packed records ``PACKED_FLUSH_BYTES`` of binary at a time)
    to keep the per-record cost off the hot path (``close()`` drains
    the batches).  A path that cannot be opened for writing raises
    :class:`~repro.common.errors.ConfigurationError`.
    """

    def __init__(self, path: str) -> None:
        self._path = str(path)
        # The write side is binary: rendered batches come out of
        # fs_trace_render as raw ASCII and go to the file without a
        # str round-trip (the content is pure UTF-8 either way).
        # close() sets it to None.
        try:
            self._file = _open_trace(self._path, "wb")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot write trace {self._path}: {exc.strerror or exc}"
            ) from None
        # Mixed stack: dicts for generic spans, flat tuples
        # (codec, id, parent, t0, *begin_values) for packed ones, with
        # a parallel list of span ids shared by both paths.
        self._stack: List = []
        self._ids: List[int] = []
        self._next_id = 1
        self._last_time = 0
        self._meta: Optional[Dict] = None
        self._pending: List[bytes] = []  # encoded lines awaiting a batched write
        self._packed = bytearray()  # packed records awaiting a bulk render
        self._codecs: List[_PackedCodec] = []
        self._strings: List[str] = []  # global string table (codecs index it)
        self._string_ids: Dict[str, int] = {}
        self._emitters: Dict = {}  # shape -> compiled emitter(s)
        self._ctables = None  # cached cffi tables for fs_trace_render
        self._cbuf = None
        self._cbuf_cap = 0

    # -- lifecycle -----------------------------------------------------
    def set_meta(self, scheme: str, nodes: int, **extra: object) -> None:
        """Write the meta header.  Called once when a machine attaches."""
        self._check_open()
        if self._meta is not None:
            return
        record = {
            "kind": "meta",
            "format": TRACE_FORMAT_VERSION,
            "scheme": str(scheme),
            "nodes": int(nodes),
        }
        record.update(extra)
        self._meta = record
        self._emit(record)

    @property
    def meta(self) -> Optional[Dict]:
        return self._meta

    def close(self) -> None:
        """End any still-open spans (at the last seen time) and close
        the output file.  Closing a closed tracer does nothing."""
        if self._file is None:
            return
        while self._stack:
            self.end(self._last_time, truncated=True)
        if self._packed:
            self._drain_packed()
        self._write_pending()
        self._file.close()
        self._file = None

    def _check_open(self) -> None:
        if self._file is None:
            raise ConfigurationError(f"trace {self._path} is closed")

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- recording -----------------------------------------------------
    @property
    def current_span_id(self) -> Optional[int]:
        return self._ids[-1] if self._ids else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def last_time(self) -> int:
        """Largest timestamp seen so far — the clock for instrumentation
        sites (TLB/DLB hooks) that don't carry their own ``now``."""
        return self._last_time

    def begin(
        self, name: str, t: int, node: Optional[int] = None, **attrs: object
    ) -> int:
        """Open a span; returns its id.  The parent is the innermost
        span already open."""
        self._check_open()
        t = int(t)
        span_id = self._next_id
        self._next_id = span_id + 1
        ids = self._ids
        record: Dict = {
            "kind": "span",
            "id": span_id,
            "parent": ids[-1] if ids else None,
            "name": _intern(name),
            "t0": t,
            "t1": None,
        }
        if node is not None:
            record["node"] = int(node)
        if attrs:
            record.update(attrs)
        self._stack.append(record)
        ids.append(span_id)
        if t > self._last_time:
            self._last_time = t
        return span_id

    def end(self, t: int, **attrs: object) -> Dict:
        """Close the innermost span and emit its record."""
        self._check_open()
        if not self._stack:
            raise ConfigurationError("Tracer.end() with no open span")
        t = int(t)
        entry = self._stack.pop()
        self._ids.pop()
        record = entry if entry.__class__ is dict else entry[0].open_to_dict(entry)
        record["t1"] = t
        if attrs:
            record.update(attrs)
        if t > self._last_time:
            self._last_time = t
        self._emit(record)
        return record

    def event(
        self, name: str, t: int, node: Optional[int] = None, **attrs: object
    ) -> None:
        """Record a point event under the innermost open span."""
        t = int(t)
        ids = self._ids
        record: Dict = {
            "kind": "event",
            "span": ids[-1] if ids else None,
            "name": _intern(name),
            "t": t,
        }
        if node is not None:
            record["node"] = int(node)
        if attrs:
            record.update(attrs)
        if t > self._last_time:
            self._last_time = t
        self._emit(record)

    # -- packed emitters ------------------------------------------------
    def event_emitter(
        self,
        name: str,
        keys: Tuple[str, ...],
        enums: Optional[Dict[str, Tuple[str, ...]]] = None,
        bools: Sequence[str] = (),
    ):
        """Build a struct-packing emitter for one hot event shape.

        Returns ``emit(t, *values)`` taking one int per key, in key
        order: plain ints as-is, bool slots as ``True``/``False``, enum
        slots as an index into that key's ``enums`` tuple.  The call
        site hoists the emitter once (so the per-event cost is one
        call and one ``struct.pack``) and must pass values that match
        the declared layout.  Identical shapes share one emitter.  The
        emitter's ``codec`` attribute (its ``id`` and per-slot global
        string ids, ``gmaps``) lets another producer write the same
        records.
        """
        shape = _shape_key("event", name, keys, (), enums, bools)
        emit = self._emitters.get(shape)
        if emit is None:
            codec = self._new_codec(
                "event", name, tuple(keys), (), _slot_table(tuple(keys), enums, bools)
            )
            emit = self._compile_event(codec)
            self._emitters[shape] = emit
        return emit

    def span_emitter(
        self,
        name: str,
        begin_keys: Tuple[str, ...],
        end_keys: Tuple[str, ...],
        enums: Optional[Dict[str, Tuple[str, ...]]] = None,
        bools: Sequence[str] = (),
    ):
        """Build ``(begin, end)`` struct-packing emitters for one hot
        span shape.  ``begin(t0, *begin_values)`` pushes the open span
        (sharing the tracer's stack with the generic path, so nesting
        and ids interleave correctly); ``end(t1, *end_values)`` pops it
        and emits the packed record.  Pairs must close LIFO, like the
        generic API.  Both carry the shape's ``codec``, as event
        emitters do."""
        shape = _shape_key("span", name, begin_keys, end_keys, enums, bools)
        pair = self._emitters.get(shape)
        if pair is None:
            keys = tuple(begin_keys) + tuple(end_keys)
            codec = self._new_codec(
                "span",
                name,
                tuple(begin_keys),
                tuple(end_keys),
                _slot_table(keys, enums, bools),
            )
            pair = self._compile_span(codec)
            self._emitters[shape] = pair
        return pair

    def _global_string(self, value: str) -> int:
        """Intern ``value`` into the tracer-wide string table shared by
        all codecs (and by ``fs_trace_render``); returns its id."""
        sid = self._string_ids.get(value)
        if sid is None:
            sid = len(self._strings)
            self._strings.append(_intern(str(value)))
            self._string_ids[value] = sid
            self._ctables = None
        return sid

    def _new_codec(self, kind, name, begin_keys, end_keys, slots) -> _PackedCodec:
        cid = len(self._codecs)
        if cid > 255:
            raise ConfigurationError("too many packed trace shapes (max 256)")
        codec = _PackedCodec(self, cid, kind, name, begin_keys, end_keys, slots)
        self._codecs.append(codec)
        self._ctables = None
        return codec

    def _emitter_env(self, codec: _PackedCodec) -> Dict:
        env: Dict = {
            "_tracer": self,
            "_ids": self._ids,
            "_stack": self._stack,
            "_buf": self._packed,
            "_extend": self._packed.extend,
            "_limit": PACKED_FLUSH_BYTES,
            "_codec": codec,
            "_cid": codec.id,
            "_pack": codec.struct.pack,
            "_ConfigurationError": ConfigurationError,
        }
        for i, gmap in enumerate(codec.gmaps):
            if gmap is not None:
                env[f"_g{i}"] = gmap
        return env

    @staticmethod
    def _pack_exprs(codec: _PackedCodec, names: List[str]) -> List[str]:
        # Enum/bool slots store global string ids; the caller passes the
        # choice index (or the bool) and the emitter maps it here.
        return [
            name if gmap is None else f"_g{i}[{name}]"
            for i, (gmap, name) in enumerate(zip(codec.gmaps, names))
        ]

    @staticmethod
    def _bind(env: Dict, *names: str) -> str:
        """Default-argument bindings for the generated emitters: every
        hot name becomes a parameter default, so the body runs on
        LOAD_FAST instead of module-dict lookups (~25ns per access on
        paths that fire half a million times per run)."""
        return "".join(f", {name}={name}" for name in names if name in env)

    #: The generated statements that store one packed record ``b``:
    #: batched for the bulk renderer, or refused once the tracer is
    #: closed.
    _RECORD_STMTS = (
        "    if _tracer._file is not None:\n"
        "        _extend(b)\n"
        "        if len(_buf) >= _limit:\n"
        "            _tracer._flush_packed()\n"
        "    else:\n"
        "        _tracer._check_open()\n"
    )

    def _compile_event(self, codec: _PackedCodec):
        names = [f"v{i}" for i in range(len(codec.begin_keys))]
        args = ", ".join(names)
        packs = ", ".join(self._pack_exprs(codec, names))
        env = self._emitter_env(codec)
        gnames = [f"_g{i}" for i in range(len(codec.gmaps))]
        binds = self._bind(
            env, "_pack", "_cid", "_ids", "_tracer", "_extend", "_buf", "_limit", *gnames,
        )
        src = (
            f"def emit(t, {args}{binds}):\n"
            f"    b = _pack(_cid, _ids[-1] if _ids else -1, t, {packs})\n"
            f"{self._RECORD_STMTS}"
            f"    if t > _tracer._last_time:\n"
            f"        _tracer._last_time = t\n"
        )
        exec(compile(src, f"<trace-emitter event:{codec.name}>", "exec"), env)
        emit = env["emit"]
        emit.codec = codec
        return emit

    def _compile_span(self, codec: _PackedCodec):
        nb = len(codec.begin_keys)
        bnames = [f"v{i}" for i in range(nb)]
        enames = [f"v{i}" for i in range(nb, nb + len(codec.end_keys))]
        bargs = ", ".join(bnames)
        eargs = ", ".join(enames)
        unpack = "".join(
            f"    {name} = entry[{i + 4}]\n" for i, name in enumerate(bnames)
        )
        packs = ", ".join(self._pack_exprs(codec, bnames + enames))
        env = self._emitter_env(codec)
        gnames = [f"_g{i}" for i in range(len(codec.gmaps))]
        bbinds = self._bind(env, "_tracer", "_ids", "_stack", "_codec")
        ebinds = self._bind(
            env, "_pack", "_cid", "_ids", "_stack", "_codec", "_tracer",
            "_extend", "_buf", "_limit", *gnames,
        )
        begin_src = (
            f"def begin(t, {bargs}{bbinds}):\n"
            f"    sid = _tracer._next_id\n"
            f"    _tracer._next_id = sid + 1\n"
            f"    parent = _ids[-1] if _ids else -1\n"
            f"    _stack.append((_codec, sid, parent, t, {bargs}))\n"
            f"    _ids.append(sid)\n"
            f"    if t > _tracer._last_time:\n"
            f"        _tracer._last_time = t\n"
            f"    return sid\n"
        )
        end_src = (
            f"def end(t, {eargs}{ebinds}):\n"
            f"    entry = _stack.pop()\n"
            f"    if entry.__class__ is not tuple or entry[0] is not _codec:\n"
            f"        _stack.append(entry)\n"
            f"        raise _ConfigurationError(\n"
            f"            'packed end({codec.name}) does not match the innermost open span'\n"
            f"        )\n"
            f"    _ids.pop()\n"
            f"{unpack}"
            f"    b = _pack(_cid, entry[1], entry[2], entry[3], t, {packs})\n"
            f"{self._RECORD_STMTS}"
            f"    if t > _tracer._last_time:\n"
            f"        _tracer._last_time = t\n"
        )
        exec(compile(begin_src, f"<trace-emitter begin:{codec.name}>", "exec"), env)
        exec(compile(end_src, f"<trace-emitter end:{codec.name}>", "exec"), env)
        begin, end = env["begin"], env["end"]
        begin.codec = end.codec = codec
        return begin, end

    # -- foreign producers (the compiled engine) -------------------------
    @property
    def span_state(self) -> Tuple[int, int]:
        """``(next span id, last seen time)`` — the state a foreign
        producer continues from and hands back."""
        return self._next_id, self._last_time

    @span_state.setter
    def span_state(self, state: Tuple[int, int]) -> None:
        self._next_id, self._last_time = state

    def checkpoint(self) -> Tuple[int, int, int]:
        """Opaque marker for :meth:`rewind`."""
        return self._next_id, self._last_time, len(self._stack)

    def rewind(self, mark: Tuple[int, int, int]) -> None:
        """Forget the spans opened since ``mark``.  Only valid while no
        record has been emitted since — an aborted attempt whose run
        will be replayed from the start."""
        self._next_id, self._last_time, depth = mark
        del self._stack[depth:]
        del self._ids[depth:]

    def take_packed(self, data) -> None:
        """Append packed records written elsewhere with this tracer's
        codec and string ids (a drained compiled-engine buffer), in
        stream order.  A drain of at least ``PACKED_FLUSH_BYTES`` that
        finds the binary batch empty is rendered from ``data`` itself
        and written at once (after any pending lines); a smaller one is
        batched for the bulk renderer exactly as the emitters would
        have batched it."""
        self._check_open()
        buf = self._packed
        if not buf and len(data) >= PACKED_FLUSH_BYTES:
            self._write_pending()
            self._file.write(self._render_packed(data))
            return
        buf += data
        if len(buf) >= PACKED_FLUSH_BYTES:
            self._flush_packed()

    def push_open(self, codec_id: int, span_id: int, parent: int, t0: int, packed) -> None:
        """Adopt a span a foreign producer left open (engine error
        mid-reference), so :meth:`close` truncates it exactly as it
        would a span opened here.  ``packed`` holds the begin values as
        packed (enum/bool slots as global string ids)."""
        codec = self._codecs[codec_id]
        raw = [
            v if gmap is None else gmap.index(v)
            for gmap, v in zip(codec.gmaps, packed)
        ]
        self._stack.append((codec, span_id, parent, t0, *raw))
        self._ids.append(span_id)

    # -- rendering (packed batch -> JSONL bytes) ------------------------
    def _drain_packed(self) -> None:
        """Render the binary batch and move it onto ``_pending`` (in
        stream order: pending lines always precede batched records)."""
        buf = self._packed
        if buf:
            # A copy: the render buffer is reused by the next render.
            self._pending.append(bytes(self._render_packed(buf)))
            buf.clear()

    def _write_pending(self) -> None:
        pending = self._pending
        if pending:
            self._file.write(b"".join(pending))
            pending.clear()

    def _flush_packed(self) -> None:
        """Called by packed emitters when the binary batch fills: write
        any pending lines (they precede the batch in stream order),
        then render the batch straight to the file."""
        self._write_pending()
        buf = self._packed
        if buf:
            self._file.write(self._render_packed(buf))
            buf.clear()

    def _render_packed(self, data):
        """Render packed records to JSONL bytes.  The compiled renderer
        returns a view of the tracer's reusable output buffer, valid
        until the next render; the Python fallback returns bytes."""
        lib = _render_lib()
        if lib is None:
            return self._render_packed_py(bytes(data))
        tables = self._ctables
        if tables is None:
            tables = self._ctables = self._build_ctables()
        ffi = _RENDER_BACKEND.ffi
        cap = self._cbuf_cap
        need = 4 * len(data) + 4096
        if cap < need:
            cap = max(need, 1 << 16)
            self._cbuf = ffi.new("char[]", cap)
            self._cbuf_cap = cap
        stream = ffi.from_buffer(data)
        while True:
            n = lib.fs_trace_render(stream, len(data), *tables, self._cbuf, cap)
            if n >= 0:
                return ffi.buffer(self._cbuf, n)
            if n == -1:  # output buffer too small: grow and retry
                cap *= 2
                self._cbuf = ffi.new("char[]", cap)
                self._cbuf_cap = cap
                continue
            raise ConfigurationError(
                "compiled trace renderer rejected the packed stream"
            )

    def _render_packed_py(self, data: bytes) -> bytes:
        codecs = self._codecs
        parts = []
        pos = 0
        end = len(data)
        while pos < end:
            codec = codecs[data[pos]]
            parts.append(codec.render(codec.struct.unpack_from(data, pos)[1:]))
            pos += codec.size
        return "".join(parts).encode("utf-8")

    def _build_ctables(self) -> Tuple:
        """cffi argument block for ``fs_trace_render`` (codec layouts +
        the global string table); rebuilt when either changes.  The
        segment and string blobs end in ``_TABLE_PAD`` zero bytes, which
        the renderer's 16-byte chunked copies may read."""
        ffi = _RENDER_BACKEND.ffi
        nslots: List[int] = []
        kind_off: List[int] = []
        seg_base: List[int] = []
        kinds = bytearray()
        seg_blob: List[bytes] = []
        seg_off = [0]
        pos = 0
        for codec in self._codecs:
            nslots.append(len(codec.slot_kinds))
            kind_off.append(len(kinds))
            kinds.extend(codec.slot_kinds)
            seg_base.append(len(seg_off) - 1)
            for seg in codec.segments:
                raw = seg.encode("utf-8")
                seg_blob.append(raw)
                pos += len(raw)
                seg_off.append(pos)
        str_blob: List[bytes] = []
        str_off = [0]
        spos = 0
        for value in self._strings:
            raw = value.encode("utf-8")
            str_blob.append(raw)
            spos += len(raw)
            str_off.append(spos)
        return (
            ffi.new("int32_t[]", nslots),
            ffi.new("int32_t[]", kind_off),
            bytes(kinds),
            b"".join(seg_blob) + bytes(_TABLE_PAD),
            ffi.new("int64_t[]", seg_off),
            ffi.new("int32_t[]", seg_base),
            b"".join(str_blob) + bytes(_TABLE_PAD),
            ffi.new("int64_t[]", str_off),
            len(self._strings),
        )

    # -- internals -----------------------------------------------------
    def _emit(self, record: Dict) -> None:
        self._check_open()
        if self._packed:
            # Keep stream order: batched packed records precede this
            # generic one.
            self._drain_packed()
        pending = self._pending
        pending.append((_encode(record) + "\n").encode("utf-8"))
        if len(pending) >= FLUSH_BATCH:
            self._write_pending()

    def __repr__(self) -> str:
        state = "closed" if self._file is None else f"{self.depth} open"
        return f"Tracer({self._path}, {state})"


def _open_trace(path: str, mode: str):
    """Open a trace path for I/O, transparently gzipped for ``.gz``
    paths (committed golden traces are stored compressed).  Text modes
    decode UTF-8; binary modes pass bytes through (the writer renders
    UTF-8 itself)."""
    if str(path).endswith(".gz"):
        import gzip

        if "b" in mode:
            return gzip.open(path, mode)
        return gzip.open(path, mode, encoding="utf-8")
    if "b" in mode:
        return open(path, mode)
    return open(path, mode.replace("t", ""), encoding="utf-8")


def read_trace(path: str) -> List[Dict]:
    """Parse a JSONL trace file (optionally ``.gz``) back into records."""
    records: List[Dict] = []
    try:
        handle = _open_trace(path, "rt")
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace {path}: {exc.strerror or exc}") from None
    try:
        with handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError as exc:
                    raise ConfigurationError(
                        f"{path}:{line_no}: malformed trace line ({exc})"
                    ) from None
    except (UnicodeDecodeError, OSError, EOFError, zlib.error) as exc:
        # Raised while reading the lines: bytes that are not UTF-8, or a
        # ".gz" file that is not gzip or ends early.
        raise ConfigurationError(f"cannot read trace {path}: {exc}") from None
    return records


def span_tree(records: List[Dict]) -> Dict[Optional[int], List[Dict]]:
    """Index spans by parent id (``None`` key holds the roots)."""
    tree: Dict[Optional[int], List[Dict]] = {}
    for record in records:
        if record.get("kind") == "span":
            tree.setdefault(record.get("parent"), []).append(record)
    return tree
