// Package ckpt implements the NOCCKPT01 checkpoint container: a small,
// versioned, CRC-protected binary format used for every persisted file
// except HNTR2 memory traces — CMP warm state (cmp.System), run-cache
// entries, DSE frontiers and flit traces.
//
// Layout:
//
//	magic    "NOCCKPT01"                  (9 bytes)
//	kind     string                       (what is inside: "cmp-warm", ...)
//	version  uvarint                      (per-kind schema version)
//	reserved five varints                 (written as zeros, ignored on read)
//	body     kind-specific varint-coded fields
//	crc32    IEEE, little-endian fixed32  (over everything preceding it)
//
// All integers are varints (zigzag for signed); strings, byte slices and
// element counts are length-prefixed, and a reader refuses any length
// larger than the bytes that remain, so a decoder's allocations stay
// proportional to its input. Readers carry a sticky error: after the first decode
// failure every subsequent call is a no-op returning zero values, and Err
// reports the failure. Any structural problem — short buffer, bad magic,
// CRC mismatch, truncation — yields an error wrapping ErrCorrupt, which
// cache layers treat as a miss rather than a failure.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Magic identifies a checkpoint container. The trailing "01" is the
// container version; kind payloads carry their own schema version.
const Magic = "NOCCKPT01"

// ErrCorrupt is wrapped by every decode error caused by malformed input
// (as opposed to a well-formed checkpoint for a mismatched config).
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// Header is the kind-independent prefix of every checkpoint, readable
// without knowing the kind (cmd/ckpttool relies on this).
type Header struct {
	Kind    string
	Version uint64
}

// reservedVarints is the number of varints between the version and the
// body. No kind uses them: writers emit zeros, which keeps every kind's
// bytes as they were, and readers skip them.
const reservedVarints = 5

// Writer accumulates a checkpoint body after the magic and header.
type Writer struct {
	buf []byte
}

// NewWriter starts a checkpoint with the given header already encoded.
func NewWriter(h Header) *Writer {
	w := &Writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, Magic...)
	w.Str(h.Kind)
	w.U64(h.Version)
	for i := 0; i < reservedVarints; i++ {
		w.U64(0)
	}
	return w
}

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// I64 appends a zigzag-coded signed varint.
func (w *Writer) I64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// F64 appends the IEEE-754 bits of v as a fixed 8-byte little-endian word.
func (w *Writer) F64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// crcLen is the CRC footer width.
const crcLen = 4

// Finish appends the CRC32 footer and returns the completed checkpoint.
// The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	sum := crc32.ChecksumIEEE(w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, sum)
	return w.buf
}

// Reader decodes a checkpoint produced by Writer. The magic, header and
// CRC are verified up front by NewReader; field accessors share a sticky
// error so call sites can decode a whole section and check Err once.
type Reader struct {
	data []byte // body only (header consumed, CRC stripped)
	pos  int
	hdr  Header
	err  error
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// NewReader validates the container (magic, CRC, header) and positions
// the reader at the first body field.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < len(Magic)+crcLen {
		return nil, corrupt("short buffer (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, corrupt("bad magic %q", data[:len(Magic)])
	}
	body := data[:len(data)-crcLen]
	want := binary.LittleEndian.Uint32(data[len(data)-crcLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, corrupt("crc mismatch: got %08x want %08x", got, want)
	}
	r := &Reader{data: body, pos: len(Magic)}
	r.hdr.Kind = r.StrMax(64)
	r.hdr.Version = r.U64()
	for i := 0; i < reservedVarints; i++ {
		r.U64()
	}
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}

// ReadHeader decodes only the header, without requiring the body to
// parse. Used by ckpttool for inspection.
func ReadHeader(data []byte) (Header, error) {
	r, err := NewReader(data)
	if err != nil {
		return Header{}, err
	}
	return r.hdr, nil
}

// Header returns the decoded container header.
func (r *Reader) Header() Header { return r.hdr }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corrupt(format, args...)
	}
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("truncated uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// I64 reads a zigzag-coded signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Int reads a signed varint as an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads one byte; anything other than 0/1 is corruption.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.data) {
		r.fail("truncated bool at offset %d", r.pos)
		return false
	}
	b := r.data[r.pos]
	r.pos++
	if b > 1 {
		r.fail("bad bool byte %d at offset %d", b, r.pos-1)
		return false
	}
	return b == 1
}

// F64 reads a fixed 8-byte float.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.data) {
		r.fail("truncated float at offset %d", r.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v
}

// Count reads a length or element count, refusing any value larger than
// the bytes that remain in the body. Every element takes at least one
// byte, so a decoder that sizes its allocation by Count allocates in
// proportion to its input, however large the count a corrupt file claims.
func (r *Reader) Count() int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)-r.pos) {
		r.fail("count %d exceeds remaining %d bytes", n, len(r.data)-r.pos)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice (always a fresh copy).
func (r *Reader) Bytes() []byte {
	n := r.Count()
	if r.err != nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.data[r.pos:r.pos+n])
	r.pos += n
	return out
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return r.StrMax(1 << 20) }

// StrMax reads a length-prefixed string refusing lengths beyond max —
// used where a huge length would mean a corrupt stream, to avoid a large
// bogus allocation before the CRC would have caught it.
func (r *Reader) StrMax(max int) string {
	n := r.Count()
	if r.err != nil {
		return ""
	}
	if n > max {
		r.fail("string length %d exceeds max %d", n, max)
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

// Done verifies the whole body was consumed. Trailing garbage would mean
// an encoder/decoder schema skew, which must not pass silently.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return corrupt("%d trailing bytes after body", len(r.data)-r.pos)
	}
	return nil
}

// WriteFile stores data at path atomically: it writes a temp file in the
// same directory and renames it into place, so a reader never observes a
// partial file and a process that dies mid-write leaves the previous
// contents intact. The temp file is removed on any failure. It does not
// fsync: after a power loss the file may be empty or stale, and a reader
// refuses the former through the CRC check.
func WriteFile(path string, data []byte) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
