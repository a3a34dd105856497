package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// Trace file format (HNTR2): real trace files (the paper used
// Simics-collected memory traces with "load/stores and the number of
// non-memory instructions between them" — exactly our Entry) can be
// recorded and replayed through the same Reader interface the synthetic
// generators implement. The stream is split into fixed-size chunks, each
// integrity-checked and independently decodable, with a footer index
// mapping entry counts to chunk offsets, so any position in the trace is
// reachable with one index lookup + one seek + one chunk decode.
//
//	header:  magic "HNTR2" | version u8 | reserved [2]byte
//	chunk:   body | crc32(body) fixed32-LE
//	  body:  count uvarint
//	         count × ( (gap<<1 | writeBit) uvarint | addrDelta zigzag-varint )
//	footer:  index | len(index) fixed32-LE | crc32(index) fixed32-LE | "HNXI"
//	  index: numChunks uvarint
//	         numChunks × ( chunkBytes uvarint | entryCount uvarint )
//
// The address delta base resets to zero at every chunk boundary (each
// chunk's first delta is the absolute address), which is exactly what
// makes chunks independently decodable; the cost is one wide varint per
// chunk. The footer is read-from-end: fixed-width trailer fields give the
// index length and checksum without any forward scan.

const (
	chunkMagic     = "HNTR2"
	chunkTailMagic = "HNXI"
	chunkVersion   = 1

	// DefaultChunkEntries is the chunk granularity used when a writer is
	// configured with zero: large enough to amortize the per-chunk CRC and
	// absolute-address entry, small enough that a random Seek decodes only
	// a few tens of KB.
	DefaultChunkEntries = 4096

	// chunkMaxEntries bounds the per-chunk entry count accepted from a
	// footer index, so a corrupt index cannot demand an absurd allocation.
	chunkMaxEntries = 1 << 20

	chunkHeaderLen  = 8  // magic + version + reserved
	chunkTrailerLen = 12 // index len + index crc + tail magic
)

// ChunkWriter streams entries into an HNTR2 chunked trace. Close must be
// called to flush the final partial chunk and write the footer index;
// without it the file has no index and will not open.
type ChunkWriter struct {
	w       io.Writer
	per     int
	body    []byte // current chunk body (count patched in at flush)
	n       int    // entries in current chunk
	base    int64  // delta base, reset per chunk
	index   []chunkInfo
	count   int64
	wrote   int64 // bytes written so far (chunk offsets derive from this)
	closed  bool
	sticky  error
	scratch [binary.MaxVarintLen64]byte
}

type chunkInfo struct {
	bytes   int64
	entries int64
}

// NewChunkWriter writes the header and returns a chunk writer.
// entriesPerChunk 0 selects DefaultChunkEntries.
func NewChunkWriter(w io.Writer, entriesPerChunk int) (*ChunkWriter, error) {
	if entriesPerChunk == 0 {
		entriesPerChunk = DefaultChunkEntries
	}
	if entriesPerChunk < 1 || entriesPerChunk > chunkMaxEntries {
		return nil, fmt.Errorf("trace: entries per chunk %d out of range [1,%d]", entriesPerChunk, chunkMaxEntries)
	}
	head := make([]byte, 0, chunkHeaderLen)
	head = append(head, chunkMagic...)
	head = append(head, chunkVersion, 0, 0)
	if _, err := w.Write(head); err != nil {
		return nil, err
	}
	return &ChunkWriter{w: w, per: entriesPerChunk, wrote: chunkHeaderLen}, nil
}

// Write appends one entry.
func (c *ChunkWriter) Write(e Entry) error {
	if c.sticky != nil {
		return c.sticky
	}
	if c.closed {
		return fmt.Errorf("trace: write to closed chunk writer")
	}
	if e.Gap < 0 {
		return fmt.Errorf("trace: negative gap %d", e.Gap)
	}
	gw := uint64(e.Gap) << 1
	if e.Write {
		gw |= 1
	}
	c.body = binary.AppendUvarint(c.body, gw)
	delta := int64(e.Addr) - c.base
	c.body = binary.AppendVarint(c.body, delta)
	c.base = int64(e.Addr)
	c.n++
	c.count++
	if c.n >= c.per {
		return c.flushChunk()
	}
	return nil
}

// Count returns the number of entries written.
func (c *ChunkWriter) Count() int64 { return c.count }

func (c *ChunkWriter) flushChunk() error {
	if c.n == 0 {
		return nil
	}
	n := binary.PutUvarint(c.scratch[:], uint64(c.n))
	chunk := make([]byte, 0, n+len(c.body)+4)
	chunk = append(chunk, c.scratch[:n]...)
	chunk = append(chunk, c.body...)
	chunk = binary.LittleEndian.AppendUint32(chunk, crc32.ChecksumIEEE(chunk))
	if _, err := c.w.Write(chunk); err != nil {
		c.sticky = err
		return err
	}
	c.index = append(c.index, chunkInfo{bytes: int64(len(chunk)), entries: int64(c.n)})
	c.wrote += int64(len(chunk))
	c.body = c.body[:0]
	c.n = 0
	c.base = 0
	return nil
}

// Close flushes the final partial chunk and writes the footer index. It
// does not close the underlying writer.
func (c *ChunkWriter) Close() error {
	if c.closed {
		return c.sticky
	}
	if err := c.flushChunk(); err != nil {
		return err
	}
	c.closed = true
	idx := binary.AppendUvarint(nil, uint64(len(c.index)))
	for _, ci := range c.index {
		idx = binary.AppendUvarint(idx, uint64(ci.bytes))
		idx = binary.AppendUvarint(idx, uint64(ci.entries))
	}
	tail := make([]byte, 0, len(idx)+chunkTrailerLen)
	tail = append(tail, idx...)
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(idx)))
	tail = binary.LittleEndian.AppendUint32(tail, crc32.ChecksumIEEE(idx))
	tail = append(tail, chunkTailMagic...)
	if _, err := c.w.Write(tail); err != nil {
		c.sticky = err
		return err
	}
	return nil
}

// chunkMeta is one index entry resolved to an absolute file position.
type chunkMeta struct {
	off     int64 // byte offset of the chunk in the file
	size    int64 // chunk length in bytes, CRC included
	entries int64
	before  int64 // entries in all preceding chunks
}

// ChunkReader replays an HNTR2 trace from any io.ReaderAt. It is a total
// Reader — after the last entry it returns the final entry with an
// enormous gap (an idle core) — and distinguishes clean exhaustion from
// corruption or a failed read via Err. Next reads straight out of the
// decoded chunk buffer (zero allocations in steady state), SeekTo lands
// on any entry with one chunk decode, and it is Stateful (SaveState is
// the 9-byte position).
//
// With prefetch enabled, a background goroutine reads and decodes the
// next chunk while the caller drains the current one (double buffering).
// Prefetch only ever decodes — it has no effect on the entry stream, so
// runs stay deterministic — but it requires the io.ReaderAt to tolerate
// concurrent ReadAt calls (os.File and bytes.Reader both do) and Close
// must be called to stop the goroutine.
type ChunkReader struct {
	ra     io.ReaderAt
	chunks []chunkMeta
	total  int64

	raw []byte  // encoded bytes of the current chunk
	buf []Entry // decoded entries of the current chunk
	ci  int     // index of the decoded chunk; -1 before the first fill
	cur int     // next entry within buf
	pos int64

	last Entry
	done bool
	err  error

	pf *chunkPrefetcher
}

// NewChunkReader parses the header and footer index of an HNTR2 trace.
// The reader accesses ra only through ReadAt, so any number of
// ChunkReaders can share one underlying file.
func NewChunkReader(ra io.ReaderAt, size int64, prefetch bool) (*ChunkReader, error) {
	minLen := int64(chunkHeaderLen + 1 + chunkTrailerLen)
	if size < minLen {
		return nil, fmt.Errorf("trace: chunked trace too short (%d bytes)", size)
	}
	var head [chunkHeaderLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(ra, 0, chunkHeaderLen), head[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(head[:5]) != chunkMagic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:5])
	}
	if head[5] != chunkVersion {
		return nil, fmt.Errorf("trace: unsupported chunked version %d", head[5])
	}
	if head[6] != 0 || head[7] != 0 {
		// Reserved bytes must be zero so every byte of a valid file is
		// covered by some check — magic, version, a CRC, or this.
		return nil, fmt.Errorf("trace: nonzero reserved header bytes")
	}
	var trailer [chunkTrailerLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(ra, size-chunkTrailerLen, chunkTrailerLen), trailer[:]); err != nil {
		return nil, fmt.Errorf("trace: short trailer: %w", err)
	}
	if string(trailer[8:12]) != chunkTailMagic {
		return nil, fmt.Errorf("trace: bad tail magic %q (truncated file?)", trailer[8:12])
	}
	idxLen := int64(binary.LittleEndian.Uint32(trailer[0:4]))
	idxCRC := binary.LittleEndian.Uint32(trailer[4:8])
	idxOff := size - chunkTrailerLen - idxLen
	if idxLen < 1 || idxOff < chunkHeaderLen {
		return nil, fmt.Errorf("trace: index length %d out of range", idxLen)
	}
	idx := make([]byte, idxLen)
	if _, err := io.ReadFull(io.NewSectionReader(ra, idxOff, idxLen), idx); err != nil {
		return nil, fmt.Errorf("trace: short index: %w", err)
	}
	if got := crc32.ChecksumIEEE(idx); got != idxCRC {
		return nil, fmt.Errorf("trace: index checksum mismatch (got %08x want %08x)", got, idxCRC)
	}
	numChunks, n := binary.Uvarint(idx)
	if n <= 0 {
		return nil, fmt.Errorf("trace: corrupt index header")
	}
	p := n
	chunks := make([]chunkMeta, 0, numChunks)
	off, total := int64(chunkHeaderLen), int64(0)
	maxEntries := int64(0)
	for i := uint64(0); i < numChunks; i++ {
		cb, n := binary.Uvarint(idx[p:])
		if n <= 0 {
			return nil, fmt.Errorf("trace: corrupt index at chunk %d", i)
		}
		p += n
		ce, n := binary.Uvarint(idx[p:])
		if n <= 0 {
			return nil, fmt.Errorf("trace: corrupt index at chunk %d", i)
		}
		p += n
		if ce < 1 || ce > chunkMaxEntries || int64(cb) < 5 {
			return nil, fmt.Errorf("trace: implausible chunk %d (%d bytes, %d entries)", i, cb, ce)
		}
		chunks = append(chunks, chunkMeta{off: off, size: int64(cb), entries: int64(ce), before: total})
		off += int64(cb)
		total += int64(ce)
		if int64(ce) > maxEntries {
			maxEntries = int64(ce)
		}
	}
	if p != len(idx) {
		return nil, fmt.Errorf("trace: %d trailing index bytes", len(idx)-p)
	}
	if off != idxOff {
		return nil, fmt.Errorf("trace: chunks end at %d, index starts at %d", off, idxOff)
	}
	c := &ChunkReader{ra: ra, chunks: chunks, total: total, ci: -1}
	if maxEntries > 0 {
		c.buf = make([]Entry, 0, maxEntries)
	}
	if prefetch && len(chunks) > 1 {
		c.pf = newChunkPrefetcher(c, int(maxEntries))
	}
	return c, nil
}

// decodeChunkInto verifies raw's CRC and decodes its entries into
// out[:0], returning the filled slice. out's capacity is reused, so
// steady-state decode allocates nothing.
func decodeChunkInto(raw []byte, wantEntries int64, out []Entry) ([]Entry, error) {
	if len(raw) < 5 {
		return nil, fmt.Errorf("trace: chunk too short (%d bytes)", len(raw))
	}
	body := raw[:len(raw)-4]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(raw[len(raw)-4:]); got != want {
		return nil, fmt.Errorf("trace: chunk checksum mismatch (got %08x want %08x)", got, want)
	}
	count, n := binary.Uvarint(body)
	if n <= 0 || int64(count) != wantEntries {
		return nil, fmt.Errorf("trace: chunk holds %d entries, index says %d", count, wantEntries)
	}
	p := n
	out = out[:0]
	var addr int64
	for i := uint64(0); i < count; i++ {
		// Single-byte fast path: most gaps are small, so the gap/write
		// word is usually one byte. The CRC already vouched for the body,
		// so corruption checks only guard structural drift.
		var gw uint64
		if p < len(body) && body[p] < 0x80 {
			gw = uint64(body[p])
			p++
		} else {
			v, n := binary.Uvarint(body[p:])
			if n <= 0 {
				return nil, fmt.Errorf("trace: corrupt entry %d", i)
			}
			gw = v
			p += n
		}
		var delta int64
		if p < len(body) && body[p] < 0x80 {
			u := uint64(body[p])
			delta = int64(u>>1) ^ -int64(u&1) // inline zigzag decode
			p++
		} else {
			v, n := binary.Varint(body[p:])
			if n <= 0 {
				return nil, fmt.Errorf("trace: corrupt entry %d", i)
			}
			delta = v
			p += n
		}
		addr += delta
		out = append(out, Entry{Gap: int(gw >> 1), Addr: uint64(addr), Write: gw&1 != 0})
	}
	if p != len(body) {
		return nil, fmt.Errorf("trace: %d trailing chunk bytes", len(body)-p)
	}
	return out, nil
}

// loadChunk reads and decodes chunk ci, reusing *rawp and *bufp.
func (c *ChunkReader) loadChunk(ci int, rawp *[]byte, bufp *[]Entry) error {
	m := c.chunks[ci]
	raw := *rawp
	if int64(cap(raw)) < m.size {
		raw = make([]byte, m.size)
	} else {
		raw = raw[:m.size]
	}
	*rawp = raw
	// Direct ReadAt (not a SectionReader) keeps the steady-state decode
	// path allocation-free. ReadAt's contract allows io.EOF alongside a
	// full read when the range ends exactly at the file's end.
	if n, err := c.ra.ReadAt(raw, m.off); err != nil && !(err == io.EOF && n == len(raw)) {
		return fmt.Errorf("trace: chunk %d read: %w", ci, err)
	}
	buf, err := decodeChunkInto(raw, m.entries, *bufp)
	if err != nil {
		return fmt.Errorf("trace: chunk %d: %w", ci, err)
	}
	*bufp = buf
	return nil
}

// fill makes buf hold chunk ci, consuming a prefetched decode when one is
// in flight for exactly that chunk and falling back to a synchronous
// decode otherwise (e.g. right after a Seek).
func (c *ChunkReader) fill(ci int) error {
	if c.pf != nil {
		if res, ok := c.pf.take(ci); ok {
			if res.err != nil {
				return res.err
			}
			c.pf.spareRaw, c.pf.spareBuf = c.raw, c.buf
			c.raw, c.buf = res.raw, res.buf
			c.ci, c.cur = ci, 0
			c.pf.prime(ci + 1)
			return nil
		}
	}
	if err := c.loadChunk(ci, &c.raw, &c.buf); err != nil {
		return err
	}
	c.ci, c.cur = ci, 0
	if c.pf != nil {
		c.pf.prime(ci + 1)
	}
	return nil
}

// settle ends the stream at the current chunk's final entry.
func (c *ChunkReader) settle() {
	c.done = true
	if len(c.buf) > 0 {
		c.last = c.buf[len(c.buf)-1]
	}
}

func (c *ChunkReader) fail(err error) {
	c.err = fmt.Errorf("trace: corrupt trace after %d entries: %w", c.pos, err)
	c.settle()
}

// Next implements Reader with total semantics: after the last entry (or
// a corrupt chunk — check Err) it returns the final good entry with an
// enormous gap.
func (c *ChunkReader) Next() Entry {
	if c.cur < len(c.buf) {
		e := c.buf[c.cur]
		c.cur++
		c.pos++
		return e
	}
	if !c.done {
		if ni := c.ci + 1; ni < len(c.chunks) {
			if err := c.fill(ni); err != nil {
				c.fail(err)
			} else {
				return c.Next()
			}
		} else {
			c.settle()
		}
	}
	e := c.last
	e.Gap = 1 << 20
	return e
}

// Pos returns the number of entries consumed so far.
func (c *ChunkReader) Pos() int64 { return c.pos }

// Len returns the total number of entries in the trace.
func (c *ChunkReader) Len() int64 { return c.total }

// Exhausted reports whether the trace has been fully replayed.
func (c *ChunkReader) Exhausted() bool { return c.done }

// Err reports whether replay hit a corrupt chunk. Clean exhaustion leaves
// it nil.
func (c *ChunkReader) Err() error { return c.err }

// SeekTo repositions the reader so the next entry returned is entry n
// (zero-based); SeekTo(Len()) positions at end of trace. One index lookup +
// at most one chunk decode, never a replay.
func (c *ChunkReader) SeekTo(n int64) error {
	if c.err != nil {
		return c.err
	}
	if n < 0 || n > c.total {
		return fmt.Errorf("trace: seek %d out of range [0,%d]", n, c.total)
	}
	c.done = false
	ci := len(c.chunks) - 1
	if n < c.total {
		ci = sort.Search(len(c.chunks), func(i int) bool {
			return c.chunks[i].before+c.chunks[i].entries > n
		})
	}
	if ci >= 0 && ci != c.ci {
		if err := c.fill(ci); err != nil {
			c.fail(err)
			return c.err
		}
	}
	if ci >= 0 {
		c.cur = int(n - c.chunks[ci].before)
	}
	c.pos = n
	return nil
}

// chunkStateVersion tags ChunkReader state snapshots.
const chunkStateVersion = 1

// SaveState captures the reader position (Stateful). For a chunked file
// the position is just the entry index — 9 bytes.
func (c *ChunkReader) SaveState() []byte {
	dst := make([]byte, 0, 9)
	dst = append(dst, chunkStateVersion)
	return binary.LittleEndian.AppendUint64(dst, uint64(c.pos))
}

// RestoreState repositions to a SaveState snapshot via Seek.
func (c *ChunkReader) RestoreState(state []byte) error {
	if len(state) != 9 || state[0] != chunkStateVersion {
		return fmt.Errorf("trace: bad chunk reader state (len %d)", len(state))
	}
	return c.SeekTo(int64(binary.LittleEndian.Uint64(state[1:9])))
}

// Close stops the prefetch goroutine, if any. It does not close the
// underlying ReaderAt. Safe to call more than once.
func (c *ChunkReader) Close() error {
	if c.pf != nil {
		c.pf.stop()
		c.pf = nil
	}
	return nil
}

// chunkPrefetcher decodes the next chunk on a background goroutine while
// the reader drains the current one. Two raw/decoded buffer pairs rotate
// between the reader and the goroutine, so steady-state prefetch
// allocates nothing. The goroutine only reads (ReadAt) and decodes —
// stream content and order are decided entirely on the caller's side.
type chunkPrefetcher struct {
	req chan chunkJob
	res chan chunkResult

	numChunks  int
	inflight   bool
	inflightCI int
	spareRaw   []byte
	spareBuf   []Entry
}

type chunkJob struct {
	ci  int
	raw []byte
	buf []Entry
}

type chunkResult struct {
	ci  int
	raw []byte
	buf []Entry
	err error
}

func newChunkPrefetcher(c *ChunkReader, maxEntries int) *chunkPrefetcher {
	pf := &chunkPrefetcher{
		req:       make(chan chunkJob),
		res:       make(chan chunkResult),
		numChunks: len(c.chunks),
		spareBuf:  make([]Entry, 0, maxEntries),
	}
	go func() {
		for job := range pf.req {
			err := c.loadChunk(job.ci, &job.raw, &job.buf)
			pf.res <- chunkResult{ci: job.ci, raw: job.raw, buf: job.buf, err: err}
		}
		close(pf.res)
	}()
	return pf
}

// prime requests a background decode of chunk ci if none is in flight
// and ci exists.
func (pf *chunkPrefetcher) prime(ci int) {
	if pf.inflight || ci < 0 || ci >= pf.numChunks {
		return
	}
	pf.req <- chunkJob{ci: ci, raw: pf.spareRaw, buf: pf.spareBuf}
	pf.spareRaw, pf.spareBuf = nil, nil
	pf.inflight, pf.inflightCI = true, ci
}

// take collects the in-flight result if it is for chunk ci. A result for
// any other chunk (stale after a Seek) is drained and its buffers
// reclaimed; the caller then decodes synchronously.
func (pf *chunkPrefetcher) take(ci int) (chunkResult, bool) {
	if !pf.inflight {
		return chunkResult{}, false
	}
	res := <-pf.res
	pf.inflight = false
	if res.ci != ci {
		pf.spareRaw, pf.spareBuf = res.raw, res.buf
		return chunkResult{}, false
	}
	return res, true
}

func (pf *chunkPrefetcher) stop() {
	close(pf.req)
	if pf.inflight {
		<-pf.res
	}
}

// ChunkFile is a ChunkReader that owns its backing file.
type ChunkFile struct {
	*ChunkReader
	f *os.File
}

// OpenChunked opens an HNTR2 trace file for replay.
func OpenChunked(path string, prefetch bool) (*ChunkFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	cr, err := NewChunkReader(f, st.Size(), prefetch)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &ChunkFile{ChunkReader: cr, f: f}, nil
}

// Close stops prefetch and closes the file.
func (cf *ChunkFile) Close() error {
	cf.ChunkReader.Close()
	return cf.f.Close()
}

// RecordChunked captures the next n entries of src into an HNTR2 stream.
// entriesPerChunk 0 selects the default.
func RecordChunked(w io.Writer, src Reader, n int, entriesPerChunk int) error {
	cw, err := NewChunkWriter(w, entriesPerChunk)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := cw.Write(src.Next()); err != nil {
			return err
		}
	}
	return cw.Close()
}
