package dse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"heteronoc/internal/ckpt"
)

// Allocation bound for one decode: frontierAllocPerByte bytes per input
// byte plus frontierAllocSlack. Every count is capped by the bytes that
// remain, so the largest expansion is one 24-byte slice header (a
// population member) or 64-byte Candidate per input byte; the slack
// covers the reader, the hash string and error values.
const (
	frontierAllocPerByte = 64
	frontierAllocSlack   = 16 << 10
)

// FuzzDecodeFrontier mutates real frontier files, recomputing the CRC
// footer so the mutations reach the field decoders. Every input must be
// refused or decode to a state that survives a re-encode round trip; no
// input may panic or allocate beyond the bound above.
func FuzzDecodeFrontier(f *testing.F) {
	f.Add(encodeFrontier("cfg", testState()))
	f.Add(encodeFrontier("", &searchState{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := len(data); n >= 4 {
			data = append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(data[n-4:], crc32.ChecksumIEEE(data[:n-4]))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := decodeFrontier(data, "")
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > frontierAllocPerByte*uint64(len(data))+frontierAllocSlack {
			t.Fatalf("decode of %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("refusal %v does not wrap ckpt.ErrCorrupt", err)
			}
			return
		}
		again := encodeFrontier("h", st)
		st2, err := decodeFrontier(again, "h")
		if err != nil {
			t.Fatalf("re-encoded frontier refused: %v", err)
		}
		if !bytes.Equal(encodeFrontier("h", st2), again) {
			t.Fatal("accepted frontier changed across a re-encode round trip")
		}
	})
}
