package stats

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestHashMatchesFNV1a pins Hash to the standard library's FNV-1a over
// the same bytes — every committed digest depends on it — and to zero
// allocations.
func TestHashMatchesFNV1a(t *testing.T) {
	ref := fnv.New64a()
	var h Hash
	if h.Sum64() != ref.Sum64() {
		t.Fatalf("empty hash %x, want %x", h.Sum64(), ref.Sum64())
	}
	var buf [8]byte
	for i, v := range []uint64{0, 1, 0xff, 1 << 63, math.MaxUint64, 0x0123456789abcdef} {
		h.Word(v)
		binary.LittleEndian.PutUint64(buf[:], v)
		ref.Write(buf[:])
		f := float64(i) - 2.5
		h.Float(f)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		ref.Write(buf[:])
		h.Bytes([]byte("port{name=\"x\"}\x00"))
		ref.Write([]byte("port{name=\"x\"}\x00"))
		if h.Sum64() != ref.Sum64() {
			t.Fatalf("after step %d: %x, want %x", i, h.Sum64(), ref.Sum64())
		}
	}
	name := []byte("series")
	if n := testing.AllocsPerRun(100, func() {
		var h Hash
		h.Word(42)
		h.Float(0.5)
		h.Bytes(name)
		_ = h.Sum64()
	}); n != 0 {
		t.Fatalf("Hash allocates %v times per use", n)
	}
}
