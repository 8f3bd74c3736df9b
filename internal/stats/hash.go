package stats

import (
	"encoding/binary"
	"math"
)

// FNV-1a, 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash is the determinism witness every digest in the repository is
// built from: FNV-1a over 8-byte little-endian words, so two hashes are
// equal iff the hashed values are bit-identical in the same order. It
// is a plain value — no allocation — and the zero value is an empty
// hash, for which x holds the running state XOR the offset basis.
type Hash struct{ x uint64 }

// Bytes folds p into the hash.
func (h *Hash) Bytes(p []byte) {
	s := h.x ^ fnvOffset
	for _, b := range p {
		s = (s ^ uint64(b)) * fnvPrime
	}
	h.x = s ^ fnvOffset
}

// Word folds v in as eight little-endian bytes.
func (h *Hash) Word(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Bytes(buf[:])
}

// Float folds in the exact bit pattern of v.
func (h *Hash) Float(v float64) { h.Word(math.Float64bits(v)) }

// Sum64 returns the hash of everything folded in so far.
func (h *Hash) Sum64() uint64 { return h.x ^ fnvOffset }
