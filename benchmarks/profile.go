package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a decoded runtime/pprof CPU profile reduced to what the
// ledger needs: CPU nanoseconds by leaf function.
type cpuProfile struct {
	byFunc map[string]int64
	total  int64
}

// profileCPU runs fn under the CPU profiler and decodes the result.
func profileCPU(fn func() error) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return decodeProfile(buf.Bytes())
}

// pbuf reads the protobuf wire format, of which a profile uses varints
// and length-delimited fields (fixed-width fields are skipped).
type pbuf struct{ b []byte }

var errTruncated = errors.New("profile: truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one field: its number, and either its varint value or its
// length-delimited payload.
func (p *pbuf) field() (num int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			break
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return num, val, data, err
}

func (p *pbuf) skip(n int) error {
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// uints reads a repeated integer field that may arrive packed (data) or
// one value at a time (val).
func uints(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// decodeProfile reads a gzipped profile.proto message. A sample's value
// is its last one (CPU nanoseconds in a CPU profile) and is charged to
// the innermost function of its first location — the function that was
// executing, inlined frames included.
func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → innermost function id
		funcName = map[uint64]uint64{} // function id → string index
		strs     []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample: location_id = 1, value = 2
			var locs, vals []uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				n, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					locs, err = uints(locs, v, d)
				case 2:
					vals, err = uints(vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], int64(vals[len(vals)-1])})
			}
		case 4: // Location: id = 1, line = 4 {function_id = 1}
			var id, fn uint64
			seenLine := false
			m := pbuf{data}
			for len(m.b) > 0 {
				n, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch {
				case n == 1:
					id = v
				case n == 4 && !seenLine:
					seenLine = true
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fn = lv
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				n, v, _, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}

	prof := &cpuProfile{byFunc: map[string]int64{}}
	for _, s := range samples {
		name := "unknown"
		if idx := funcName[locFunc[s.leaf]]; idx > 0 && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		prof.byFunc[name] += s.value
		prof.total += s.value
	}
	return prof, nil
}

// funcPackage returns the import path of a profile function name such
// as "dtdctcp/internal/sim.(*eventHeap).down".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf buckets a function by its package: a layer that has a
// cpu_share metric, "runtime", or "other".
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "dtdctcp/internal/"); ok {
		layer, _, _ := strings.Cut(rest, "/")
		if cpuShareLayers[layer] {
			return layer
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// shares returns each bucket's share of the profile's CPU time; the
// shares sum to 1 (all 0 for an empty profile).
func (p *cpuProfile) shares() map[string]float64 {
	out := map[string]float64{}
	if p.total == 0 {
		return out
	}
	for fn, v := range p.byFunc {
		out[layerOf(fn)] += float64(v) / float64(p.total)
	}
	return out
}

// share returns the share of CPU time whose leaf function match accepts.
func (p *cpuProfile) share(match func(fn string) bool) float64 {
	if p.total == 0 {
		return 0
	}
	var v int64
	for fn, ns := range p.byFunc {
		if match(fn) {
			v += ns
		}
	}
	return float64(v) / float64(p.total)
}

func isEventHeap(fn string) bool {
	return strings.HasPrefix(fn, "dtdctcp/internal/sim.(*eventHeap).")
}

// schedPrefixes are the runtime's synchronisation and scheduling entry
// points: where a goroutine blocks, wakes another, or looks for work.
var schedPrefixes = []string{
	"runtime.futex", "runtime.lock", "runtime.unlock", "runtime.gopark", "runtime.park_m",
	"runtime.goready", "runtime.ready", "runtime.schedule", "runtime.findRunnable",
	"runtime.stealWork", "runtime.runq", "runtime.chansend", "runtime.chanrecv", "runtime.send",
	"runtime.recv", "runtime.sem", "runtime.note", "runtime.osyield", "runtime.procyield",
	"runtime.usleep", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mcall",
	"runtime.execute", "runtime.resetspinning", "runtime.pidle", "runtime.mPark", "runtime.netpoll",
}

// isShardSync matches the cost of running one simulation on several
// wheels: the coordinator itself and the runtime's blocking and wake-up
// paths under it.
func isShardSync(fn string) bool {
	if strings.HasPrefix(fn, "dtdctcp/internal/sim.(*ShardedEngine).") ||
		strings.HasPrefix(fn, "dtdctcp/internal/sim.(*shardWorkers).") {
		return true
	}
	for _, p := range schedPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
