package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes, mirroring the hand-written encoder in internal/cycles: it
// decodes only what folding by leaf package needs (sample values and
// leaf locations, location lines, function names, the string table).

// pbField is one decoded protobuf field: v holds a varint or fixed-width
// value, b a length-delimited payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

var errTruncated = errors.New("pprof: truncated protobuf")

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// pbEach calls fn for every field of one message.
func pbEach(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = pbVarint(b); err != nil {
				return err
			}
		case 1, 5:
			n = 8
			if f.wire == 5 {
				n = 4
			}
			if len(b) < n {
				return errTruncated
			}
			for i := n - 1; i >= 0; i-- {
				f.v = f.v<<8 | uint64(b[i])
			}
		case 2:
			l, m, err := pbVarint(b)
			if err != nil {
				return err
			}
			if uint64(len(b)-m) < l {
				return errTruncated
			}
			f.b, n = b[m:m+int(l)], m+int(l)
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		b = b[n:]
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbInts appends a repeated integer field's values, packed or not.
func pbInts(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// leafWeights decodes a gzipped CPU profile and returns the CPU time in
// nanoseconds (or the sample count, if the profile has no nanosecond
// value) attributed to each leaf function name. A leaf is the innermost
// frame of a sample, inlined frames included.
func leafWeights(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		leaf  uint64
		value []uint64
	}
	var (
		units    []uint64 // sample_type unit string ids
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> name string id
		strs     []string
	)
	err = pbEach(raw, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			return pbEach(f.b, func(g pbField) error {
				if g.num == 2 {
					units = append(units, g.v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			var locs []uint64
			err := pbEach(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					locs, err = pbInts(locs, g)
				case 2:
					s.value, err = pbInts(s.value, g)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 {
				s.leaf = locs[0]
			}
			samples = append(samples, s)
		case 4: // location
			var id, fn uint64
			err := pbEach(f.b, func(g pbField) error {
				switch {
				case g.num == 1:
					id = g.v
				case g.num == 4 && fn == 0: // the first line is the innermost
					return pbEach(g.b, func(h pbField) error {
						if h.num == 1 {
							fn = h.v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id, name uint64
			err := pbEach(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(id uint64) string {
		if id < uint64(len(strs)) {
			return strs[id]
		}
		return ""
	}
	vi := 0
	for i, u := range units {
		if str(u) == "nanoseconds" {
			vi = i
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		if vi >= len(s.value) {
			continue
		}
		name := "?"
		if fn, ok := locFunc[s.leaf]; ok && fn != 0 {
			name = str(funcName[fn])
		}
		out[name] += int64(s.value[vi])
	}
	return out, nil
}

// layerOf maps a function name such as "repro/internal/noc.(*Mesh).Send"
// or "runtime.mallocgc" to one of hostLayers, by its package.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may hold slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime" // assembly stubs such as gcWriteBarrier carry no package
	}
	pkg := fn[:slash+1+dot]
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		for _, l := range hostLayers {
			if l == top {
				return l
			}
		}
		return "other"
	}
	top, _, _ := strings.Cut(pkg, "/")
	switch {
	case top == "runtime", top == "sync", strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "internal/abi", pkg == "internal/bytealg", pkg == "internal/sync":
		return "runtime"
	case top == "net", top == "crypto", top == "syscall", top == "bufio", pkg == "internal/poll":
		return "net"
	case top == "fmt", top == "encoding", top == "reflect", top == "strconv", top == "unicode":
		return "format"
	}
	return "other"
}

// foldByLayer turns leaf weights into each host layer's share of the
// total; the shares sum to 1 (all zero for an empty profile).
func foldByLayer(leaves map[string]int64) map[string]float64 {
	shares := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		shares[l] = 0
	}
	var total int64
	for _, w := range leaves {
		total += w
	}
	if total == 0 {
		return shares
	}
	for fn, w := range leaves {
		shares[layerOf(fn)] += float64(w) / float64(total)
	}
	return shares
}
