package verify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/memtypes"
)

// Footprint declares the data a program is allowed to touch: a set of
// address ranges plus an optional allowance for pointer-chasing
// (indirect) accesses.
type Footprint struct {
	ranges []fpRange

	// AllowIndirect admits accesses whose base register was loaded
	// from memory (pointer-linked structures such as the CLH lock's
	// queue nodes). The verifier cannot prove where such a pointer
	// lands, so this is a trust declaration: only grant it to programs
	// whose generators are known to keep their pointers in bounds.
	// Even with the allowance, the static offset must stay within one
	// cache line of the loaded pointer.
	AllowIndirect bool
}

type fpRange struct{ base, end uint64 } // [base, end)

// AddRange declares [base, base+size) as touchable.
func (f *Footprint) AddRange(base memtypes.Addr, size uint64) {
	if size == 0 {
		return
	}
	f.ranges = append(f.ranges, fpRange{uint64(base), uint64(base) + size})
	f.normalize()
}

// normalize sorts and merges overlapping or adjacent ranges.
func (f *Footprint) normalize() {
	sort.Slice(f.ranges, func(i, j int) bool { return f.ranges[i].base < f.ranges[j].base })
	out := f.ranges[:0]
	for _, r := range f.ranges {
		if n := len(out); n > 0 && r.base <= out[n-1].end {
			if r.end > out[n-1].end {
				out[n-1].end = r.end
			}
			continue
		}
		out = append(out, r)
	}
	f.ranges = out
}

// Covers reports whether every byte of [lo, hi] (inclusive) lies inside
// a declared range.
func (f *Footprint) Covers(lo, hi uint64) bool {
	for _, r := range f.ranges {
		if lo >= r.base && hi < r.end {
			return true
		}
	}
	return false
}

// Ranges returns the normalized [base, end) ranges.
func (f *Footprint) Ranges() [][2]uint64 {
	out := make([][2]uint64, len(f.ranges))
	for i, r := range f.ranges {
		out[i] = [2]uint64{r.base, r.end}
	}
	return out
}

func (f *Footprint) String() string {
	var b strings.Builder
	for i, r := range f.ranges {
		if i > 0 {
			b.WriteString("+")
		}
		fmt.Fprintf(&b, "[0x%x,0x%x)", r.base, r.end)
	}
	if f.AllowIndirect {
		b.WriteString("+indirect")
	}
	if b.Len() == 0 {
		return "(empty)"
	}
	return b.String()
}
