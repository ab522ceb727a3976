package trace

import (
	"strings"
	"testing"

	"repro/internal/memtypes"
)

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Cycle: uint64(i), Kind: KindSend})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	if evs[0].Cycle != 2 || evs[2].Cycle != 4 {
		t.Fatalf("wrong window: %v", evs)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRingFilter(t *testing.T) {
	r := NewRing(8)
	line := memtypes.Addr(0x1000)
	r.FilterLine = &line
	r.Emit(Event{Addr: 0x1008, Kind: KindCBWake}) // same line
	r.Emit(Event{Addr: 0x2000, Kind: KindCBBlock})
	if r.Len() != 1 || r.Events()[0].Kind != KindCBWake {
		t.Fatalf("filter broken: %v", r.Events())
	}
}

func TestRingFilterLineZero(t *testing.T) {
	// The old Addr-valued filter treated line 0 as "no filter"; the
	// pointer form must be able to select line 0 explicitly.
	r := NewRing(8)
	zero := memtypes.Addr(0)
	r.FilterLine = &zero
	r.Emit(Event{Addr: 0x08, Kind: KindCBWake})  // line 0
	r.Emit(Event{Addr: 0x40, Kind: KindCBBlock}) // line 1
	if r.Len() != 1 || r.Events()[0].Kind != KindCBWake {
		t.Fatalf("line-0 filter broken: %v", r.Events())
	}
	// And nil keeps everything, including addr 0.
	r2 := NewRing(8)
	r2.Emit(Event{Addr: 0, Kind: KindCBWake})
	r2.Emit(Event{Addr: 0x2000, Kind: KindCBBlock})
	if r2.Len() != 2 {
		t.Fatalf("nil filter dropped events: %v", r2.Events())
	}
}

func TestWriterFilterLine(t *testing.T) {
	var sb strings.Builder
	line := memtypes.Addr(0x40)
	w := &Writer{W: &sb, FilterLine: &line}
	w.Emit(Event{Addr: 0x44, Kind: KindCBWake})
	w.Emit(Event{Addr: 0x80, Kind: KindCBBlock})
	if !strings.Contains(sb.String(), "cb.wake") || strings.Contains(sb.String(), "cb.block") {
		t.Fatalf("writer filter broken: %q", sb.String())
	}
}

func TestWriterStreams(t *testing.T) {
	var sb strings.Builder
	w := &Writer{W: &sb}
	w.Emit(Event{Cycle: 7, Node: 3, Kind: KindCBWake, Addr: 0x40})
	if !strings.Contains(sb.String(), "cb.wake") || !strings.Contains(sb.String(), "node  3") {
		t.Fatalf("stream output: %q", sb.String())
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	Multi{a, b}.Emit(Event{Kind: KindSend})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("multi sink did not fan out")
	}
}

func TestSummarize(t *testing.T) {
	evs := []Event{{Kind: KindSend}, {Kind: KindSend}, {Kind: KindDeliver}}
	s := Summarize(evs)
	if !strings.Contains(s, "send=2") || !strings.Contains(s, "deliver=1") {
		t.Fatalf("summary: %q", s)
	}
}

func TestDump(t *testing.T) {
	r := NewRing(2)
	r.Emit(Event{Kind: KindMonArm, Addr: memtypes.Addr(0x40)})
	var sb strings.Builder
	r.Dump(&sb)
	if !strings.Contains(sb.String(), "0x40") {
		t.Fatalf("dump: %q", sb.String())
	}
}

func TestZeroSizeRingDefaults(t *testing.T) {
	r := NewRing(0)
	r.Emit(Event{})
	if r.Len() != 1 {
		t.Fatal("default-capacity ring broken")
	}
}
