package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/memtypes"
)

const addrA = memtypes.Addr(0x1000)
const addrB = memtypes.Addr(0x2000)

// TestFigure3Steps walks the callback-all example of Figure 3 step by
// step with four cores.
func TestFigure3Steps(t *testing.T) {
	d := New(4, 4)

	// Step 1: the entry is allocated with all F/E bits full; every core
	// then reads the variable, consuming its own F/E bit.
	for c := 0; c < 4; c++ {
		res, ev, evicted := d.CallbackRead(c, addrA)
		if res != ReadSatisfied || evicted {
			t.Fatalf("step 1 core %d: res=%v ev=%+v, want satisfied/no eviction", c, res, ev)
		}
	}
	fe, cb, one, ok := d.EntryState(addrA)
	if !ok || one {
		t.Fatal("step 1: entry missing or in One mode")
	}
	if !reflect.DeepEqual(fe, []bool{false, false, false, false}) {
		t.Fatalf("step 1: fe=%v, want all empty", fe)
	}
	if !reflect.DeepEqual(cb, []bool{false, false, false, false}) {
		t.Fatalf("step 1: cb=%v, want none", cb)
	}

	// Step 2: cores 0 and 2 issue callback reads; they block.
	for _, c := range []int{0, 2} {
		res, _, _ := d.CallbackRead(c, addrA)
		if res != ReadBlocked {
			t.Fatalf("step 2 core %d: want blocked", c)
		}
	}
	_, cb, _, _ = d.EntryState(addrA)
	if !reflect.DeepEqual(cb, []bool{true, false, true, false}) {
		t.Fatalf("step 2: cb=%v, want callbacks on 0 and 2", cb)
	}

	// Step 3: core 3 writes; both callbacks are serviced, and the F/E
	// bits of the cores that did NOT have a callback (1 and 3) are set
	// to full.
	wake := coreList(d.Write(addrA, memtypes.CBAll))
	if !reflect.DeepEqual(wake, []int{0, 2}) {
		t.Fatalf("step 3: wake=%v, want [0 2]", wake)
	}
	fe, cb, _, _ = d.EntryState(addrA)
	if !reflect.DeepEqual(fe, []bool{false, true, false, true}) {
		t.Fatalf("step 3: fe=%v, want full for 1 and 3 only", fe)
	}
	if !reflect.DeepEqual(cb, []bool{false, false, false, false}) {
		t.Fatalf("step 3: cb=%v, want cleared", cb)
	}

	// Step 4: a core with a full F/E bit issues a callback and consumes
	// the value immediately, leaving both bits unset.
	res, _, _ := d.CallbackRead(1, addrA)
	if res != ReadSatisfied {
		t.Fatal("step 4: core 1 should consume immediately")
	}
	fe, _, _, _ = d.EntryState(addrA)
	if fe[1] {
		t.Fatal("step 4: core 1 F/E bit should be empty after consuming")
	}

	// Step 5: cores 0 and 2 block again; a replacement answers both
	// callbacks with the current value.
	d.CallbackRead(0, addrA)
	d.CallbackRead(2, addrA)
	small := New(1, 4)
	small.CallbackRead(0, addrA)
	small.CallbackRead(0, addrA) // blocks: CB[0] set
	_, ev, evicted := small.CallbackRead(1, addrB)
	if !evicted || ev.Addr != addrA.Word() || !reflect.DeepEqual(coreList(ev.Waiters), []int{0}) {
		t.Fatalf("step 5: eviction = %+v, want waiter 0 on %s", ev, addrA)
	}

	// Step 6: the new entry starts with all F/E bits full and no
	// callbacks, so the installing read was satisfied.
	fe, cb, one, ok = small.EntryState(addrB)
	if !ok || one {
		t.Fatal("step 6: fresh entry missing or in One mode")
	}
	if !reflect.DeepEqual(fe, []bool{true, false, true, true}) {
		// Core 1 installed and consumed its own bit.
		t.Fatalf("step 6: fe=%v, want all full except installer", fe)
	}
	if small.Stats().StaleWakes != 1 {
		t.Fatalf("step 6: StaleWakes=%d, want 1", small.Stats().StaleWakes)
	}
}

// TestFigure4LockHandoff reproduces the callback-one example of Figure 4:
// acquires arrive in order 2,0,1,3 but the lock is granted 2,3,0,1 under
// the pseudo-random round-robin policy starting at core 3.
func TestFigure4LockHandoff(t *testing.T) {
	d := New(4, 4)

	// Establish the step-1 state: entry in One mode with all F/E full
	// (a previous lock cycle: install + st_cb1 release with no waiters).
	if res, _, _ := d.CallbackRead(2, addrA); res != ReadSatisfied {
		t.Fatal("setup: install should satisfy")
	}
	d.Write(addrA, memtypes.CBOne) // no waiters: One mode, all full
	fe, _, one, _ := d.EntryState(addrA)
	if !one || !reflect.DeepEqual(fe, []bool{true, true, true, true}) {
		t.Fatalf("step 1: fe=%v one=%v, want all full in One mode", fe, one)
	}

	// Step 2: core 2 reads the lock; ALL F/E bits go empty in unison.
	if res, _, _ := d.CallbackRead(2, addrA); res != ReadSatisfied {
		t.Fatal("step 2: core 2 should get the lock value")
	}
	fe, _, _, _ = d.EntryState(addrA)
	if !reflect.DeepEqual(fe, []bool{false, false, false, false}) {
		t.Fatalf("step 2: fe=%v, want all empty in unison", fe)
	}

	// Steps 3-5: cores 0, 1, 3 must set callbacks and wait.
	for _, c := range []int{0, 1, 3} {
		if res, _, _ := d.CallbackRead(c, addrA); res != ReadBlocked {
			t.Fatalf("steps 3-5: core %d should block", c)
		}
	}

	// The example's pseudo-random pick starts at core 3.
	d.SetWakePointer(addrA, 3)

	// Step 6: core 2 releases with write_CB1: exactly one wake (core 3),
	// F/E bits left undisturbed (empty).
	wake := coreList(d.Write(addrA, memtypes.CBOne))
	if !reflect.DeepEqual(wake, []int{3}) {
		t.Fatalf("step 6: wake=%v, want [3]", wake)
	}
	fe, _, _, _ = d.EntryState(addrA)
	if !reflect.DeepEqual(fe, []bool{false, false, false, false}) {
		t.Fatalf("step 6: fe=%v, want undisturbed (all empty)", fe)
	}

	// Core 3 releases: round-robin proceeds to core 0, then core 1 —
	// grant order 2,3,0,1 overall.
	if wake := coreList(d.Write(addrA, memtypes.CBOne)); !reflect.DeepEqual(wake, []int{0}) {
		t.Fatalf("second release: wake=%v, want [0]", wake)
	}
	if wake := coreList(d.Write(addrA, memtypes.CBOne)); !reflect.DeepEqual(wake, []int{1}) {
		t.Fatalf("third release: wake=%v, want [1]", wake)
	}
	// Final release with no waiters returns the entry to all-full.
	if wake := coreList(d.Write(addrA, memtypes.CBOne)); wake != nil {
		t.Fatalf("final release: wake=%v, want none", wake)
	}
	fe, _, _, _ = d.EntryState(addrA)
	if !reflect.DeepEqual(fe, []bool{true, true, true, true}) {
		t.Fatalf("final release: fe=%v, want all full", fe)
	}
}

// TestFigure5PrematureWake shows the write_CB1 inefficiency in RMWs: the
// successful acquire's write wakes core 3 even though its RMW is doomed.
func TestFigure5PrematureWake(t *testing.T) {
	d := New(4, 4)

	// Entry in One mode, all full (as in Figure 5 step 1).
	d.CallbackRead(2, addrA)
	d.Write(addrA, memtypes.CBOne)

	// Core 2's RMW: the read consumes the value (all F/E empty).
	d.ReadThrough(2, addrA)
	fe, _, _, _ := d.EntryState(addrA)
	if !reflect.DeepEqual(fe, []bool{false, false, false, false}) {
		t.Fatalf("RMW read: fe=%v, want all empty", fe)
	}

	// Steps 2-3: cores 3 and 0 must set callbacks.
	d.CallbackRead(3, addrA)
	d.CallbackRead(0, addrA)

	// Step 4: core 2's RMW write is a write_CB1 -> premature wake of
	// core 3 (the pseudo-random pointer is at 3 in the example).
	d.SetWakePointer(addrA, 3)
	wake := coreList(d.Write(addrA, memtypes.CBOne))
	if !reflect.DeepEqual(wake, []int{3}) {
		t.Fatalf("RMW write: wake=%v, want premature [3]", wake)
	}

	// Step 5: core 3's retry fails (lock taken) and it blocks again.
	if res, _, _ := d.CallbackRead(3, addrA); res != ReadBlocked {
		t.Fatal("core 3 retry should block")
	}

	// Steps 5-6: core 2's release wakes core 0 (round-robin moved on).
	wake = coreList(d.Write(addrA, memtypes.CBOne))
	if !reflect.DeepEqual(wake, []int{0}) {
		t.Fatalf("release: wake=%v, want [0]", wake)
	}

	// Steps 7-8: core 0's RMW write prematurely wakes core 1... which in
	// the figure had also blocked. Here core 3 is the only waiter left,
	// so it is woken prematurely again, losing its turn.
	wake = coreList(d.Write(addrA, memtypes.CBOne))
	if !reflect.DeepEqual(wake, []int{3}) {
		t.Fatalf("second RMW write: wake=%v, want [3]", wake)
	}
}

// TestFigure6WriteCB0 shows write_CB0 avoiding the premature wake: the
// RMW write services nobody, so only releases hand the lock off.
func TestFigure6WriteCB0(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(2, addrA)
	d.Write(addrA, memtypes.CBOne) // One mode, all full

	// Core 2 acquires: read consumes; write is st_cb0 (no wakes).
	d.ReadThrough(2, addrA)
	if wake := coreList(d.Write(addrA, memtypes.CBZero)); wake != nil {
		t.Fatalf("st_cb0 woke %v, want nobody", wake)
	}

	// Cores 3 and 0 block.
	d.CallbackRead(3, addrA)
	d.CallbackRead(0, addrA)
	d.SetWakePointer(addrA, 3)

	// Release wakes exactly one (core 3), whose RMW succeeds; its own
	// st_cb0 wakes nobody.
	if wake := coreList(d.Write(addrA, memtypes.CBOne)); !reflect.DeepEqual(wake, []int{3}) {
		t.Fatal("release should wake core 3")
	}
	d.ReadThrough(3, addrA) // woken RMW's read half re-executes at the LLC
	if wake := coreList(d.Write(addrA, memtypes.CBZero)); wake != nil {
		t.Fatalf("woken RMW's st_cb0 woke %v, want nobody", wake)
	}
	// Core 0 still waits, untouched.
	_, cb, _, _ := d.EntryState(addrA)
	if !reflect.DeepEqual(cb, []bool{true, false, false, false}) {
		t.Fatalf("cb=%v, want only core 0 waiting", cb)
	}
	// Next release hands off to core 0.
	if wake := coreList(d.Write(addrA, memtypes.CBOne)); !reflect.DeepEqual(wake, []int{0}) {
		t.Fatal("second release should wake core 0")
	}
}

func TestReadThroughNeverInstalls(t *testing.T) {
	d := New(4, 4)
	d.ReadThrough(0, addrA)
	if d.HasEntry(addrA) {
		t.Fatal("ld_through must not install entries")
	}
	if d.Stats().Installs != 0 {
		t.Fatal("install counted")
	}
}

func TestWriteNeverInstalls(t *testing.T) {
	d := New(4, 4)
	if wake := coreList(d.Write(addrA, memtypes.CBAll)); wake != nil {
		t.Fatal("write on missing entry woke someone")
	}
	if d.HasEntry(addrA) {
		t.Fatal("write must not install entries")
	}
}

func TestReadThroughConsumes(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(0, addrA) // install, consume own bit
	// Core 1's F/E is full; a ld_through consumes it.
	d.ReadThrough(1, addrA)
	fe, _, _, _ := d.EntryState(addrA)
	if fe[1] {
		t.Fatal("ld_through should consume core 1's full bit")
	}
	// A second ld_through is a no-op (but would still return data).
	d.ReadThrough(1, addrA)
	if d.Stats().ThroughHits != 1 {
		t.Fatalf("ThroughHits=%d, want 1", d.Stats().ThroughHits)
	}
}

func TestWordGranularity(t *testing.T) {
	d := New(4, 4)
	// Two words in the same cache line get independent entries.
	w0 := memtypes.Addr(0x1000)
	w1 := memtypes.Addr(0x1008)
	d.CallbackRead(0, w0)
	d.CallbackRead(0, w0) // blocks on w0
	if res, _, _ := d.CallbackRead(0, w1); res != ReadSatisfied {
		t.Fatal("same-line different-word read should have its own entry")
	}
	if wake := coreList(d.Write(w1, memtypes.CBAll)); len(wake) != 0 {
		t.Fatal("write to w1 must not wake w0's waiter")
	}
	if wake := coreList(d.Write(w0, memtypes.CBAll)); !reflect.DeepEqual(wake, []int{0}) {
		t.Fatal("write to w0 should wake its waiter")
	}
}

func TestEvictionPrefersEntriesWithoutWaiters(t *testing.T) {
	d := New(2, 4)
	d.CallbackRead(0, addrA)
	d.CallbackRead(0, addrA) // waiter on A
	d.CallbackRead(1, addrB) // B has no waiters, and is MRU
	// A third address must evict B (no waiters) even though A is LRU.
	_, ev, evicted := d.CallbackRead(2, 0x3000)
	if !evicted || ev.Addr != addrB.Word() {
		t.Fatalf("eviction=%+v, want B (no waiters)", ev)
	}
	if !d.HasEntry(addrA) {
		t.Fatal("A should survive")
	}
}

func TestEvictionAnswersAllWaiters(t *testing.T) {
	d := New(1, 4)
	for c := 0; c < 4; c++ {
		d.CallbackRead(c, addrA) // drain every F/E bit
	}
	d.CallbackRead(0, addrA) // now these block
	d.CallbackRead(1, addrA)
	d.CallbackRead(3, addrA)
	_, ev, evicted := d.CallbackRead(2, addrB)
	if !evicted || !reflect.DeepEqual(coreList(ev.Waiters), []int{0, 1, 3}) {
		t.Fatalf("eviction=%+v, want waiters [0 1 3]", ev)
	}
	if d.Stats().StaleWakes != 3 {
		t.Fatalf("StaleWakes=%d, want 3", d.Stats().StaleWakes)
	}
}

func TestCBOneNoWaitersMakesFull(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(0, addrA)
	d.Write(addrA, memtypes.CBOne)
	fe, _, one, _ := d.EntryState(addrA)
	if !one {
		t.Fatal("st_cb1 should set One mode")
	}
	for _, f := range fe {
		if !f {
			t.Fatal("st_cb1 with no waiters should set all F/E full")
		}
	}
	// Exactly one subsequent read consumes; the next blocks.
	if res, _, _ := d.CallbackRead(1, addrA); res != ReadSatisfied {
		t.Fatal("first read should consume")
	}
	if res, _, _ := d.CallbackRead(2, addrA); res != ReadBlocked {
		t.Fatal("second read should block (value already consumed)")
	}
}

func TestNormalWriteResetsOneMode(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(0, addrA)
	d.Write(addrA, memtypes.CBOne)
	_, _, one, _ := d.EntryState(addrA)
	if !one {
		t.Fatal("setup failed")
	}
	// "(Any normal write or read resets the A/O bit to All.)"
	d.Write(addrA, memtypes.CBAll)
	_, _, one, _ = d.EntryState(addrA)
	if one {
		t.Fatal("st_through should reset the entry to All mode")
	}
}

func TestLowestIDPolicy(t *testing.T) {
	d := New(4, 4)
	d.SetWakePolicy(WakeLowestID)
	d.CallbackRead(3, addrA)
	d.Write(addrA, memtypes.CBOne) // One mode, full
	d.CallbackRead(3, addrA)       // consumes
	d.CallbackRead(2, addrA)       // blocks
	d.CallbackRead(1, addrA)       // blocks
	if wake := coreList(d.Write(addrA, memtypes.CBOne)); !reflect.DeepEqual(wake, []int{1}) {
		t.Fatalf("wake=%v, want lowest ID [1]", wake)
	}
}

func TestDoubleCallbackPanics(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(0, addrA)
	d.CallbackRead(0, addrA) // blocks
	defer func() {
		if recover() == nil {
			t.Fatal("second pending callback from same core did not panic")
		}
	}()
	d.CallbackRead(0, addrA)
}

func TestCancelCallback(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(0, addrA)
	d.CallbackRead(0, addrA) // blocks
	if !d.CancelCallback(0, addrA) {
		t.Fatal("cancel should find the pending callback")
	}
	if d.CancelCallback(0, addrA) {
		t.Fatal("second cancel should find nothing")
	}
	// After cancel the write wakes nobody.
	if wake := coreList(d.Write(addrA, memtypes.CBAll)); len(wake) != 0 {
		t.Fatal("cancelled callback was woken")
	}
}

// Property: a write in All mode wakes exactly the set of blocked cores,
// and afterwards no callback bits remain; every core's read immediately
// after a CBAll write is satisfied exactly once.
func TestPropertyCBAllWakeSet(t *testing.T) {
	f := func(blockedMask uint8) bool {
		d := New(4, 8)
		// Install and drain all F/E bits.
		for c := 0; c < 8; c++ {
			d.CallbackRead(c, addrA)
		}
		var want []int
		for c := 0; c < 8; c++ {
			if blockedMask&(1<<c) != 0 {
				d.CallbackRead(c, addrA)
				want = append(want, c)
			}
		}
		wake := coreList(d.Write(addrA, memtypes.CBAll))
		if !reflect.DeepEqual(wake, want) {
			return false
		}
		_, cb, _, _ := d.EntryState(addrA)
		for _, c := range cb {
			if c {
				return false
			}
		}
		// Non-woken cores consume exactly once.
		for c := 0; c < 8; c++ {
			if blockedMask&(1<<c) != 0 {
				continue
			}
			if res, _, _ := d.CallbackRead(c, addrA); res != ReadSatisfied {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 256, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// Property: under any interleaving of CB-one operations, a write_CB1
// wakes at most one core and every woken core had a pending callback.
func TestPropertyCBOneSingleWake(t *testing.T) {
	f := func(ops []uint8) bool {
		d := New(4, 4)
		pending := [4]bool{}
		for _, op := range ops {
			c := int(op % 4)
			switch (op / 4) % 3 {
			case 0:
				if pending[c] {
					continue // core is blocked; cannot issue
				}
				res, _, evicted := d.CallbackRead(c, addrA)
				if evicted {
					return false // single address: no evictions possible
				}
				if res == ReadBlocked {
					pending[c] = true
				}
			case 1:
				wake := coreList(d.Write(addrA, memtypes.CBOne))
				if len(wake) > 1 {
					return false
				}
				for _, w := range wake {
					if !pending[w] {
						return false
					}
					pending[w] = false
				}
			case 2:
				d.Write(addrA, memtypes.CBZero)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the directory never loses a waiter silently — every blocked
// read is eventually answered by a write, an eviction, or remains
// recorded in CB bits.
func TestPropertyNoLostWaiters(t *testing.T) {
	f := func(ops []uint16) bool {
		d := New(2, 4)
		type waiter struct {
			core int
			addr memtypes.Addr
		}
		blocked := map[waiter]bool{}
		addrs := []memtypes.Addr{0x100, 0x200, 0x300}
		for _, op := range ops {
			c := int(op % 4)
			a := addrs[int(op/4)%3]
			switch (op / 16) % 3 {
			case 0:
				if blocked[waiter{c, a}] {
					continue
				}
				res, ev, evicted := d.CallbackRead(c, a)
				if evicted {
					for _, w := range coreList(ev.Waiters) {
						delete(blocked, waiter{w, ev.Addr})
					}
				}
				if res == ReadBlocked {
					blocked[waiter{c, a}] = true
				}
			case 1:
				for _, w := range coreList(d.Write(a, memtypes.CBAll)) {
					if !blocked[waiter{w, a}] {
						return false
					}
					delete(blocked, waiter{w, a})
				}
			case 2:
				for _, w := range coreList(d.Write(a, memtypes.CBOne)) {
					if !blocked[waiter{w, a}] {
						return false
					}
					delete(blocked, waiter{w, a})
				}
			}
		}
		// Every still-blocked core must be recorded in some entry's CB
		// bits.
		for w := range blocked {
			_, cb, _, ok := d.EntryState(w.addr)
			if !ok || !cb[w.core] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestLineGranularTags(t *testing.T) {
	d := New(4, 4)
	d.SetLineGranular(true)
	w0 := memtypes.Addr(0x1000)
	w1 := memtypes.Addr(0x1008) // same line, different word
	if d.Tag(w0) != d.Tag(w1) {
		t.Fatal("line-granular tags should merge same-line words")
	}
	d.CallbackRead(0, w0) // install, consume core 0's bit
	// Same-line different-word read now shares the entry: core 0 blocks.
	if res, _, _ := d.CallbackRead(0, w1); res != ReadBlocked {
		t.Fatal("line-granular entry should have been consumed by w0's read")
	}
	// A write to the other word wakes it (false sharing of entries).
	if wake := coreList(d.Write(w0, memtypes.CBAll)); !reflect.DeepEqual(wake, []int{0}) {
		t.Fatalf("wake=%v, want [0]", wake)
	}
	if d.Stats().Installs != 1 {
		t.Fatalf("installs=%d, want 1 shared entry", d.Stats().Installs)
	}
}

func TestEvictLRUPolicy(t *testing.T) {
	d := New(2, 4)
	d.SetEvictPolicy(EvictLRU)
	d.CallbackRead(0, addrA)
	d.CallbackRead(0, addrA) // waiter on A (A is LRU)
	d.CallbackRead(1, addrB) // B newer, no waiters
	// Plain LRU evicts A despite its waiter.
	_, ev, evicted := d.CallbackRead(2, 0x3000)
	if !evicted || ev.Addr != addrA.Word() {
		t.Fatalf("eviction=%+v, want A under plain LRU", ev)
	}
	if !reflect.DeepEqual(coreList(ev.Waiters), []int{0}) {
		t.Fatalf("waiters=%v, want [0]", coreList(ev.Waiters))
	}
}

// coreList expands a core mask into ascending core IDs (nil when empty),
// the order in which the bank services the wakes.
func coreList(mask uint64) []int {
	var cores []int
	for c := 0; mask != 0; c, mask = c+1, mask>>1 {
		if mask&1 != 0 {
			cores = append(cores, c)
		}
	}
	return cores
}

// TestWriteWakesAllocFree pins that answering callbacks allocates
// nothing: a CB-All write waking two parked cores and a CB-One write
// waking one return their cores as a mask.
func TestWriteWakesAllocFree(t *testing.T) {
	d := New(4, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range []int{5, 63} {
			d.CallbackRead(c, addrA)
			d.CallbackRead(c, addrA) // consumed the value; this one parks
		}
		if got := d.Write(addrA, memtypes.CBAll); got != 1<<5|1<<63 {
			t.Fatalf("CB-All write woke %v, want [5 63]", coreList(got))
		}
		d.CallbackRead(7, addrA)
		d.CallbackRead(7, addrA)
		if got := d.Write(addrA, memtypes.CBOne); got != 1<<7 {
			t.Fatalf("CB-One write woke %v, want [7]", coreList(got))
		}
		d.Write(addrA, memtypes.CBAll) // back to All mode, every F/E bit full
	})
	if allocs != 0 {
		t.Fatalf("callback writes: %v allocs per run, want 0", allocs)
	}
}

// TestNewRejectsMoreCoresThanAMaskHolds pins the bound that makes the
// wake mask exact: a 65th core would have no bit.
func TestNewRejectsMoreCoresThanAMaskHolds(t *testing.T) {
	New(4, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("New(4, 65) did not panic")
		}
	}()
	New(4, 65)
}

// TestEvictionsAllocFree pins that directory evictions allocate nothing:
// under capacity pressure every callback read displaces an entry whose
// waiter the caller must answer, and ForceEvict (the chaos storm
// primitive) displaces another, each described by value.
func TestEvictionsAllocFree(t *testing.T) {
	d := New(2, 4)
	addrs := [...]memtypes.Addr{0x1000, 0x2000, 0x3000, 0x4000}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		for range 4 {
			a := addrs[i%len(addrs)]
			i++
			d.CallbackRead(0, a)
			// The second read parks core 0, so the next install
			// evicts an entry with a waiter.
			if _, ev, evicted := d.CallbackRead(0, a); evicted && ev.Waiters != 1 {
				t.Fatalf("eviction of %s answered %v, want core 0", ev.Addr, coreList(ev.Waiters))
			}
		}
		if _, ok := d.ForceEvict(i); !ok {
			t.Fatal("ForceEvict found no entry in a full directory")
		}
	})
	if allocs != 0 {
		t.Fatalf("directory evictions: %v allocs per run, want 0", allocs)
	}
	if st := d.Stats(); st.Evictions < 400 {
		t.Fatalf("Evictions = %d, want the loop to evict on every install", st.Evictions)
	}
}
