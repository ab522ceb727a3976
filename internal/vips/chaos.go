package vips

import (
	"fmt"

	"repro/internal/memtypes"
)

// This file holds the bank's fault-injection hooks and the tile's
// callback invariant checker. Every hook is nil-guarded by the caller, so with
// chaos disabled the bank's behavior and Stats are bit-identical to a
// build without this file.

// injectChaos applies per-operation directory faults before a racy
// operation is dispatched: a forced eviction of a random entry (whose
// waiters are answered with the current value — legal at any time per
// Section 2.3.1) and/or a spurious wake on the operation's own line.
// Only called when both chaos and the callback directory are present.
func (b *Bank) injectChaos(addr memtypes.Addr) {
	if pick, ok := b.chaos.ForcedEviction(); ok {
		if ev, evicted := b.cbdir.ForceEvict(pick); evicted {
			b.answerEviction(ev)
		}
	}
	if b.chaos.SpuriousWake() {
		b.spuriousWake(addr)
	}
}

// spuriousWake answers one waiter on addr with the current value even
// though no write happened — the st_cb0-style wake the paper's spin
// loops must tolerate: the woken core observes an unchanged value,
// re-checks, and re-subscribes with a fresh ld_cb.
func (b *Bank) spuriousWake(addr memtypes.Addr) {
	_, cb, _, ok := b.cbdir.EntryState(addr)
	if !ok {
		return
	}
	var waiters []int
	for c, set := range cb {
		if set {
			waiters = append(waiters, c)
		}
	}
	if len(waiters) == 0 {
		return
	}
	victim := waiters[b.chaos.Pick(len(waiters))]
	b.cbdir.CancelCallback(victim, addr)
	b.wake(1<<victim, addr, b.store.Load(addr), true)
}

// wakeRecord is a wake in flight between a write and its delivery (see
// wakeAfter).
type wakeRecord struct {
	cores uint64 // core mask, as core.Directory.Write returns it
	addr  memtypes.Addr
	value uint64
}

// deliverWake fires the delayed wake in record i: the record goes back on
// the free list and its wakes are serviced.
//
//cbsim:hotpath
func (b *Bank) deliverWake(i uint32) {
	w := b.wakes[i]
	b.wakes[i] = wakeRecord{}
	b.freeWakes = append(b.freeWakes, i)
	b.wake(w.cores, w.addr, w.value, false)
}

// wakeAfter services wakes delay cycles from now; chaos may stretch the
// window between the directory update (callback bits already cleared)
// and the delivery of the wakes — the delayed F/E-bit visibility fault.
// A zero total delay wakes synchronously, exactly like calling wake
// directly.
//
//cbsim:hotpath
func (b *Bank) wakeAfter(delay uint64, cores uint64, addr memtypes.Addr, value uint64) {
	if b.chaos != nil {
		delay += b.chaos.WakeDelay()
	}
	if delay == 0 {
		b.wake(cores, addr, value, false)
		return
	}
	rec := wakeRecord{cores: cores, addr: addr, value: value}
	var i uint32
	if n := len(b.freeWakes); n > 0 {
		i = b.freeWakes[n-1]
		b.freeWakes = b.freeWakes[:n-1]
		b.wakes[i] = rec
	} else {
		i = uint32(len(b.wakes))
		b.wakes = append(b.wakes, rec)
	}
	b.k.Schedule(delay, b.self, nil, evWake+uint64(i))
}

// accessLat returns the LLC access latency for addr, plus chaos jitter.
func (b *Bank) accessLat(addr memtypes.Addr, needData bool, syncKind uint8) uint64 {
	lat := b.data.Access(addr, needData, syncKind)
	if b.chaos != nil {
		lat += b.chaos.LLCJitter()
	}
	return lat
}

// CheckInvariants verifies the no-lost-wakeup contract between
// the callback directory and the bank's parked operations: every set
// callback bit must have a matching parked operation (a set bit with no
// parked op is a wake that can never be delivered). Parked operations
// may transiently outnumber set bits while a wake is in flight (the
// write clears the bits, the wake message delivers later), so the
// reverse direction only holds when final is true — after the machine
// has quiesced — where both counts must be exactly zero.
func (t *Tile) CheckInvariants(final bool) error {
	b := t.Bank
	if b.cbdir == nil {
		if final && t.Parked() != 0 {
			return fmt.Errorf("vips: bank %d: %d operations parked with no callback directory", b.id, t.Parked())
		}
		return nil
	}
	var err error
	waiters := 0
	b.cbdir.VisitEntries(func(addr memtypes.Addr, fe, cb []bool, one bool) {
		for c, set := range cb {
			if !set {
				continue
			}
			waiters++
			if err != nil {
				continue
			}
			m := b.parked[addr]
			if m == nil || m[memtypes.NodeID(c)] == nil {
				err = fmt.Errorf("vips: bank %d: callback bit set for core %d on %s with no parked operation (lost wakeup)", b.id, c, addr.Word())
			}
		}
	})
	if err != nil {
		return err
	}
	if final {
		if n := t.Parked(); n != 0 {
			return fmt.Errorf("vips: bank %d: %d operations still parked after quiesce", b.id, n)
		}
		if waiters != 0 {
			return fmt.Errorf("vips: bank %d: %d callback bits still set after quiesce", b.id, waiters)
		}
	}
	return nil
}

// ParkedOp reports the line a core is currently parked on at this bank,
// if any. A core has at most one operation in flight, so at most one
// entry across all banks can match; the map scan is therefore
// order-independent.
func (t *Tile) ParkedOp(core memtypes.NodeID) (memtypes.Addr, bool) {
	//cbvet:unordered at most one parked op per core can match
	for addr, m := range t.Bank.parked {
		if m[core] != nil {
			return addr, true
		}
	}
	return 0, false
}
