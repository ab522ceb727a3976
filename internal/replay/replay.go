// Package replay is the time-travel debugging layer: checkpointed
// recordings of deterministic runs, windowed re-execution with trace
// hooks re-attached, and first-divergence bisection between two
// configurations.
//
// The subsystem leans entirely on the simulator's determinism contract:
// a machine built the same way and run the same way fires the identical
// event sequence, so "state at cycle C" is a pure function of the build
// recipe. A Recording captures that recipe (the Source), a digest mark
// every Interval cycles (the evidence), and the run's Stats. Re-running
// any window is then: materialize a machine, advance silently to the
// window start — verifying the digest marks crossed on the way — attach
// the requested trace sinks, and run to the window end.
//
// Checkpoints and quiescence. machine.Snapshot only captures quiescent
// machines: pending kernel events, in-flight messages and controller
// transactions are not part of its manifest, and a mid-run machine
// essentially always has events in flight. The recorder therefore keeps
// digest marks, not snapshots. The fast re-execution anchors are live
// cursors: paused machines parked at a cycle boundary by a previous
// replay, kept in a bounded LRU ring. A replay of [from,to) anchors on
// the best cursor at or below from (or a fresh build at cycle 0), and
// parks its machine at to for the next replay to reuse — repeatedly
// stepping through a run forward pays the prefix once, not per window.
package replay

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/machine"
)

// Defaults for Options.
const (
	// DefaultInterval is the checkpoint/digest-mark cadence K in
	// cycles. Marks cost one full-machine digest each — the dominant
	// recording cost, since the simulator sweeps thousands of cycles in
	// the time one digest takes — so the default trades recording
	// overhead (benchgate bounds it at 2.5x a plain run) against how far
	// a replay or bisection must re-execute blind. Re-executing 16K
	// cycles costs microseconds; digesting every 4K cycles costs half
	// the recording.
	DefaultInterval = 16384
	// DefaultCursors bounds the in-memory replay-cursor ring. Each
	// cursor is a full paused machine (a 64-core machine allocates on
	// the order of a thousand objects), so the ring is deliberately
	// small; eviction is LRU.
	DefaultCursors = 4
	// DefaultLimit is the cycle budget when Source.Limit is zero,
	// matching the experiments layer's run limit.
	DefaultLimit = 200_000_000
)

// Source describes how to (re)build one deterministic run: a factory
// returning a freshly built machine with its programs loaded, paused at
// cycle zero. Build must be a pure recipe — every machine it returns
// must behave byte-identically — which is exactly the determinism the
// simulator already guarantees for a fixed configuration, program set,
// and seed.
type Source struct {
	// Label names the run in reports and errors.
	Label string
	// Build constructs the machine. Called once by Record and once per
	// fresh replay/bisection anchor.
	Build func() (*machine.Machine, error)
	// Limit is the cycle budget (0 = DefaultLimit). A recording whose
	// run does not complete within the budget fails.
	Limit uint64
}

// Options tunes recording and replay.
type Options struct {
	// Interval is the digest-mark / checkpoint-attempt cadence K in
	// cycles (0 = DefaultInterval).
	Interval uint64
	// Cursors bounds the parked replay-cursor ring (0 = DefaultCursors).
	Cursors int
	// SpillDir, when non-empty, spills each recording's mark stream
	// and metadata to a versioned JSON blob in that directory.
	SpillDir string
	// Scope selects the digest scope (ScopeFull needs both sides of a
	// comparison to be DigestCompatible; Bisect picks automatically).
	Scope machine.DigestScope
	// Context, when non-nil, cancels recording and replay between
	// Interval chunks (the daemon threads its per-job context here). A
	// canceled context surfaces as ctx.Err(), never as a truncated
	// recording.
	Context context.Context
}

// canceled reports the context error, if a context is set and done.
func (o Options) canceled() error {
	if o.Context != nil {
		if err := o.Context.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (o Options) fill() Options {
	if o.Interval == 0 {
		o.Interval = DefaultInterval
	}
	if o.Cursors <= 0 {
		o.Cursors = DefaultCursors
	}
	return o
}

// Mark is one digest checkpoint: the machine's canonical state digest
// at an exact cycle boundary (all events below Cycle fired, none at or
// above).
type Mark struct {
	Cycle    uint64 `json:"cycle"`
	Digest   uint64 `json:"digest"`
	Executed uint64 `json:"executed"` // events fired so far
}

// Recording is a completed, replayable run: the source recipe, the
// digest marks, the final Stats, and the parked replay cursors.
type Recording struct {
	src  Source
	opts Options
	cfg  machine.Config

	marks []Mark
	// endCycle is the cycle of the last fired event (Stats.Cycles);
	// every event of the run lies in [0, endCycle+1).
	endCycle uint64
	// finalDigest is the machine digest at the exact pause point where
	// the run completed (before Quiesce).
	finalDigest uint64
	stats       machine.Stats

	mu       sync.Mutex
	cursors  []*cursor
	useClock uint64
}

// cursor is a live machine parked at an exact cycle boundary, ready to
// continue forward.
type cursor struct {
	m     *machine.Machine
	cycle uint64
	used  uint64 // logical LRU stamp (Recording.useClock)
}

// Record runs the source to completion, digesting at every Interval
// boundary.
func Record(src Source, opts Options) (*Recording, error) {
	m, err := src.Build()
	if err != nil {
		return nil, fmt.Errorf("replay: build %s: %w", src.Label, err)
	}
	return record(m, src, opts)
}

// record is Record with the initial machine already built (Bisect
// probes configurations before recording).
func record(m *machine.Machine, src Source, opts Options) (*Recording, error) {
	opts = opts.fill()
	limit := src.Limit
	if limit == 0 {
		limit = DefaultLimit
	}
	r := &Recording{src: src, opts: opts, cfg: m.Config()}
	r.marks = append(r.marks, Mark{Cycle: 0, Digest: m.Digest(opts.Scope)})

	for next := opts.Interval; ; next += opts.Interval {
		if err := opts.canceled(); err != nil {
			return nil, fmt.Errorf("replay: record %s: %w", src.Label, err)
		}
		done, err := m.RunToCycle(next)
		if err != nil {
			return nil, fmt.Errorf("replay: record %s: %w", src.Label, err)
		}
		if done {
			break
		}
		r.marks = append(r.marks, Mark{Cycle: next, Digest: m.Digest(opts.Scope), Executed: m.K.Executed()})
		if next >= limit {
			return nil, fmt.Errorf("replay: record %s: no completion within %d cycles", src.Label, limit)
		}
	}

	// Stats are captured at the exact pause point where the last core
	// finished — the same point Run stops — so a recording's Stats are
	// byte-identical to an ordinary run's.
	r.stats = m.Stats()
	r.endCycle = r.stats.Cycles
	r.finalDigest = m.Digest(opts.Scope)

	// Quiesce drains the leftover events: a run whose in-flight work
	// never lands is an error, not a recording.
	if err := m.Quiesce(machine.DefaultWatchdogWindow); err != nil {
		return nil, fmt.Errorf("replay: quiesce %s: %w", src.Label, err)
	}

	if opts.SpillDir != "" {
		if err := r.spill(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Label returns the source label.
func (r *Recording) Label() string { return r.src.Label }

// Config returns the recorded machine's effective configuration.
func (r *Recording) Config() machine.Config { return r.cfg }

// Stats returns the recorded run's Stats, byte-identical to an
// ordinary (non-recorded) run of the same source.
func (r *Recording) Stats() machine.Stats { return r.stats }

// End returns the exclusive end boundary: every event of the recorded
// run lies in the window [0, End).
func (r *Recording) End() uint64 { return r.endCycle + 1 }

// Marks returns the digest marks (ascending cycle, mark 0 at cycle 0).
func (r *Recording) Marks() []Mark { return r.marks }

// Interval returns the effective mark cadence K.
func (r *Recording) Interval() uint64 { return r.opts.Interval }
