package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/isa"
	"repro/internal/memtypes"
)

// Chrome trace-event rows per tile. Catapult renders one "process" per
// tile (pid = node id) with one named "thread" per component, so a run
// reads as a swim-lane diagram of the whole chip.
const (
	tidMisc     = 0 // events with no dedicated lane
	tidSync     = 1 // core synchronization phases, spins, critical sections
	tidCallback = 2 // callback-directory block/wake episodes
	tidNet      = 3 // NoC message lifetimes
	tidMonitor  = 4 // MONITOR/MWAIT activity (quiesce)
)

var tidNames = map[int]string{
	tidMisc:     "misc",
	tidSync:     "sync",
	tidCallback: "callback",
	tidNet:      "net",
	tidMonitor:  "monitor",
}

// chromeEvent is one row of the catapult trace-event JSON format. Ts and
// Dur are in microseconds by convention; the simulator maps one simulated
// cycle to one microsecond so the UI's time axis reads as cycles.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type laneKey struct {
	pid, tid int
}

type asyncKey struct {
	node memtypes.NodeID
	addr memtypes.Addr
}

// ChromeWriter is a Sink that converts the simulator's event stream into
// a Chrome trace-event (catapult) JSON file, loadable in chrome://tracing
// or Perfetto. It buffers events in memory and renders on Close, so it
// must only be used for bounded runs (which all simulations are).
//
// Mapping: pid = tile, tid = component lane (sync / callback / net /
// monitor). Sync phases become B/E duration slices named by kind, with a
// synthesized "critical" slice spanning acquire-end to release-begin.
// Spin waits are complete (X) slices. Callback block->wake episodes are
// async (b/e) spans keyed by core+address; directory occupancy is a
// counter (C) series per bank. Messages are async net spans from send to
// deliver, matched FIFO per (src, dst) route — valid because the mesh is
// deterministic and X-Y routing preserves per-route order.
type ChromeWriter struct {
	w      io.Writer
	events []chromeEvent

	lastCycle uint64
	seenPid   map[int]bool
	seenLane  map[laneKey]bool
	// openSync tracks the B/E nesting depth per core's sync lane so Close
	// can balance a truncated stream.
	openSync map[int][]string
	// inCritical marks cores currently inside a synthesized critical
	// section (between acquire end and release begin).
	inCritical map[int]bool
	// openCB maps blocked callback episodes to their async span ids.
	openCB map[asyncKey]uint64
	// netFIFO queues async span ids per packed (src<<32|dst) route.
	netFIFO map[uint64][]uint64
	nextID  uint64
	closed  bool
}

// NewChromeWriter returns a writer that renders to w on Close.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	return &ChromeWriter{
		w:          w,
		seenPid:    make(map[int]bool),
		seenLane:   make(map[laneKey]bool),
		openSync:   make(map[int][]string),
		inCritical: make(map[int]bool),
		openCB:     make(map[asyncKey]uint64),
		netFIFO:    make(map[uint64][]uint64),
	}
}

func (c *ChromeWriter) lane(node memtypes.NodeID, tid int) (pid int) {
	pid = int(node)
	if !c.seenPid[pid] {
		c.seenPid[pid] = true
		c.events = append(c.events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": fmt.Sprintf("tile %d", pid)},
		}, chromeEvent{
			Name: "process_sort_index", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"sort_index": pid},
		})
	}
	lk := laneKey{pid, tid}
	if !c.seenLane[lk] {
		c.seenLane[lk] = true
		c.events = append(c.events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": tidNames[tid]},
		})
	}
	return pid
}

func (c *ChromeWriter) id() uint64 {
	c.nextID++
	return c.nextID
}

// Emit implements Sink.
func (c *ChromeWriter) Emit(e Event) {
	if c.closed {
		return
	}
	if e.Cycle > c.lastCycle {
		c.lastCycle = e.Cycle
	}
	switch e.Kind {
	case KindSyncBegin:
		pid := c.lane(e.Node, tidSync)
		kind := isa.SyncKind(e.B)
		if kind == isa.SyncRelease && c.inCritical[pid] {
			// Leaving the critical section: close the synthesized slice
			// before the release phase opens.
			c.inCritical[pid] = false
			c.popSync(pid, e.Cycle)
		}
		c.pushSync(pid, kind.String(), e.Cycle)
	case KindSyncEnd:
		pid := c.lane(e.Node, tidSync)
		c.popSync(pid, e.Cycle)
		if isa.SyncKind(e.B) == isa.SyncAcquire {
			// Lock acquired: open the critical-section slice under it.
			c.pushSync(pid, "critical", e.Cycle)
			c.inCritical[pid] = true
		}
	case KindSpinWait:
		pid := c.lane(e.Node, tidSync)
		dur := e.A
		if dur == 0 {
			dur = 1
		}
		end := e.Cycle + dur
		if end > c.lastCycle {
			c.lastCycle = end
		}
		c.events = append(c.events, chromeEvent{
			Name: "spin", Cat: "sync", Ph: "X", Ts: e.Cycle, Dur: dur,
			Pid: pid, Tid: tidSync,
			Args: map[string]any{"addr": e.Addr.String()},
		})
	case KindCBBlock:
		pid := c.lane(e.Node, tidCallback)
		key := asyncKey{e.Node, e.Addr.Word()}
		id := c.id()
		c.openCB[key] = id
		c.events = append(c.events, chromeEvent{
			Name: "cb.wait", Cat: "cb", Ph: "b", Ts: e.Cycle,
			Pid: pid, Tid: tidCallback, ID: id,
			Args: map[string]any{"addr": e.Addr.String()},
		})
	case KindCBWake, KindCBStale:
		pid := c.lane(e.Node, tidCallback)
		key := asyncKey{e.Node, e.Addr.Word()}
		if id, ok := c.openCB[key]; ok {
			delete(c.openCB, key)
			c.events = append(c.events, chromeEvent{
				Name: "cb.wait", Cat: "cb", Ph: "e", Ts: e.Cycle,
				Pid: pid, Tid: tidCallback, ID: id,
			})
		}
		if e.Kind == KindCBStale {
			c.events = append(c.events, chromeEvent{
				Name: "cb.stale", Cat: "cb", Ph: "i", Ts: e.Cycle,
				Pid: pid, Tid: tidCallback, S: "t",
			})
		}
	case KindCBOcc:
		pid := c.lane(e.Node, tidCallback)
		c.events = append(c.events, chromeEvent{
			Name: "cb.dir", Cat: "cb", Ph: "C", Ts: e.Cycle,
			Pid: pid, Tid: tidCallback,
			Args: map[string]any{"entries": e.A},
		})
	case KindSend:
		pid := c.lane(e.Node, tidNet)
		id := c.id()
		c.netFIFO[e.A] = append(c.netFIFO[e.A], id)
		c.events = append(c.events, chromeEvent{
			Name: "msg", Cat: "net", Ph: "b", Ts: e.Cycle,
			Pid: pid, Tid: tidNet, ID: id,
			Args: map[string]any{"route": e.Note(), "addr": e.Addr.String()},
		})
	case KindDeliver:
		pid := c.lane(e.Node, tidNet)
		if q := c.netFIFO[e.A]; len(q) > 0 {
			id := q[0]
			c.netFIFO[e.A] = q[1:]
			c.events = append(c.events, chromeEvent{
				Name: "msg", Cat: "net", Ph: "e", Ts: e.Cycle,
				Pid: pid, Tid: tidNet, ID: id,
			})
		}
	case KindMonArm, KindMonWake:
		pid := c.lane(e.Node, tidMonitor)
		c.events = append(c.events, chromeEvent{
			Name: e.Kind.String(), Cat: "monitor", Ph: "i", Ts: e.Cycle,
			Pid: pid, Tid: tidMonitor, S: "t",
			Args: map[string]any{"addr": e.Addr.String()},
		})
	default:
		pid := c.lane(e.Node, tidMisc)
		c.events = append(c.events, chromeEvent{
			Name: e.Kind.String(), Ph: "i", Ts: e.Cycle,
			Pid: pid, Tid: tidMisc, S: "t",
		})
	}
}

func (c *ChromeWriter) pushSync(pid int, name string, cycle uint64) {
	c.openSync[pid] = append(c.openSync[pid], name)
	c.events = append(c.events, chromeEvent{
		Name: name, Cat: "sync", Ph: "B", Ts: cycle, Pid: pid, Tid: tidSync,
	})
}

func (c *ChromeWriter) popSync(pid int, cycle uint64) {
	stack := c.openSync[pid]
	if len(stack) == 0 {
		return
	}
	c.openSync[pid] = stack[:len(stack)-1]
	c.events = append(c.events, chromeEvent{
		Cat: "sync", Ph: "E", Ts: cycle, Pid: pid, Tid: tidSync,
	})
}

// Close balances any still-open slices at the last observed cycle and
// writes the complete JSON document. Further Emits are ignored.
func (c *ChromeWriter) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	// Balancing order must be deterministic: a truncated stream (a
	// replayed window ending mid-episode) leaves open slices, and two
	// renders of the same window must be byte-identical. Sort the map
	// keys before emitting.
	pids := make([]int, 0, len(c.openSync))
	for pid := range c.openSync { //cbvet:unordered — keys are sorted before emitting
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		for range c.openSync[pid] {
			c.events = append(c.events, chromeEvent{
				Cat: "sync", Ph: "E", Ts: c.lastCycle, Pid: pid, Tid: tidSync,
			})
		}
		c.openSync[pid] = nil
	}
	cbKeys := make([]asyncKey, 0, len(c.openCB))
	for key := range c.openCB { //cbvet:unordered — keys are sorted before emitting
		cbKeys = append(cbKeys, key)
	}
	sort.Slice(cbKeys, func(i, j int) bool {
		if cbKeys[i].node != cbKeys[j].node {
			return cbKeys[i].node < cbKeys[j].node
		}
		return cbKeys[i].addr < cbKeys[j].addr
	})
	for _, key := range cbKeys {
		c.events = append(c.events, chromeEvent{
			Name: "cb.wait", Cat: "cb", Ph: "e", Ts: c.lastCycle,
			Pid: int(key.node), Tid: tidCallback, ID: c.openCB[key],
		})
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		TimeUnit    string        `json:"displayTimeUnit"`
	}{TraceEvents: c.events, TimeUnit: "ms"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []chromeEvent{}
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = c.w.Write(buf)
	return err
}
