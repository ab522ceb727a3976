package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// TestResubmitRetryableAcrossServers is the StateRetryable contract end
// to end: a sweep drained partway on server A is resubmitted to server B,
// completes there, and the overlapping cell —
// freshly simulated on A before the drain and on B during the warmup —
// is served from B's cache byte-identical to A's fresh bytes. Cached ==
// fresh across processes, by construction.
func TestResubmitRetryableAcrossServers(t *testing.T) {
	sa, tsA := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Parallelism: 1})
	_, tsB := newTestServer(t, Config{Workers: 2, QueueDepth: 4, Parallelism: 2})

	// Warm the same single cell on both servers: A's bytes are the
	// cross-process reference, B's fill is what the resubmitted job must
	// reuse.
	warmReq := JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 16}
	warmA, code := submit(t, tsA, warmReq)
	if code != http.StatusAccepted {
		t.Fatalf("warm A = %d", code)
	}
	waitState(t, tsA, warmA.ID, StateDone)
	refBytes := getResult(t, tsA, warmA.ID).Cells[0].Data

	warmB, code := submit(t, tsB, warmReq)
	if code != http.StatusAccepted {
		t.Fatalf("warm B = %d", code)
	}
	waitState(t, tsB, warmB.ID, StateDone)
	if !bytes.Equal(getResult(t, tsB, warmB.ID).Cells[0].Data, refBytes) {
		t.Fatal("fresh cells differ across servers: determinism broken")
	}

	// A long sweep on A, drained after at least one cell completes.
	sweepReq := JobRequest{Setups: []string{"CB-One"}, Cores: 16}
	sweep, code := submit(t, tsA, sweepReq)
	if code != http.StatusAccepted {
		t.Fatalf("submit sweep = %d", code)
	}
	waitState(t, tsA, sweep.ID, StateRunning)
	deadline := time.Now().Add(60 * time.Second)
	for getStatus(t, tsA, sweep.ID).CellsDone == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never completed a cell")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sa.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := getStatus(t, tsA, sweep.ID); st.State != StateRetryable {
		t.Fatalf("drained sweep = %+v, want retryable", st)
	}

	// Resubmit on B: accepted, runs to completion, and the warmed cell
	// is a cache hit with A's exact bytes.
	newSt, code := submit(t, tsB, sweepReq)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit sweep on B = %d", code)
	}
	fin := waitState(t, tsB, newSt.ID, StateDone)
	if fin.CacheHits == 0 {
		t.Fatal("resubmitted sweep reused nothing from B's cache")
	}
	res := getResult(t, tsB, newSt.ID)
	var matched bool
	for _, cell := range res.Cells {
		var pl cellPayload
		if err := json.Unmarshal(cell.Data, &pl); err != nil {
			t.Fatal(err)
		}
		if pl.Spec.Benchmark == "fft" {
			if !cell.Cached {
				t.Fatal("warmed fft cell was re-simulated, not served from cache")
			}
			if !bytes.Equal(cell.Data, refBytes) {
				t.Fatalf("cached cell differs from A's fresh bytes:\n%s\nvs\n%s", cell.Data, refBytes)
			}
			matched = true
		}
	}
	if !matched {
		t.Fatal("fft cell missing from resubmitted sweep")
	}
}
