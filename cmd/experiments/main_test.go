package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRunRejectsBadCoreCounts checks that an impossible -cores value is
// reported as an error before any sweep starts, instead of panicking
// inside machine construction.
func TestRunRejectsBadCoreCounts(t *testing.T) {
	for _, tc := range []struct {
		cores int
		want  string
	}{
		{15, "15 cores is not a perfect square"},
		{81, "at most 64 cores"},
	} {
		o := experiments.Options{Cores: tc.cores, Benchmarks: []string{"fft"}, Parallelism: 1}
		err := run("21", o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run with %d cores: error %v, want one containing %q", tc.cores, err, tc.want)
		}
	}
}
