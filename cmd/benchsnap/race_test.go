//go:build race

package main

// raceEnabled reports a -race build: the race runtime makes allocations
// of its own, so exact malloc counts are meaningless under it.
const raceEnabled = true
