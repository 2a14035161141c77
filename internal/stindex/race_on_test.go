//go:build race

package stindex

// raceEnabled reports whether the race detector is compiled in; the
// allocation-count guards skip under it, since instrumentation skews
// testing.AllocsPerRun.
const raceEnabled = true
