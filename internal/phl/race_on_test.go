//go:build race

package phl

// raceEnabled reports whether the race detector is compiled in; the
// heap guard skips under it, since instrumentation skews the live
// heap it measures.
const raceEnabled = true
