//go:build race

package mobility

// raceEnabled reports whether the race detector is compiled in; the
// million-agent memory guard skips under it, since instrumentation
// slows the stream several-fold.
const raceEnabled = true
