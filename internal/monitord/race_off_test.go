//go:build !race

package monitord

// raceEnabled reports whether the race detector is compiled in; the
// allocation pin skips under -race, where instrumentation allocates.
const raceEnabled = false
