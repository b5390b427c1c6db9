//go:build race

package quality

// raceEnabled reports whether the race detector is instrumenting this
// build; timing assertions skip under it.
const raceEnabled = true
