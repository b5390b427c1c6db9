//go:build !race

package cluster

// raceEnabled reports whether the race detector is instrumenting this
// build; long loopback runs shrink under it.
const raceEnabled = false
