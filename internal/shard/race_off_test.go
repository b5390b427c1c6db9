//go:build !race

package shard

// raceEnabled reports whether the race detector is instrumenting this
// build; timing assertions skip under it.
const raceEnabled = false
