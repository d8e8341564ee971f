//go:build race

package stream

// raceEnabled reports whether the race detector instrumented this
// binary. Under -race, sync.Pool deliberately drops a fraction of Puts,
// so allocation counts over the pooled scratch are not meaningful there.
const raceEnabled = true
