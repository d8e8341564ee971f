//go:build race

package service

// raceEnabled reports whether the race detector instrumented this
// binary. Under -race, sync.Pool deliberately drops a fraction of Puts,
// so allocation counts over the pooled key scratch are not meaningful
// there.
const raceEnabled = true
