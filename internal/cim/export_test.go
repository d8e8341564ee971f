package cim

import "tpq/internal/chase"

// NewEngineOn exposes the engine over a caller's layout to the external
// cross-checks, which augment it through a chase plan. Closing the
// engine leaves s to the caller.
func NewEngineOn(s *chase.Scratch, opts Options) *Engine { return newEngine(s, opts) }
