package acim

// Test-only exports for the external strategy-algebra tests in
// oracle_test.go.
var (
	Fig2b       = fig2b
	RandomSetup = randomSetup
)
