package cdm

// RandomSetup exposes the random (query, constraints) generator to the
// external cross-checks in oracle_test.go.
var RandomSetup = randomSetup
