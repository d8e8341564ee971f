// Package benchjson is the machine-readable benchmark format,
// tpq-bench/1: tpqbench writes and compares it, tpqload writes it. It is
// a leaf package, so a tool that only emits results does not link the
// benchmark harness and everything the harness measures.
package benchjson

import "runtime"

// Schema identifies the machine-readable benchmark format. Bump it
// only on incompatible changes; the compare tool refuses mismatched
// schemas rather than comparing nanoseconds that mean different things.
const Schema = "tpq-bench/1"

// Result is one pinned measurement. Name is the stable identity the
// compare tool matches on — changing a name silently drops it from
// regression checking, so names are versioned with the workload.
type Result struct {
	// Name is "figure/series/param=value", e.g. "fig7b/incremental/red=50".
	Name string `json:"name"`
	// Figure ties the result to the paper experiment it pins.
	Figure string `json:"figure"`
	// Series and X place the result in its figure: the curve it belongs
	// to and its position on the x axis. tpqbench renders its aligned
	// table and CSV from these two and NsPerOp.
	Series string  `json:"series,omitempty"`
	X      float64 `json:"x,omitempty"`
	// Params are the workload knobs, stringly typed for stability.
	Params map[string]string `json:"params,omitempty"`
	// NsPerOp is the best-of-N wall time of one operation.
	NsPerOp float64 `json:"nsPerOp"`
	// AllocsPerOp is the average heap allocations of one operation.
	AllocsPerOp float64 `json:"allocsPerOp"`
	// PhaseNs breaks the operation down by pipeline phase:
	// chase/cdm/acim/cim/compact (chase, cim and compact nest inside
	// acim). Each phase is the minimum over all measured runs — phases
	// are individually noisy (a GC pause lands in whichever phase is
	// running), so the per-phase best is the stable quantity to gate on,
	// at the price of the phases not summing to NsPerOp exactly.
	PhaseNs map[string]float64 `json:"phaseNs,omitempty"`
	// Counters are work counts of one operation (tests, tables built and
	// derived) — cheap invariants the compare tool checks exactly, since
	// a change there is an algorithmic change, not noise.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// File is the on-disk container: one schema-tagged result set.
// BENCH_<figure>.json holds one figure; BENCH_baseline.json may hold the
// union of several — the compare tool matches by result name, so files
// with different result sets compare over their intersection.
type File struct {
	Schema    string   `json:"schema"`
	Figure    string   `json:"figure"`
	GoVersion string   `json:"goVersion"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []Result `json:"results"`
}

// New returns a File of the given figure's results, stamped with the
// schema and the running toolchain and platform.
func New(figure string, results []Result) File {
	return File{
		Schema:    Schema,
		Figure:    figure,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Results:   results,
	}
}
