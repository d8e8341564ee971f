// Package oracle holds the reference implementations the minimization
// kernels are checked against: at most one per layer, each the plainest
// reading of the paper that is still fast enough to run on every
// differential-fuzzing case.
//
//   - cim: the Figure 3 images tables on nested maps (RedundantLeafMap,
//     MinimizeMapInPlace), driven by a full-pattern candidate walk
//     (NextCandidate) instead of the production worklist; and naive CIM
//     (MinimizeNaiveInPlace), §4 without enhancement 1, kept as the
//     ablation baseline.
//   - containment: the nested-map containment-mapping search
//     (FindMappingMap).
//   - chase: the per-call restricted chase (Augment), which rebuilds its
//     witness templates on every call instead of compiling a chase.Plan.
//   - cdm: the four local-redundancy rules of §5.4 applied by direct tree
//     inspection (MinimizeDirectInPlace), the ablation baseline of the
//     information-content propagation.
//   - acim: the reduction step and the {A, R, M} strategy algebra of §5.3
//     (Reduce, ApplyStrategy), so Lemmas 5.2-5.4 can be checked.
//
// Only tests, internal/difffuzz and the ablation figures of internal/bench
// import this package. It imports the production packages, never the
// reverse, and it copies the small helpers it needs rather than sharing
// them with the kernels it checks.
package oracle
