// Package tpq is a library for minimizing tree pattern queries, a Go
// implementation of "Minimization of Tree Pattern Queries" (Amer-Yahia,
// Cho, Lakshmanan, Srivastava; ACM SIGMOD 2001).
//
// Tree pattern queries (TPQs) are the core retrieval primitive of
// tree-structured data models such as XML and LDAP directories: rooted,
// unordered trees whose nodes carry types, whose edges denote direct ("/")
// or transitive ("//") containment, and where one node — marked "*" — is
// the output. Matching a pattern against a database costs more the larger
// the pattern is, so redundant pattern nodes should be removed first. This
// package provides:
//
//   - Parse / MustParse — a compact text syntax for patterns
//     ("Articles/Article*[/Title, //Paragraph]");
//   - Minimize — constraint-independent minimization (Algorithm CIM,
//     O(n⁴)), which computes the unique minimal equivalent query;
//   - MinimizeUnderConstraints — minimization under required-child,
//     required-descendant and co-occurrence integrity constraints
//     (Algorithm CDM as a fast local pre-filter, then Algorithm ACIM),
//     which computes the unique minimal query equivalent under the
//     constraints;
//   - Contains / Equivalent — containment and equivalence tests via
//     containment mappings, and ContainsUnder / EquivalentUnder for the
//     constraint-aware versions;
//   - Matcher — an evaluation instance over a tree database: Answers
//     and Embeddings yield results as iterators, with context
//     cancellation, from an evaluation linear in data × query that holds
//     O(log k) rows of one bit per node; Match / MatchCount are one-shot
//     wrappers over it (package-level forest constructors and an XML
//     importer are provided).
//
// The subpackages under internal/ expose the individual algorithms to the
// library's own commands, examples and benchmarks; external code should
// use this package's API.
package tpq

import (
	"context"
	"io"
	"math/big"
	"math/rand"
	"sync"

	"tpq/internal/acim"
	"tpq/internal/chase"
	"tpq/internal/containment"
	"tpq/internal/data"
	"tpq/internal/engine"
	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/match"
	"tpq/internal/pattern"
	"tpq/internal/schema"
	"tpq/internal/xpath"
)

// Core model types, re-exported from the internal packages. The aliases
// carry their full method sets.
type (
	// Pattern is a tree pattern query.
	Pattern = pattern.Pattern
	// Node is a node of a Pattern.
	Node = pattern.Node
	// Type is a node type.
	Type = pattern.Type
	// EdgeKind distinguishes child ("/") and descendant ("//") edges.
	EdgeKind = pattern.EdgeKind

	// Condition is a value-based comparison on a node attribute
	// (@price < 100) — the Section 7 extension. A containment mapping may
	// send a node onto an image only if the image's conditions entail the
	// node's.
	Condition = pattern.Condition

	// Constraint is an integrity constraint: required child (A -> B),
	// required descendant (A => B) or co-occurrence (A ~ B).
	Constraint = ics.Constraint
	// Constraints is a hash-indexed set of integrity constraints.
	Constraints = ics.Set

	// Schema is an XML-Schema/LDAP-style schema from which integrity
	// constraints can be inferred.
	Schema = schema.Schema
	// ChildDecl declares a permitted subelement within a Schema element
	// declaration.
	ChildDecl = schema.ChildDecl

	// Forest is a tree-structured database.
	Forest = data.Forest
	// DataNode is a node of a Forest.
	DataNode = data.Node
)

// Edge kinds.
const (
	Child      = pattern.Child
	Descendant = pattern.Descendant
)

// Parse reads a pattern from the text syntax; see the pattern grammar in
// the package documentation of internal/pattern:
//
//	a*[/b, //c/d]   —  root a (output), c-child b, d-child c with c-child d
func Parse(src string) (*Pattern, error) { return pattern.Parse(src) }

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) *Pattern { return pattern.MustParse(src) }

// Disjunction is a union of conjunctive tree pattern queries — the
// distributed form of a pattern with or(p1, p2, ...) nodes. Its answer
// set is the union of the disjuncts' answer sets, and its canonical form
// sorts the disjuncts so every spelling of the same union shares a cache
// key.
type Disjunction = pattern.Disjunction

// ParseDisjunctive reads a pattern in the Parse syntax extended with
// or(alt1, alt2, ...) nodes and returns its distributed form: every
// or-node expanded into a union of conjunctive patterns (capped at
// pattern.MaxDisjuncts), deduplicated and sorted by canonical form. A
// source without or-nodes yields a singleton Disjunction.
func ParseDisjunctive(src string) (*Disjunction, error) { return pattern.ParseDisjunctive(src) }

// MustParseDisjunctive is ParseDisjunctive that panics on error.
func MustParseDisjunctive(src string) *Disjunction { return pattern.MustParseDisjunctive(src) }

// ParseCondition reads one value condition, e.g. "@price < 100".
func ParseCondition(src string) (Condition, error) { return pattern.ParseCondition(src) }

// ParseConstraint reads one constraint: "A -> B", "A => B" or "A ~ B".
func ParseConstraint(src string) (Constraint, error) { return ics.Parse(src) }

// NewConstraints builds a constraint set.
func NewConstraints(cs ...Constraint) *Constraints { return ics.NewSet(cs...) }

// ParseConstraints builds a constraint set from textual constraints.
func ParseConstraints(srcs ...string) (*Constraints, error) { return ics.ParseSet(srcs...) }

// RequiredChild returns the constraint "every from node has a c-child of
// type to".
func RequiredChild(from, to Type) Constraint { return ics.Child(from, to) }

// RequiredDescendant returns the constraint "every from node has a
// descendant of type to".
func RequiredDescendant(from, to Type) Constraint { return ics.Desc(from, to) }

// CoOccurrence returns the constraint "every from node is also of type
// to".
func CoOccurrence(from, to Type) Constraint { return ics.Co(from, to) }

// ForbidChild returns the constraint "no from node has a c-child of type
// to" ("from !-> to"). Forbidden forms do not drive minimization (the
// minimal query need not be unique under them — Section 7 of the paper);
// they feed Unsatisfiable.
func ForbidChild(from, to Type) Constraint { return ics.ForbidChild(from, to) }

// ForbidDescendant returns the constraint "no from node has a descendant
// of type to" ("from !=> to"); see ForbidChild.
func ForbidDescendant(from, to Type) Constraint { return ics.ForbidDesc(from, to) }

// Unsatisfiable reports whether p can never produce an answer on any
// database satisfying cs — for example because the query places a type
// under a node that forbids it, or uses a type whose own constraints are
// contradictory. The verdict is taken against the closure of cs, exactly
// as MinimizeReport takes it: a conflict the closure derives (say a !=> c
// from a ~ b, b !=> c) counts even though no stated constraint mentions
// it. It runs the check tpqd's /minimize reports, on the closed set's
// cached chase plan.
func Unsatisfiable(p *Pattern, cs *Constraints) bool {
	return chase.PlanFor(cs.Closure()).Unsatisfiable(p)
}

// NewSchema returns an empty schema; use Declare/DeclareIsA to populate it
// and InferConstraints to obtain its integrity constraints.
func NewSchema() *Schema { return schema.New() }

// Required declares a mandatory subelement (minOccurs 1) for Schema.Declare.
func Required(name Type) ChildDecl { return schema.Required(name) }

// Optional declares an optional subelement (minOccurs 0) for Schema.Declare.
func Optional(name Type) ChildDecl { return schema.Optional(name) }

// defaultMinimizer backs the package-level Minimize: a shared
// constraint-free instance running plain CIM, so repeated minimizations
// of isomorphic queries are served from its cache.
var (
	defaultOnce      sync.Once
	defaultMinimizer *Minimizer
)

func sharedMinimizer() *Minimizer {
	defaultOnce.Do(func() {
		defaultMinimizer = newMinimizerAlgo(MinimizerOptions{}, engine.CIM)
	})
	return defaultMinimizer
}

// Minimize returns the unique minimal query equivalent to p, with no
// integrity constraints assumed (Algorithm CIM). p is not modified. The
// call is served by a shared package-level Minimizer, so repeats of the
// same (or an isomorphic) query hit its cache; build your own instance
// with NewMinimizer to control caching and constraints.
func Minimize(p *Pattern) *Pattern { return sharedMinimizer().Minimize(p) }

// MinimizeUnderConstraints returns the unique minimal query equivalent to
// p under cs (Algorithm CDM as a pre-filter, then Algorithm ACIM —
// Theorem 5.3 guarantees the combination is exact). p is not modified.
// Each call builds a throwaway Minimizer, closing cs anew; callers
// minimizing many queries under one constraint set should hold a
// NewMinimizer instance instead and get its shared closure and cache.
func MinimizeUnderConstraints(p *Pattern, cs *Constraints) *Pattern {
	out, _ := MinimizeReport(p, cs)
	return out
}

// Report describes what a minimization run did.
type Report struct {
	// InputSize and OutputSize are the node counts before and after.
	InputSize, OutputSize int
	// CDMRemoved and ACIMRemoved split the removals between the local
	// pre-filter and the global phase.
	CDMRemoved, ACIMRemoved int
	// Unsatisfiable is set when the query can never return an answer under
	// the constraints (forbidden-structure conflicts); the query is
	// returned minimized anyway, but callers can skip evaluation entirely.
	Unsatisfiable bool
	// CacheHit and Merged are set only by Minimizer instances: CacheHit
	// when the result came from the instance's cache, Merged when the
	// request joined a concurrent identical request's pipeline run.
	CacheHit, Merged bool
}

// MinimizeReport is MinimizeUnderConstraints with a breakdown of the work
// done, including an unsatisfiability verdict when the constraint set
// contains forbidden forms.
func MinimizeReport(p *Pattern, cs *Constraints) (*Pattern, Report) {
	m := NewMinimizer(MinimizerOptions{Constraints: cs, CacheSize: -1})
	return m.MinimizeReport(p)
}

// MinimizeBatch minimizes every query under cs (which may be nil) over a
// pool of workers goroutines (0 means all CPUs), using the same CDM+ACIM
// pipeline as MinimizeUnderConstraints. Results are returned in input
// order; the inputs are never modified. Use it to minimize a workload of
// queries: it runs on a throwaway Minimizer, whose worker pool minimizes
// up to workers queries at once under one shared closure, and duplicate
// queries within the batch share a single minimization.
func MinimizeBatch(queries []*Pattern, cs *Constraints, workers int) []*Pattern {
	m := NewMinimizer(MinimizerOptions{Constraints: cs, Workers: workers})
	outs, _, _ := m.MinimizeBatch(context.Background(), queries)
	return outs
}

// MinimizeDisjunction returns the minimized form of a disjunctive query
// under cs (which may be nil): each disjunct minimized through the
// CDM+ACIM pipeline (concurrently, over the worker pool of a throwaway
// uncached Minimizer, sharing one compiled chase plan), unsatisfiable
// disjuncts dropped, and disjuncts absorbed by another — contained in it
// under the constraints, hence redundant in the union — pruned. The
// result is equivalent to d by construction; no cross-disjunct rewriting
// is attempted (containment beyond the conjunctive fragment has no
// uniqueness theorem to aim at). d is never mutated; a nil or empty
// disjunction returns nil.
func MinimizeDisjunction(d *Disjunction, cs *Constraints) *Disjunction {
	out, _ := NewMinimizer(MinimizerOptions{Constraints: cs, CacheSize: -1}).MinimizeDisjunction(d)
	return out
}

// Contains reports whether p contains q: on every database, q's answers
// are a subset of p's.
func Contains(p, q *Pattern) bool { return containment.Contains(p, q) }

// Equivalent reports whether p and q return the same answers on every
// database.
func Equivalent(p, q *Pattern) bool { return containment.Equivalent(p, q) }

// ContainsUnder reports whether p contains q over all databases satisfying
// cs. Exact for acyclic constraint sets; sound in general.
func ContainsUnder(p, q *Pattern, cs *Constraints) bool {
	return acim.ContainedUnder(q, p, cs.Closure())
}

// EquivalentUnder reports whether p and q return the same answers on every
// database satisfying cs. Exact for acyclic constraint sets; sound in
// general.
func EquivalentUnder(p, q *Pattern, cs *Constraints) bool {
	return acim.EquivalentUnder(p, q, cs)
}

// Match returns the answer set of p over f: the data nodes the output node
// binds to, in document order. It is a convenience wrapper over a
// throwaway Matcher — when the same forest is queried repeatedly, build a
// Matcher once and use its iterators instead.
func Match(p *Pattern, f *Forest) []*DataNode {
	return NewMatcher(MatcherOptions{Forest: f}).Match(p)
}

// MatchCount returns the number of answers of p over f; see Match.
func MatchCount(p *Pattern, f *Forest) int {
	return NewMatcher(MatcherOptions{Forest: f}).Count(p)
}

// CountEmbeddings returns the number of distinct full embeddings of p into
// f (as opposed to distinct answers), as a big integer — redundant pattern
// branches multiply it, which is the evaluation blow-up minimization
// avoids.
func CountEmbeddings(p *Pattern, f *Forest) *big.Int {
	return NewMatcher(MatcherOptions{Forest: f}).CountEmbeddings(p)
}

// MatchIndex is an inverted index over a forest, reusable across queries;
// see NewMatchIndex.
type MatchIndex = match.ForestIndex

// NewMatchIndex builds an inverted type index over f, shareable between a
// Matcher (via MatcherOptions.Index) and other consumers.
func NewMatchIndex(f *Forest) *MatchIndex { return match.NewForestIndex(f) }

// NewForest builds a database from data trees; construct nodes with
// NewDataNode and DataNode.Child.
func NewForest(roots ...*DataNode) *Forest { return data.NewForest(roots...) }

// NewDataNode returns a database node carrying the given types.
func NewDataNode(types ...Type) *DataNode { return data.NewNode(types...) }

// ParseXML reads an XML document into a single-tree Forest; element names
// become node types, text and attributes are ignored.
func ParseXML(r io.Reader) (*Forest, error) { return data.ParseXML(r) }

// SatisfiesConstraints reports whether every constraint of cs holds in f.
func SatisfiesConstraints(f *Forest, cs *Constraints) bool {
	return data.Satisfies(f, cs.Closure())
}

// RepairConstraints modifies f minimally so it satisfies cs, adding
// witness children and co-occurrence types. It fails on requirement
// cycles (satisfiable only by infinite trees).
func RepairConstraints(f *Forest, cs *Constraints) error { return data.Repair(f, cs) }

// GenerateForest builds a random forest of about the given size over the
// type alphabet, optionally repaired to satisfy cs (pass nil for none).
func GenerateForest(rng *rand.Rand, size int, types []Type, cs *Constraints) (*Forest, error) {
	return data.Generate(rng, data.GenOptions{Size: size, Types: types, Constraints: cs})
}

// GenerateQuery builds a random query of the given size over a bounded
// type alphabet ("t0".."t<alphabet-1>").
func GenerateQuery(rng *rand.Rand, size, alphabet int) *Pattern {
	return genquery.Random(rng, size, alphabet)
}

// SamplePublishingForest builds a synthetic XML article collection shaped
// like the paper's running example (Articles / Article / Title / Author /
// Section / Paragraph, with year and pages attributes). It satisfies
// SamplePublishingConstraints by construction.
func SamplePublishingForest(rng *rand.Rand, articles int) *Forest {
	return data.GeneratePublishing(rng, articles)
}

// SamplePublishingConstraints returns the natural integrity constraints of
// the publishing domain.
func SamplePublishingConstraints() *Constraints { return data.PublishingConstraints() }

// SampleDirectoryForest builds a synthetic LDAP-style white-pages
// directory with multi-typed entries (PermEmp ~ Employee ~ Person, ...).
// It satisfies SampleDirectoryConstraints by construction.
func SampleDirectoryForest(rng *rand.Rand, orgUnits int) *Forest {
	return data.GenerateDirectory(rng, orgUnits)
}

// SampleDirectoryConstraints returns the natural integrity constraints of
// the directory domain.
func SampleDirectoryConstraints() *Constraints { return data.DirectoryConstraints() }

// FromXPath parses an abbreviated XPath expression (/, //, existential
// path predicates, numeric attribute comparisons) into a pattern whose
// output node is the node the expression selects.
func FromXPath(src string) (*Pattern, error) { return xpath.FromXPath(src) }

// ToXPath renders a pattern as an abbreviated XPath expression; see
// FromXPath for the fragment. Patterns with extra types have no XPath
// equivalent and are rejected.
func ToXPath(p *Pattern) (string, error) { return xpath.ToXPath(p) }

// FromXPathDisjunctive parses the FromXPath fragment extended with
// top-level '|' unions into a Disjunction, one disjunct per branch
// (deduplicated and sorted by canonical form). A union-free expression
// yields a singleton Disjunction.
func FromXPathDisjunctive(src string) (*Disjunction, error) {
	return xpath.FromXPathDisjunctive(src)
}

// Isomorphic reports whether two patterns are equal up to sibling order.
// Minimal equivalent queries are unique up to isomorphism (Theorem 4.1),
// so this is the right comparison for minimizer outputs.
func Isomorphic(p, q *Pattern) bool { return pattern.Isomorphic(p, q) }
