// Command tpqshell is an interactive console for exploring tree pattern
// query minimization: load constraints and documents, then parse,
// minimize, compare and evaluate queries line by line.
//
// Usage:
//
//	tpqshell [-xml doc.xml] [-f constraints.txt]
//
// Commands (also shown by "help"):
//
//	min QUERY              minimize under the loaded constraints (CDM+ACIM)
//	cim QUERY              constraint-independent minimization only
//	cdm QUERY              local pruning only
//	ic  A -> B             add a constraint (=>, ~, !->, !=> likewise)
//	ics                    list loaded constraints and their closure size
//	eq  QUERY ; QUERY      equivalence, with and without constraints
//	match QUERY            evaluate against the loaded document
//	stream QUERY [N]       stream answers one by one, stopping after N
//	xpath XPATH            convert an XPath expression and minimize it
//	info QUERY             CDM information-content labels per node
//	sat QUERY              satisfiability under the loaded constraints
//	server                 how to serve this session's workload with tpqd
//	help                   this text
//	quit                   exit
//
// min, match, stream and eq accept disjunctive queries — or(p1, p2, ...)
// nodes anywhere a pattern node can appear — and xpath accepts | unions;
// a union is distributed into its conjunctive disjuncts, minimized per
// disjunct with absorption pruning, and evaluated as a document-order
// merge.
//
// The min command runs through a session-scoped tpq.Minimizer, so
// repeating a query (or an isomorphic one) is served from its cache; the
// minimizer is rebuilt whenever the constraint set changes.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tpq"
	"tpq/internal/acim"
	"tpq/internal/cdm"
	"tpq/internal/chase"
	"tpq/internal/cim"
	"tpq/internal/data"
	"tpq/internal/ics"
	"tpq/internal/match/stream"
	"tpq/internal/pattern"
	"tpq/internal/xpath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

type shell struct {
	cs     *ics.Set
	forest *data.Forest
	out    io.Writer
	// min caches minimizations across the session; it is dropped (and
	// lazily rebuilt) whenever the constraint set changes, since its cache
	// key includes the constraint fingerprint.
	min *tpq.Minimizer
	// matcher holds the session's streaming evaluation instance over the
	// loaded document — the inverted index is built once, on the first
	// match/stream command, and shared by all of them.
	matcher *tpq.Matcher
}

func (sh *shell) minimizer() *tpq.Minimizer {
	if sh.min == nil {
		sh.min = tpq.NewMinimizer(tpq.MinimizerOptions{Constraints: sh.cs})
	}
	return sh.min
}

func (sh *shell) theMatcher() *tpq.Matcher {
	if sh.matcher == nil {
		sh.matcher = tpq.NewMatcher(tpq.MatcherOptions{Forest: sh.forest})
	}
	return sh.matcher
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpqshell", flag.ContinueOnError)
	fs.SetOutput(stderr)
	xmlPath := fs.String("xml", "", "XML document to load for match")
	consFile := fs.String("f", "", "constraint file to preload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sh := &shell{cs: ics.NewSet(), out: stdout}
	if *xmlPath != "" {
		f, err := os.Open(*xmlPath)
		if err != nil {
			fmt.Fprintln(stderr, "tpqshell:", err)
			return 1
		}
		forest, err := data.ParseXML(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "tpqshell:", err)
			return 1
		}
		sh.forest = forest
		fmt.Fprintf(stdout, "loaded %s: %d nodes\n", *xmlPath, forest.Size())
	}
	if *consFile != "" {
		if err := sh.loadConstraints(*consFile); err != nil {
			fmt.Fprintln(stderr, "tpqshell:", err)
			return 1
		}
	}

	sc := bufio.NewScanner(stdin)
	fmt.Fprint(stdout, "tpq> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			break
		}
		if line != "" {
			sh.exec(line)
		}
		fmt.Fprint(stdout, "tpq> ")
	}
	fmt.Fprintln(stdout)
	return 0
}

func (sh *shell) loadConstraints(path string) error {
	if err := sh.cs.AddFile(path); err != nil {
		return err
	}
	sh.min = nil
	fmt.Fprintf(sh.out, "loaded %d constraints\n", sh.cs.Len())
	return nil
}

func (sh *shell) exec(line string) {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "help":
		fmt.Fprint(sh.out, helpText)
	case "ic":
		c, err := ics.Parse(rest)
		if err != nil {
			sh.errorf("%v", err)
			return
		}
		sh.cs.Add(c)
		sh.min = nil // constraint set changed; cached results are stale
		fmt.Fprintf(sh.out, "ok (%d constraints)\n", sh.cs.Len())
	case "ics":
		if sh.cs.Len() == 0 {
			fmt.Fprintln(sh.out, "no constraints loaded")
			return
		}
		for _, c := range sh.cs.Constraints() {
			fmt.Fprintln(sh.out, " ", c)
		}
		fmt.Fprintf(sh.out, "closure: %d constraints\n", sh.cs.Closure().Len())
	case "min":
		sh.withUnion(rest, func(q *pattern.Pattern) {
			res, rep := sh.minimizer().MinimizeReport(q)
			note := ""
			if rep.CacheHit {
				note = "; cached"
			}
			fmt.Fprintf(sh.out, "%s   (%d -> %d nodes; CDM removed %d, ACIM %d%s)\n",
				res, rep.InputSize, rep.OutputSize, rep.CDMRemoved, rep.ACIMRemoved, note)
		}, func(d *tpq.Disjunction) {
			res, rep := sh.minimizer().MinimizeDisjunction(d)
			note := ""
			if rep.CacheHit {
				note = "; cached"
			}
			fmt.Fprintf(sh.out, "%s   (%d -> %d nodes; %d disjunct(s), %d absorbed, %d unsatisfiable%s)\n",
				res, rep.InputSize, rep.OutputSize, rep.Disjuncts, rep.Absorbed, rep.Unsat, note)
		})
	case "cim":
		sh.withQuery(rest, func(q *pattern.Pattern) {
			out := cim.Minimize(q)
			fmt.Fprintf(sh.out, "%s   (%d -> %d nodes)\n", out, q.Size(), out.Size())
		})
	case "cdm":
		sh.withQuery(rest, func(q *pattern.Pattern) {
			out := cdm.Minimize(q, sh.cs.Closure())
			fmt.Fprintf(sh.out, "%s   (%d -> %d nodes)\n", out, q.Size(), out.Size())
		})
	case "eq":
		a, b, ok := strings.Cut(rest, ";")
		if !ok {
			sh.errorf("usage: eq QUERY ; QUERY")
			return
		}
		da, err := pattern.ParseDisjunctive(strings.TrimSpace(a))
		if err != nil {
			sh.errorf("%v", err)
			return
		}
		db, err := pattern.ParseDisjunctive(strings.TrimSpace(b))
		if err != nil {
			sh.errorf("%v", err)
			return
		}
		if pa, pb := da.Singleton(), db.Singleton(); pa != nil && pb != nil {
			fmt.Fprintf(sh.out, "equivalent: %v; under constraints: %v\n",
				acim.EquivalentUnder(pa, pb, ics.NewSet()),
				acim.EquivalentUnder(pa, pb, sh.cs))
			return
		}
		fmt.Fprintf(sh.out, "disjunct-wise equivalent: %v; under constraints: %v\n",
			unionEquivalent(da, db, ics.NewSet()), unionEquivalent(da, db, sh.cs))
	case "match":
		if sh.forest == nil {
			sh.errorf("no document loaded (start with -xml doc.xml)")
			return
		}
		sh.withUnion(rest, func(q *pattern.Pattern) {
			fmt.Fprintf(sh.out, "%d answer(s)\n", sh.theMatcher().Count(q))
		}, func(d *tpq.Disjunction) {
			// The union's answer count is the popcount of the OR of the
			// disjuncts' answer rows: no answer is materialized.
			qs := make([]*tpq.MatchQuery, 0, len(d.Disjuncts))
			for _, p := range d.Disjuncts {
				q, err := sh.theMatcher().Compile(p)
				if err != nil {
					sh.errorf("%v", err)
					return
				}
				qs = append(qs, q)
			}
			fmt.Fprintf(sh.out, "%d answer(s)\n", stream.UnionCount(context.Background(), qs))
		})
	case "stream":
		if sh.forest == nil {
			sh.errorf("no document loaded (start with -xml doc.xml)")
			return
		}
		src, limit := rest, 0
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			if n, err := strconv.Atoi(strings.TrimSpace(rest[i+1:])); err == nil && n > 0 {
				src, limit = rest[:i], n
			}
		}
		show := func(answers func(func(*data.Node) bool)) {
			n := 0
			for v := range answers {
				fmt.Fprintf(sh.out, "  #%d %s\n", v.ID, typeList(v.Types))
				if n++; limit > 0 && n >= limit {
					fmt.Fprintln(sh.out, "  ... (limit reached)")
					break
				}
			}
			fmt.Fprintf(sh.out, "%d answer(s) shown\n", n)
		}
		sh.withUnion(src, func(q *pattern.Pattern) {
			show(sh.theMatcher().Answers(context.Background(), q))
		}, func(d *tpq.Disjunction) {
			show(sh.theMatcher().AnswersDisjunction(context.Background(), d))
		})
	case "xpath":
		d, err := xpath.FromXPathDisjunctive(rest)
		if err != nil {
			sh.errorf("%v", err)
			return
		}
		min, _ := sh.minimizer().MinimizeDisjunction(d)
		parts := make([]string, len(min.Disjuncts))
		for i, p := range min.Disjuncts {
			if parts[i], err = xpath.ToXPath(p); err != nil {
				sh.errorf("%v", err)
				return
			}
		}
		fmt.Fprintf(sh.out, "%s   (%d -> %d nodes)\n", strings.Join(parts, " | "), d.Size(), min.Size())
	case "info":
		sh.withQuery(rest, func(q *pattern.Pattern) {
			fmt.Fprint(sh.out, cdm.DebugDump(q))
		})
	case "sat":
		sh.withQuery(rest, func(q *pattern.Pattern) {
			if chase.PlanFor(sh.cs).Unsatisfiable(q) {
				fmt.Fprintln(sh.out, "unsatisfiable under the loaded constraints")
			} else {
				fmt.Fprintln(sh.out, "satisfiable")
			}
		})
	case "server":
		fmt.Fprint(sh.out, serverHint)
	default:
		sh.errorf("unknown command %q (try help)", cmd)
	}
}

func (sh *shell) withQuery(src string, f func(*pattern.Pattern)) {
	q, err := pattern.Parse(src)
	if err != nil {
		sh.errorf("%v", err)
		return
	}
	f(q)
}

// withUnion parses src disjunctively and dispatches: a conjunctive query
// (the common case) to f, a genuine union to g.
func (sh *shell) withUnion(src string, f func(*pattern.Pattern), g func(*tpq.Disjunction)) {
	d, err := pattern.ParseDisjunctive(src)
	if err != nil {
		sh.errorf("%v", err)
		return
	}
	if q := d.Singleton(); q != nil {
		f(q)
		return
	}
	g(d)
}

// unionEquivalent reports disjunct-wise equivalence of two unions under
// cs: every disjunct of each side contained in some disjunct of the
// other. Sufficient for equivalence; a "false" from this test can in
// principle still be an equivalent pair whose containments only hold
// union-wide.
func unionEquivalent(a, b *tpq.Disjunction, cs *ics.Set) bool {
	closed := cs.Closure()
	covers := func(x, y *tpq.Disjunction) bool {
		for _, p := range x.Disjuncts {
			ok := false
			for _, q := range y.Disjuncts {
				if acim.ContainedUnder(p, q, closed) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	return covers(a, b) && covers(b, a)
}

func (sh *shell) errorf(format string, args ...interface{}) {
	fmt.Fprintf(sh.out, "error: %s\n", fmt.Sprintf(format, args...))
}

// typeList renders a data node's types for the stream listing.
func typeList(types []pattern.Type) string {
	parts := make([]string, len(types))
	for i, t := range types {
		parts[i] = string(t)
	}
	return strings.Join(parts, ",")
}

const helpText = `commands:
  min QUERY          minimize under the loaded constraints (CDM+ACIM)
  cim QUERY          constraint-independent minimization only
  cdm QUERY          local pruning only
  ic  A -> B         add a constraint (=> ~ !-> !=> likewise)
  ics                list loaded constraints
  eq  Q1 ; Q2        equivalence with and without constraints
  match QUERY        evaluate against the loaded document (answer count)
  stream QUERY [N]   stream answers one by one, stopping after N
  xpath XPATH        convert an XPath expression and minimize it
  info QUERY         CDM information-content labels
  sat QUERY          satisfiability under the loaded constraints
  server             how to serve this session's workload with tpqd
  quit               exit
min, match, stream and eq accept or(p1, p2, ...) disjunctions; xpath
accepts | unions. Unions minimize per disjunct with absorption pruning.
`

const serverHint = `this session's minimize path is already cached in-process; to serve the
same thing over HTTP to many clients, run the tpqd daemon:

  tpqd -addr :8080 -f constraints.txt -xml doc.xml
  curl -d '{"query": "a*[/b, //c]"}' localhost:8080/minimize

tpqd keeps one shared cache keyed by canonical form + constraint
fingerprint, deduplicates concurrent identical requests, and reports
hit/miss/latency counters at /stats.
`
