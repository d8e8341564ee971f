// Command tpqmin minimizes tree pattern queries, optionally under a set of
// integrity constraints.
//
// Usage:
//
//	tpqmin [-c "A -> B"]... [-f constraints.txt] [-algo auto|cim|cdm|acim] [-parallel N] [-xpath] [-v] QUERY...
//
// Queries use the text syntax of the tpq package — or abbreviated XPath
// with -xpath:
//
//	tpqmin 'Articles/Article*[//Paragraph, /Section//Paragraph]'
//	tpqmin -c 'Section => Paragraph' 'Articles/Article*[//Paragraph, /Section//Paragraph]'
//	tpqmin -xpath '//OrgUnit[Dept/Researcher[.//DBProject]][.//Dept[.//DBProject]]'
//
// Several queries may be given; each is minimized under the same
// constraint set and one result is printed per line, in input order.
// -parallel N minimizes N queries concurrently (0 means all CPUs) — useful
// when piping a workload through the tool.
//
// Constraint files contain one constraint per line ("A -> B" required
// child, "A => B" required descendant, "A ~ B" co-occurrence); blank lines
// and lines starting with # are ignored.
//
// Algorithms: cim ignores constraints entirely; cdm applies only the fast
// local pruning; acim applies augmentation + CIM; auto (the default) runs
// CDM as a pre-filter and then ACIM, which is guaranteed to find the
// unique minimal equivalent query (Theorem 5.3 of the paper).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tpq/internal/engine"
	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/service"
	"tpq/internal/xpath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type constraintFlags []string

func (c *constraintFlags) String() string { return strings.Join(*c, "; ") }
func (c *constraintFlags) Set(s string) error {
	*c = append(*c, s)
	return nil
}

// run is main with injectable arguments and streams, so the command is
// testable end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpqmin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var consFlags constraintFlags
	file := fs.String("f", "", "file with one constraint per line")
	algo := fs.String("algo", "auto", "minimization algorithm: auto, cim, cdm or acim")
	parallel := fs.Int("parallel", 1, "queries minimized concurrently; 0 means all CPUs")
	asXPath := fs.Bool("xpath", false, "read and write abbreviated XPath instead of the pattern syntax")
	verbose := fs.Bool("v", false, "print sizes, removed counts and the closed constraint set")
	fs.Var(&consFlags, "c", "integrity constraint (repeatable), e.g. 'Book -> Title'")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tpqmin [flags] QUERY...\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "tpqmin:", err)
		return 1
	}

	switch *algo {
	case "auto", "cim", "cdm", "acim":
	default:
		return fail(fmt.Errorf("unknown algorithm %q", *algo))
	}

	queries := make([]*pattern.Pattern, fs.NArg())
	for i, src := range fs.Args() {
		var err error
		if *asXPath {
			queries[i], err = xpath.FromXPath(src)
		} else {
			queries[i], err = pattern.Parse(src)
		}
		if err != nil {
			return fail(err)
		}
	}
	cs := ics.NewSet()
	for _, src := range consFlags {
		c, err := ics.Parse(src)
		if err != nil {
			return fail(err)
		}
		cs.Add(c)
	}
	if *file != "" {
		if err := cs.AddFile(*file); err != nil {
			return fail(err)
		}
	}

	closed := cs.Closure()
	svc := service.New(service.Options{
		Constraints: closed,
		Workers:     *parallel,
		Algo:        engine.Algo(*algo),
		CacheSize:   -1,
	})
	outs, reps, err := svc.MinimizeBatch(context.Background(), queries)
	if err != nil {
		return fail(err)
	}

	render := func(p *pattern.Pattern) (string, error) {
		if *asXPath {
			return xpath.ToXPath(p)
		}
		return p.String(), nil
	}
	for i, out := range outs {
		outStr, err := render(out)
		if err != nil {
			return fail(err)
		}
		if !*verbose {
			fmt.Fprintln(stdout, outStr)
			continue
		}
		inStr, err := render(queries[i])
		if err != nil {
			return fail(err)
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "input:       %s  (%d nodes)\n", inStr, queries[i].Size())
		if cs.Len() > 0 {
			fmt.Fprintf(stdout, "constraints: %s\n", cs)
			fmt.Fprintf(stdout, "closure:     %s  (%d constraints)\n", closed, closed.Len())
		}
		fmt.Fprintf(stdout, "removed:     %d nodes\n", reps[i].CDMRemoved+reps[i].ACIMRemoved)
		fmt.Fprintf(stdout, "minimized:   %s  (%d nodes)\n", outStr, out.Size())
	}
	return 0
}
