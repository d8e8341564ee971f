// Command tpqmatch evaluates a tree pattern query against an XML document
// and reports the answers, optionally minimizing the query first.
//
// Usage:
//
//	tpqmatch -xml doc.xml 'Library/Book*[/Title]'
//	tpqmatch -xml doc.xml 'or(Book*[/Title], Article*[/Title])'
//	tpqmatch -xml doc.xml -xpath '//Book[Title] | //Article[Title]'
//	tpqmatch -xml doc.xml -c 'Book -> Title' -minimize 'Book*[/Title]'
//	cat doc.xml | tpqmatch 'Book*'
//
// Disjunctive queries — or(p1, p2, ...) in pattern syntax, '|' unions in
// XPath — evaluate as the union of their disjuncts' answer sets, merged
// in document order with duplicates removed. -minimize minimizes each
// disjunct and absorption-prunes the union before evaluating.
//
// Output: one line per answer with the node's document position and its
// path from the root, followed by a summary, in document order; -limit N
// prints the first N answers. With -count only the number of answers
// prints, capped at -limit when one is given.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tpq/internal/data"
	"tpq/internal/ics"
	"tpq/internal/match"
	"tpq/internal/match/stream"
	"tpq/internal/pattern"
	"tpq/internal/service"
	"tpq/internal/xpath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpqmatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	xmlPath := fs.String("xml", "-", "XML document to query ('-' = stdin)")
	asXPath := fs.Bool("xpath", false, "parse the query as abbreviated XPath")
	minimize := fs.Bool("minimize", false, "minimize the query before evaluating (CDM + ACIM)")
	countOnly := fs.Bool("count", false, "print only the number of answers")
	limit := fs.Int("limit", 0, "print at most this many answers (0 = all)")
	var consFlags constraintFlags
	fs.Var(&consFlags, "c", "integrity constraint for -minimize (repeatable)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tpqmatch [flags] QUERY\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tpqmatch:", err)
		return 1
	}

	var d *pattern.Disjunction
	var err error
	if *asXPath {
		d, err = xpath.FromXPathDisjunctive(fs.Arg(0))
	} else {
		d, err = pattern.ParseDisjunctive(fs.Arg(0))
	}
	if err != nil {
		return fail(err)
	}

	var src io.Reader = stdin
	if *xmlPath != "-" {
		f, err := os.Open(*xmlPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		src = f
	}
	forest, err := data.ParseXML(src)
	if err != nil {
		return fail(err)
	}

	if *minimize {
		cs := ics.NewSet()
		for _, c := range consFlags {
			con, err := ics.Parse(c)
			if err != nil {
				return fail(err)
			}
			cs.Add(con)
		}
		svc := service.New(service.Options{Constraints: cs, CacheSize: -1})
		out, rep, err := svc.MinimizeDisjunction(context.Background(), d)
		if err != nil {
			return fail(err)
		}
		if rep.OutputSize < rep.InputSize || rep.Kept < rep.Disjuncts {
			fmt.Fprintf(stdout, "# minimized %d -> %d nodes (%d disjunct(s), %d absorbed, %d unsatisfiable): %s\n",
				rep.InputSize, rep.OutputSize, rep.Kept, rep.Absorbed, rep.Unsat, out)
		}
		d = out
	}

	// Every disjunct compiles to one query. UnionCount counts the union
	// of their answers; UnionAnswers yields it in document order, once
	// each (a plain query yields its own answers directly), and -limit
	// stops the printing.
	idx := match.NewForestIndex(forest)
	qs := make([]*stream.Query, 0, len(d.Disjuncts))
	for _, p := range d.Disjuncts {
		sq, err := stream.Compile(p, idx, stream.Options{})
		if err != nil {
			return fail(err)
		}
		qs = append(qs, sq)
	}
	if *countOnly {
		count := stream.UnionCount(context.Background(), qs)
		if *limit > 0 {
			count = min(count, *limit)
		}
		fmt.Fprintln(stdout, count)
		return 0
	}
	count, truncated := 0, false
	for n := range stream.UnionAnswers(context.Background(), qs) {
		if *limit > 0 && count >= *limit {
			truncated = true
			break
		}
		count++
		fmt.Fprintf(stdout, "#%d  %s\n", n.ID, pathOf(n))
	}
	suffix := ""
	if truncated {
		suffix = " (limit reached)"
	}
	fmt.Fprintf(stdout, "%d answer(s) over %d nodes%s\n", count, forest.Size(), suffix)
	return 0
}

func pathOf(n *data.Node) string {
	var parts []string
	for ; n != nil; n = n.Parent {
		parts = append(parts, string(n.Types[0]))
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return "/" + strings.Join(parts, "/")
}

type constraintFlags []string

func (c *constraintFlags) String() string { return strings.Join(*c, "; ") }
func (c *constraintFlags) Set(s string) error {
	*c = append(*c, s)
	return nil
}
