package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"tpq"
)

// expectation is the correct answer to one request, computed in the
// benchmark process through the root tpq facade before tpqd starts.
type expectation struct {
	output string // /minimize: the canonical minimized text
	unsat  bool   // /minimize: tpq.Unsatisfiable under the constraints
	count  int    // /match: answers of the *unminimized* query
}

// response is the subset of tpqd's /minimize and /match replies the
// checks read.
type response struct {
	Output        string `json:"output"`
	Unsatisfiable bool   `json:"unsatisfiable"`
	Count         *int   `json:"count"`
}

// check reports why a reply is wrong, or nil.
func (r *request) check(status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("%s %q: status %d: %s", r.path, r.text, status, bytes.TrimSpace(body))
	}
	var got response
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s %q: undecodable reply: %v", r.path, r.text, err)
	}
	if r.path == "/match" {
		if got.Count == nil || *got.Count != r.want.count {
			return fmt.Errorf("/match %q: count %v, want %d", r.text, got.Count, r.want.count)
		}
		return nil
	}
	if got.Output != r.want.output || got.Unsatisfiable != r.want.unsat {
		return fmt.Errorf("/minimize %q: got %q (unsatisfiable %v), want %q (unsatisfiable %v)",
			r.text, got.Output, got.Unsatisfiable, r.want.output, r.want.unsat)
	}
	return nil
}

// computeExpectations fills in every request's expectation. /minimize
// answers come from a facade Minimizer under the same constraints tpqd
// loads; /match counts come from a facade Matcher over the forest parsed
// from the same XML, evaluating the query as sent, so a minimizer that
// changed a query's answers would fail here too.
func computeExpectations(in *inputs) error {
	var cs *tpq.Constraints
	if in.constraints != "" {
		var err error
		if cs, err = tpq.ParseConstraints(constraintLines()...); err != nil {
			return err
		}
		cs = cs.Closure()
	}
	var matcher *tpq.Matcher
	if in.xml != nil {
		f, err := tpq.ParseXML(bytes.NewReader(in.xml))
		if err != nil {
			return err
		}
		matcher = tpq.NewMatcher(tpq.MatcherOptions{Forest: f})
	}
	var (
		mins []*tpq.Pattern
		at   []int
	)
	for i := range in.reqs {
		r := &in.reqs[i]
		var (
			d   *tpq.Disjunction
			err error
		)
		if r.xpath {
			d, err = tpq.FromXPathDisjunctive(r.text)
		} else {
			d, err = tpq.ParseDisjunctive(r.text)
		}
		if err != nil {
			return fmt.Errorf("request %q: %v", r.text, err)
		}
		if r.path == "/match" {
			if p := d.Singleton(); p != nil {
				r.want.count = matcher.Count(p)
			} else {
				r.want.count = len(matcher.MatchDisjunction(d))
			}
			continue
		}
		p := d.Singleton()
		if p == nil {
			return fmt.Errorf("request %q: /minimize workloads send conjunctive queries only", r.text)
		}
		r.want.unsat = tpq.Unsatisfiable(p, cs)
		mins = append(mins, p)
		at = append(at, i)
	}
	if len(mins) == 0 {
		return nil
	}
	m := tpq.NewMinimizer(tpq.MinimizerOptions{Constraints: cs, CacheSize: -1})
	outs, _, err := m.MinimizeBatch(context.Background(), mins)
	if err != nil {
		return err
	}
	for k, i := range at {
		in.reqs[i].want.output = outs[k].String()
	}
	return nil
}
