package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"tpq"
	"tpq/internal/pattern"
	"tpq/internal/workload"
	"tpq/internal/xpath"
)

// Workload sizes. They are fixed, not flags: every run of a workload, on
// every commit, measures the same amount of work.
const (
	hotQueries     = 64    // distinct hot-hits queries, far below the 1,024-entry LRU
	hotZipfS       = 1.2   // skew of the hot-hits and match-forest mixes
	coldQuerySize  = 20    // nodes per cold-minimize query (±2)
	coldMaxRate    = 16000 // cold-minimize pool size per measured second
	forestArticles = 1600  // match-forest articles (~26k nodes)
	streamLen      = 1 << 20
)

// publishingTypes are the eight element types of the publishing forest.
var publishingTypes = []pattern.Type{
	"Articles", "Article", "Title", "Author", "LastName", "FirstName", "Section", "Paragraph",
}

// matchQueries is the match-forest query set, hottest first. Several
// carry a predicate the publishing constraints make redundant, so the
// minimizer has work to do; two are unions. No query uses a value
// condition: tpqd's XML loader drops attributes.
var matchQueries = []string{
	"//Article[Author/LastName][Section]/Author/FirstName",
	"//Section[Section/Section]/Paragraph",
	"//Article[Author/LastName]/Title",
	"//Author/FirstName | //Author/LastName",
	"//Section/Section[Paragraph]/Section",
	"//Article[Title][Author/LastName]/Section/Section",
	"//Articles/Article[Title]/Section[Paragraph]/Section/Section",
	"//Article/Title | //Section/Section/Paragraph",
	"//Author[FirstName]/LastName",
	"//Article[Author[FirstName]]/Title",
}

// request is one distinct request of a workload, rendered to wire bytes
// before any clock starts.
type request struct {
	path  string // "/minimize" or "/match"
	text  string // the query as sent: pattern text or XPath
	xpath bool   // text is XPath
	body  []byte // JSON body
	wire  []byte // the whole HTTP/1.1 request
	want  expectation
}

// inputs is everything one workload run sends to tpqd, deterministic in
// the seed.
type inputs struct {
	name        string
	constraints string // constraint file contents; empty means none
	xml         []byte // forest served by /match; nil means none
	reqs        []request
	warm        []int32 // requests of the warm pass, in order
	stream      []int32 // the measured request stream (indices into reqs)
	wrap        bool    // the stream may repeat; false means every request is sent at most once
	rssAfter    int64   // peak_rss_mb is read once this many requests completed
}

var workloadNames = []string{"hot-hits", "cold-minimize", "match-forest"}

// buildInputs generates a workload's inputs from the seed. seconds sizes
// the cold-minimize pool, whose requests are never repeated.
func buildInputs(name string, seed int64, seconds int) (*inputs, error) {
	switch name {
	case "hot-hits":
		return hotHits(seed, hotQueries, streamLen)
	case "cold-minimize":
		return coldMinimize(seed, seconds*coldMaxRate)
	case "match-forest":
		return matchForest(seed, forestArticles, streamLen)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// hotHits: n distinct queries, each sendable as its exact text or its
// XPath spelling; the stream draws ranks Zipf and spellings by a coin.
func hotHits(seed int64, n, length int) (*inputs, error) {
	in := &inputs{name: "hot-hits", wrap: true, rssAfter: 50000}
	for _, q := range workload.Queries(n, seed) {
		x, err := xpath.ToXPath(q.Pattern)
		if err != nil {
			return nil, fmt.Errorf("hot-hits query %q has no XPath spelling: %v", q.Text, err)
		}
		in.reqs = append(in.reqs, newRequest("/minimize", q.Text, false), newRequest("/minimize", x, true))
	}
	for i := range in.reqs {
		in.warm = append(in.warm, int32(i))
	}
	zipf := workload.NewSampler(n, hotZipfS, 0, seed)
	coin := rand.New(rand.NewSource(seed ^ 0x5eed))
	in.stream = make([]int32, length)
	for i := range in.stream {
		rank, _ := zipf.Next()
		in.stream[i] = int32(2*rank + coin.Intn(2))
	}
	return in, nil
}

// coldMinimize: n never-seen random queries of about coldQuerySize nodes
// over the publishing types, distinct by canonical form, under the
// publishing constraints plus Title !-> Section.
func coldMinimize(seed int64, n int) (*inputs, error) {
	in := &inputs{name: "cold-minimize", constraints: constraintFile(), rssAfter: 8000}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	for len(in.reqs) < n {
		p := randomQuery(rng, coldQuerySize-2+rng.Intn(5))
		canon := p.Canonical()
		if seen[canon] {
			continue
		}
		seen[canon] = true
		in.reqs = append(in.reqs, newRequest("/minimize", p.String(), false))
	}
	in.stream = make([]int32, n)
	for i := range in.stream {
		in.stream[i] = int32(i)
	}
	return in, nil
}

// queryTypes is the type draw of cold-minimize queries: the publishing
// types, Title twice, so that about a fifth of the queries put a Section
// child under a Title and are unsatisfiable.
var queryTypes = append([]pattern.Type{"Title"}, publishingTypes...)

// randomQuery builds a random pattern: each node hangs off a uniformly
// chosen earlier node by a child or descendant edge; one node is the
// output.
func randomQuery(rng *rand.Rand, size int) *pattern.Pattern {
	pick := func() pattern.Type { return queryTypes[rng.Intn(len(queryTypes))] }
	nodes := []*pattern.Node{pattern.NewNode(pick())}
	for len(nodes) < size {
		kind := pattern.Child
		if rng.Intn(2) == 0 {
			kind = pattern.Descendant
		}
		parent := nodes[rng.Intn(len(nodes))]
		nodes = append(nodes, parent.AddChild(kind, pattern.NewNode(pick())))
	}
	nodes[rng.Intn(len(nodes))].Star = true
	return pattern.New(nodes[0])
}

// matchForest: a seeded publishing forest of the given article count,
// queried over /match by the fixed XPath set drawn Zipf.
func matchForest(seed int64, articles, length int) (*inputs, error) {
	f := tpq.SamplePublishingForest(rand.New(rand.NewSource(seed)), articles)
	cs, err := tpq.ParseConstraints(constraintLines()...)
	if err != nil {
		return nil, err
	}
	if !tpq.SatisfiesConstraints(f, cs) {
		return nil, fmt.Errorf("match-forest: generated forest violates its constraints")
	}
	in := &inputs{name: "match-forest", constraints: constraintFile(), xml: forestXML(f), rssAfter: 500}
	for i, x := range matchQueries {
		in.reqs = append(in.reqs, newRequest("/match", x, true))
		in.warm = append(in.warm, int32(i))
	}
	zipf := workload.NewSampler(len(matchQueries), hotZipfS, 0, seed)
	in.stream = make([]int32, length)
	for i := range in.stream {
		rank, _ := zipf.Next()
		in.stream[i] = int32(rank)
	}
	in.wrap = true
	return in, nil
}

// constraintLines are the cold-minimize and match-forest constraints: the
// publishing constraints plus Title !-> Section, in tpqd's -f syntax.
func constraintLines() []string {
	var lines []string
	for _, c := range tpq.SamplePublishingConstraints().Constraints() {
		lines = append(lines, c.String())
	}
	return append(lines, "Title !-> Section")
}

func constraintFile() string { return strings.Join(constraintLines(), "\n") + "\n" }

// forestXML renders a publishing forest (one Articles tree) as XML, one
// element per node named by its type. Attributes are left out: tpqd's
// loader ignores them.
func forestXML(f *tpq.Forest) []byte {
	var b bytes.Buffer
	var rec func(n *tpq.DataNode)
	rec = func(n *tpq.DataNode) {
		name := string(n.Types[0])
		if len(n.Children) == 0 {
			b.WriteString("<" + name + "/>")
			return
		}
		b.WriteString("<" + name + ">")
		for _, c := range n.Children {
			rec(c)
		}
		b.WriteString("</" + name + ">")
	}
	rec(f.Roots[0])
	b.WriteByte('\n')
	return b.Bytes()
}

func newRequest(path, text string, isXPath bool) request {
	field := "query"
	if isXPath {
		field = "xpath"
	}
	body, _ := json.Marshal(map[string]string{field: text}) // a map of strings always marshals
	head := "POST " + path + " HTTP/1.1\r\nHost: tpqd\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n"
	wire := append([]byte(head), body...)
	return request{path: path, text: text, xpath: isXPath, body: wire[len(head):], wire: wire}
}

// digest fingerprints everything a run sends: constraint file, forest,
// the distinct requests, the warm pass and the stream.
func (in *inputs) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", in.name, in.constraints)
	h.Write(in.xml)
	for _, r := range in.reqs {
		h.Write(r.wire)
	}
	for _, list := range [][]int32{in.warm, in.stream} {
		fmt.Fprintf(h, "\x00%d:", len(list))
		binary.Write(h, binary.LittleEndian, list) // hashes never fail
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
