package data

import (
	"math/rand"
	"strings"
	"testing"

	"tpq/internal/ics"
	"tpq/internal/pattern"
)

const sampleXML = `<?xml version="1.0"?>
<Library>
  <Book isbn="123">
    <Title>Go</Title>
    <Author><LastName>Pike</LastName></Author>
  </Book>
  <Book><Title>DB</Title></Book>
</Library>`

func TestParseXML(t *testing.T) {
	f, err := ParseXML(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 7 {
		t.Errorf("Size = %d, want 7 (text and attributes ignored)", f.Size())
	}
	root := f.Roots[0]
	if !root.HasType("Library") || len(root.Children) != 2 {
		t.Errorf("bad root: %v", f)
	}
	if !strings.Contains(f.String(), "LastName") {
		t.Errorf("missing LastName node:\n%s", f)
	}
}

func TestParseXMLErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"   ",
		"<a></a><b></b>", // two roots
		"<a><b></a>",     // mismatched
	} {
		if _, err := ParseXML(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseXML(%q) succeeded", bad)
		}
	}
}

func TestGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f, err := Generate(rng, GenOptions{
		Size:  50,
		Types: []pattern.Type{"a", "b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 50 || len(f.Roots) != 1 {
		t.Errorf("Size = %d roots = %d", f.Size(), len(f.Roots))
	}
}

func TestGenerateMultiRootFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f, err := Generate(rng, GenOptions{
		Size:      40,
		Types:     []pattern.Type{"a", "b"},
		Roots:     3,
		MaxFanout: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 3 {
		t.Errorf("roots = %d", len(f.Roots))
	}
	for _, n := range f.Nodes() {
		if len(n.Children) > 2 {
			t.Errorf("fanout %d exceeds bound", len(n.Children))
		}
	}
}

func TestGenerateWithConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cs := ics.NewSet(ics.Child("a", "b"), ics.Co("b", "c"))
	f, err := Generate(rng, GenOptions{
		Size:        30,
		Types:       []pattern.Type{"a", "b"},
		Constraints: cs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !Satisfies(f, cs.Closure()) {
		t.Error("generated forest violates constraints")
	}
}

func TestGenerateCyclicConstraintsFail(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, err := Generate(rng, GenOptions{
		Size:        5,
		Types:       []pattern.Type{"a", "b"},
		Constraints: ics.NewSet(ics.Desc("a", "b"), ics.Desc("b", "a")),
	})
	if err == nil {
		t.Error("cyclic constraints accepted")
	}
}

func TestGeneratePanicsWithoutTypes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on empty alphabet")
		}
	}()
	_, _ = Generate(rand.New(rand.NewSource(5)), GenOptions{Size: 3})
}
