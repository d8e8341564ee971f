package chase

import (
	"testing"

	"tpq/internal/ics"
	"tpq/internal/pattern"
)

func countTemp(p *pattern.Pattern) int {
	n := 0
	p.Walk(func(x *pattern.Node) {
		if x.Temp {
			n++
		}
	})
	return n
}

func TestAugmentAddsWitnesses(t *testing.T) {
	// Figure 2(b) + Section => Paragraph gives Figure 2(j): one extra
	// temporary Paragraph d-child under Section.
	p := pattern.MustParse("Articles/Article*[//Paragraph, /Section//Paragraph]")
	cs := ics.NewSet(ics.Desc("Section", "Paragraph"))
	added := Compile(cs).Augment(p)
	if added != 1 {
		t.Fatalf("Augment added %d nodes, want 1", added)
	}
	var section *pattern.Node
	p.Walk(func(n *pattern.Node) {
		if n.Type == "Section" {
			section = n
		}
	})
	if len(section.Children) != 2 {
		t.Fatalf("Section has %d children, want 2", len(section.Children))
	}
	tmp := section.Children[1]
	if !tmp.Temp || tmp.Type != "Paragraph" || tmp.Edge != pattern.Descendant {
		t.Errorf("witness = %+v", tmp)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("augmented pattern invalid: %v", err)
	}
}

func TestAugmentSkipsAbsentTargetTypes(t *testing.T) {
	// Constraint targets that do not occur in the original query are not
	// applied (restriction 2 of Section 5.2).
	p := pattern.MustParse("a*/b")
	cs := ics.NewSet(ics.Child("a", "zzz"), ics.Desc("b", "yyy"), ics.Co("a", "www"))
	if added := Compile(cs).Augment(p); added != 0 {
		t.Errorf("Augment added %d nodes for absent types", added)
	}
	if p.Root.HasType("www") {
		t.Error("co-occurrence applied for absent type")
	}
}

func TestAugmentCoOccurrence(t *testing.T) {
	p := pattern.MustParse("Organization*[/Employee/Project, /PermEmp/DBproject]")
	cs := ics.NewSet(ics.Co("PermEmp", "Employee"), ics.Co("DBproject", "Project"))
	Compile(cs).Augment(p)
	var permEmp, dbproj *pattern.Node
	p.Walk(func(n *pattern.Node) {
		switch n.Type {
		case "PermEmp":
			permEmp = n
		case "DBproject":
			dbproj = n
		}
	})
	if !permEmp.HasType("Employee") {
		t.Error("PermEmp did not gain type Employee")
	}
	if !dbproj.HasType("Project") {
		t.Error("DBproject did not gain type Project")
	}
	// Temporary associations are stripped.
	p.StripTemp()
	if permEmp.HasType("Employee") {
		t.Error("temporary type association survived StripTemp")
	}
}

func TestAugmentChasesWitnesses(t *testing.T) {
	// Witnesses are chased too: the b witness under a stands for a node
	// the constraints guarantee, so it must exhibit its own guaranteed
	// c child — otherwise a query branch b/c could never map onto it and
	// ACIM misses redundancies (the difffuzz agreement/minimality bugs).
	p := pattern.MustParse("a*[/b, /c]")
	cs := ics.NewSet(ics.Child("a", "b"), ics.Child("b", "c"))
	Compile(cs).Augment(p)
	found := false
	for _, c := range p.Root.Children {
		if c.Temp && c.Type == "b" {
			for _, g := range c.Children {
				if g.Temp && g.Type == "c" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("b witness was not given its guaranteed c child")
	}
}

func TestAugmentDeepChainStaysLinear(t *testing.T) {
	// On a closed chain t0 -> t1 -> ... -> t19 every DescTargets(t0)
	// contains all later types; spawning a chain per transitive target
	// unfolds every descending type sequence — exponential, and it hung
	// the Section 6 bench workloads. WitnessTargets prunes descendant
	// targets already required below another spawned witness, so the
	// chain is materialized once per node.
	cons := make([]ics.Constraint, 0, 19)
	types := make([]pattern.Type, 20)
	for i := range types {
		types[i] = pattern.Type(string(rune('a'+i/10)) + string(rune('a'+i%10)))
	}
	for i := 0; i+1 < len(types); i++ {
		cons = append(cons, ics.Child(types[i], types[i+1]))
	}
	p := pattern.MustParse("aa*//" + string(types[len(types)-1]))
	added := Compile(ics.NewSet(cons...).Closure()).Augment(p)
	if added == 0 {
		t.Fatal("chain augmentation added nothing")
	}
	if s := p.Size(); s > 3*len(types) {
		t.Errorf("augmented size %d on a %d-type chain; want linear", s, len(types))
	}
}

func TestAugmentCyclicStaysShallow(t *testing.T) {
	// On a cyclic required set — satisfiable only by infinite databases —
	// witness chasing would not terminate, so witnesses stay one level
	// deep (the sound under-approximation).
	p := pattern.MustParse("a*[/b, /c]")
	cs := ics.NewSet(ics.Child("a", "b"), ics.Child("b", "c"), ics.Child("c", "a"))
	Compile(cs).Augment(p)
	for _, c := range p.Root.Children {
		if c.Temp && len(c.Children) != 0 {
			t.Error("temporary witness has children despite cyclic constraints")
		}
	}
}

func TestAugmentIdempotent(t *testing.T) {
	p := pattern.MustParse("a*[/b, //c]")
	cs := ics.NewSet(ics.Child("a", "b"), ics.Desc("a", "c"), ics.Co("b", "c")).Closure()
	first := Compile(cs).Augment(p)
	if first == 0 {
		t.Fatal("first augmentation added nothing")
	}
	size := p.Size()
	second := Compile(cs).Augment(p)
	if second != 0 || p.Size() != size {
		t.Errorf("second augmentation added %d nodes", second)
	}
}

func TestAugmentClosedSetCascade(t *testing.T) {
	// b ~ c and c -> d: a node of type b needs a d witness, via the
	// closure-derived b -> d.
	p := pattern.MustParse("a*[/b, /d]")
	cs := ics.NewSet(ics.Co("b", "c"), ics.Child("c", "d"))
	Compile(cs).Augment(p) // Compile closes internally
	var b *pattern.Node
	p.Walk(func(n *pattern.Node) {
		if n.Type == "b" {
			b = n
		}
	})
	found := false
	for _, c := range b.Children {
		if c.Temp && c.Type == "d" && c.Edge == pattern.Child {
			found = true
		}
	}
	if !found {
		t.Errorf("closure-derived witness missing; b children: %v", b.Children)
	}
	// The co-occurrence target c is absent from the query, so the type
	// association b ~ c is not applied.
	if b.HasType("c") {
		t.Error("co-occurrence with absent target applied")
	}
}

func TestAugmentEmptyInputs(t *testing.T) {
	if Compile(ics.NewSet()).Augment(&pattern.Pattern{}) != 0 {
		t.Error("augmenting empty pattern added nodes")
	}
	p := pattern.MustParse("a*")
	if Compile(nil).Augment(p) != 0 {
		t.Error("nil constraint set added nodes")
	}
}

func TestFullChaseTerminatesOnAcyclic(t *testing.T) {
	p := pattern.MustParse("a*")
	cs := ics.NewSet(ics.Child("a", "b"), ics.Child("b", "c"))
	added := FullChase(p, cs, 100)
	if added != 2 {
		t.Errorf("FullChase added %d, want 2 (b under a, c under b)", added)
	}
	if countTemp(p) != 0 {
		t.Error("FullChase marked nodes temporary")
	}
	// Idempotent once saturated.
	if FullChase(p, cs, 100) != 0 {
		t.Error("saturated chase added more")
	}
}

func TestFullChaseBoundedOnCycles(t *testing.T) {
	p := pattern.MustParse("a*")
	cs := ics.NewSet(ics.Desc("a", "b"), ics.Desc("b", "a"))
	added := FullChase(p, cs, 5)
	if added != 5 {
		t.Errorf("cyclic chase added %d nodes in 5 rounds, want 5", added)
	}
}

func TestFullChaseCoOccurrence(t *testing.T) {
	p := pattern.MustParse("a*")
	cs := ics.NewSet(ics.Co("a", "b"), ics.Child("b", "c"))
	FullChase(p, cs, 10)
	if !p.Root.HasType("b") {
		t.Error("co-occurrence type not added")
	}
	if len(p.Root.Children) != 1 || p.Root.Children[0].Type != "c" {
		t.Error("chase did not cascade through the added type")
	}
}
