package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runShell(t *testing.T, script string, args ...string) (string, string, int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, strings.NewReader(script), &out, &errBuf)
	return out.String(), errBuf.String(), code
}

func TestShellMinimizeSession(t *testing.T) {
	script := `
ic Section => Paragraph
ics
min Articles/Article*[//Paragraph, /Section//Paragraph]
cim OrgUnit*[/Dept/Researcher//DBProject, //Dept//DBProject]
quit
`
	out, stderr, code := runShell(t, script)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		"ok (1 constraints)",
		"Section => Paragraph",
		"Articles/Article*/Section   (5 -> 3 nodes",
		"OrgUnit*/Dept/Researcher//DBProject   (6 -> 4 nodes)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("session output missing %q:\n%s", want, out)
		}
	}
}

func TestShellMinimizeCachesWithinSession(t *testing.T) {
	script := `
min Articles/Article*[//Paragraph, /Section//Paragraph]
min Articles/Article*[//Paragraph, /Section//Paragraph]
ic Section => Paragraph
min Articles/Article*[//Paragraph, /Section//Paragraph]
quit
`
	out, _, code := runShell(t, script)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Count(out, "; cached") != 1 {
		t.Errorf("want exactly one cached repeat (the ic invalidates the session cache):\n%s", out)
	}
}

func TestShellServerHint(t *testing.T) {
	out, _, code := runShell(t, "server\nquit\n")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "tpqd") || !strings.Contains(out, "/minimize") {
		t.Errorf("server hint missing tpqd pointers:\n%s", out)
	}
}

func TestShellEquivalenceAndSat(t *testing.T) {
	script := `
ic Book -> Publisher
eq Book*/Publisher ; Book*
ic Book !-> Index
sat Book*/Index
sat Book*/Title
quit
`
	out, _, code := runShell(t, script)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "equivalent: false; under constraints: true") {
		t.Errorf("eq output wrong:\n%s", out)
	}
	if !strings.Contains(out, "unsatisfiable under the loaded constraints") {
		t.Errorf("sat (unsat case) wrong:\n%s", out)
	}
	if !strings.Contains(out, "satisfiable") {
		t.Errorf("sat (sat case) wrong:\n%s", out)
	}
}

func TestShellXPathAndInfo(t *testing.T) {
	script := `
xpath //OrgUnit[Dept/Researcher[.//DBProject]][.//Dept[.//DBProject]]
info t1*[/t2//t5]
quit
`
	out, _, code := runShell(t, script)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "//OrgUnit[Dept/Researcher//DBProject]   (6 -> 4 nodes)") {
		t.Errorf("xpath output wrong:\n%s", out)
	}
	if !strings.Contains(out, "~t2, a t5") {
		t.Errorf("info output wrong:\n%s", out)
	}
}

func TestShellMatchWithDocument(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	doc := "<Library><Book><Title/></Book><Book/></Library>"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runShell(t, "match Book*/Title\nquit\n", "-xml", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "loaded") || !strings.Contains(out, "1 answer(s)") {
		t.Errorf("match output wrong:\n%s", out)
	}
}

// TestShellMatchUnionCount counts a union whose disjuncts' answers
// overlap: the count is the size of the union, not the sum of the
// disjuncts' counts.
func TestShellMatchUnionCount(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	// Book*[/Title] answers the first two Books, Book*[/Author] the last
	// two: three distinct answers, four by disjunct.
	doc := "<Library><Book><Title/></Book><Book><Title/><Author/></Book><Book><Author/></Book></Library>"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, code := runShell(t, "match Book*[/Title]\nmatch Book*[/Author]\nmatch Book*[/or(Title, Author)]\nquit\n", "-xml", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"2 answer(s)\n", "2 answer(s)\n", "3 answer(s)\n"} {
		i := strings.Index(out, want)
		if i < 0 {
			t.Fatalf("output missing %q in order:\n%s", want, out)
		}
		out = out[i+len(want):]
	}
}

func TestShellConstraintFileAndErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ics.txt")
	if err := os.WriteFile(path, []byte("# comment\nBook -> Title\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runShell(t, "ics\nbogus cmd\nic nonsense\nmatch a*\neq a*\nquit\n", "-f", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"loaded 1 constraints",
		"unknown command",
		"error:",
		"no document loaded",
		"usage: eq",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Startup failures.
	if _, _, code := runShell(t, "", "-xml", "/nonexistent.xml"); code != 1 {
		t.Error("missing xml accepted")
	}
	if _, _, code := runShell(t, "", "-f", "/nonexistent.txt"); code != 1 {
		t.Error("missing constraint file accepted")
	}
}
