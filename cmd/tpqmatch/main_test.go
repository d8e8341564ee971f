package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const doc = `<Library>
  <Book><Title/><Author><LastName/></Author></Book>
  <Book><Title/></Book>
</Library>`

func runCmd(t *testing.T, stdin string, args ...string) (string, string, int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errBuf)
	return out.String(), errBuf.String(), code
}

func TestMatchFromStdin(t *testing.T) {
	out, stderr, code := runCmd(t, doc, "Book*/Title")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "2 answer(s)") {
		t.Errorf("output = %q", out)
	}
	if !strings.Contains(out, "/Library/Book") {
		t.Errorf("paths missing: %q", out)
	}
}

func TestMatchFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runCmd(t, "", "-xml", path, "-count", "Book*//LastName")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.TrimSpace(out) != "1" {
		t.Errorf("count = %q", out)
	}
}

func TestMatchXPathQuery(t *testing.T) {
	out, _, code := runCmd(t, doc, "-xpath", "-count", "//Book[Title]")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.TrimSpace(out) != "2" {
		t.Errorf("count = %q", out)
	}
}

func TestMatchMinimize(t *testing.T) {
	out, _, code := runCmd(t, doc,
		"-minimize", "-c", "Book -> Title",
		"Book*[/Title, /Title]")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "# minimized 3 -> 1 nodes") {
		t.Errorf("minimization note missing: %q", out)
	}
	if !strings.Contains(out, "2 answer(s)") {
		t.Errorf("answers wrong: %q", out)
	}
}

func TestMatchErrors(t *testing.T) {
	if _, _, code := runCmd(t, doc); code != 2 {
		t.Error("missing query accepted")
	}
	if _, _, code := runCmd(t, doc, "not a query ["); code != 1 {
		t.Error("bad query accepted")
	}
	if _, _, code := runCmd(t, "<not-xml", "a*"); code != 1 {
		t.Error("bad xml accepted")
	}
	if _, _, code := runCmd(t, "", "-xml", "/nonexistent.xml", "a*"); code != 1 {
		t.Error("missing file accepted")
	}
	if _, _, code := runCmd(t, doc, "-minimize", "-c", "garbage", "a*"); code != 1 {
		t.Error("bad constraint accepted")
	}
}

func TestMatchUnion(t *testing.T) {
	// The two disjuncts overlap on the first Book (it has both a Title
	// and an Author); the union must deduplicate it.
	out, stderr, code := runCmd(t, doc, "or(Book*[/Title], Book*[/Author])")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "2 answer(s)") {
		t.Errorf("union answers = %q", out)
	}

	out, _, code = runCmd(t, doc, "-count", "or(Book/Title*, Book/Author*)")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.TrimSpace(out) != "3" {
		t.Errorf("union count = %q", out)
	}
}

// TestMatchCountLimit pins -count under -limit: the printed count is
// capped at the limit, for a single query and for a union, and a limit
// above the answer count leaves it alone.
func TestMatchCountLimit(t *testing.T) {
	for _, c := range []struct {
		query, limit, want string
	}{
		{"Book*", "1", "1"},
		{"or(Book/Title*, Book/Author*)", "2", "2"},
		{"or(Book/Title*, Book/Author*)", "3", "3"},
		{"or(Book/Title*, Book/Author*)", "5", "3"},
	} {
		out, stderr, code := runCmd(t, doc, "-count", "-limit", c.limit, c.query)
		if code != 0 {
			t.Fatalf("%s -limit %s: exit %d, stderr %q", c.query, c.limit, code, stderr)
		}
		if got := strings.TrimSpace(out); got != c.want {
			t.Errorf("%s -limit %s: count %q, want %q", c.query, c.limit, got, c.want)
		}
	}
}

func TestMatchUnionXPath(t *testing.T) {
	out, _, code := runCmd(t, doc, "-xpath", "-count", "//Book[Title] | //Author")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.TrimSpace(out) != "3" {
		t.Errorf("count = %q", out)
	}
}

func TestMatchUnionMinimize(t *testing.T) {
	// Book*[/Title] absorbs Book*[/Title, /Title]; the union collapses to
	// one disjunct before evaluating.
	out, _, code := runCmd(t, doc,
		"-minimize", "or(Book*[/Title, /Title], Book*[/Title])")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "1 disjunct(s), 1 absorbed") {
		t.Errorf("minimization note missing: %q", out)
	}
	if !strings.Contains(out, "2 answer(s)") {
		t.Errorf("answers wrong: %q", out)
	}
}
