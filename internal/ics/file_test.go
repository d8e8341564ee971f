package ics

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAddFile reads a constraint file with comments and blank lines, and
// checks that a malformed line is reported as path:line.
func TestAddFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	if err := os.WriteFile(good, []byte("# publishing\n\nBook -> Title\n  Section => Paragraph  \n#Book ~ Item\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSet(Co("Book", "Item"))
	if err := s.AddFile(good); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || !s.Has(Child("Book", "Title")) || !s.Has(Desc("Section", "Paragraph")) {
		t.Errorf("AddFile read %s, want the flag constraint plus two from the file", s)
	}

	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("Book -> Title\n\nBook Title\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := NewSet().AddFile(bad)
	if err == nil || !strings.Contains(err.Error(), bad+":3:") {
		t.Errorf("malformed line 3: err = %v, want it to name %s:3", err, bad)
	}
	if err := NewSet().AddFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file accepted")
	}
}
