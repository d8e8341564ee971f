package ics

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

// AddFile reads the constraint file at path into s: one constraint per
// line in Parse's syntax; blank lines and lines starting with # are
// skipped. A malformed line fails the read with an error naming
// path:line. The command-line tools (tpqd, tpqmin, tpqshell) all load
// their -f files through it.
func (s *Set) AddFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		c, err := Parse(text)
		if err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		s.Add(c)
	}
	return sc.Err()
}
