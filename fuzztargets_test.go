package tpq

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzTargetsAreRun keeps the fuzz lists complete: every native fuzz
// target in the module must run in `make fuzz-smoke` and in the nightly
// matrix of .github/workflows/fuzz.yml, each under its own package, so a
// new target cannot silently miss either run.
func TestFuzzTargetsAreRun(t *testing.T) {
	targets := fuzzTargets(t)
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	workflow, err := os.ReadFile(".github/workflows/fuzz.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		smoke := regexp.MustCompile(`-fuzz='\^` + tg.name + `\$\$'.* ` + regexp.QuoteMeta(tg.pkg) + `\n`)
		if !smoke.Match(makefile) {
			t.Errorf("%s (%s) is not run by make fuzz-smoke", tg.name, tg.pkg)
		}
		nightly := regexp.MustCompile(`pkg: ` + regexp.QuoteMeta(tg.pkg) + `, +target: ` + tg.name + ` }`)
		if !nightly.Match(workflow) {
			t.Errorf("%s (%s) is not in the nightly matrix of fuzz.yml", tg.name, tg.pkg)
		}
	}
	if n := len(regexp.MustCompile(`(?m)^\t\$\(GO\) test -fuzz=`).FindAll(makefile, -1)); n != len(targets) {
		t.Errorf("make fuzz-smoke runs %d fuzz targets, the module has %d", n, len(targets))
	}
	if n := len(regexp.MustCompile(`target: Fuzz`).FindAll(workflow, -1)); n != len(targets) {
		t.Errorf("fuzz.yml runs %d fuzz targets, the module has %d", n, len(targets))
	}
}

type fuzzTarget struct{ name, pkg string }

// fuzzTargets lists the module's fuzz functions with their package
// directories, skipping nested modules (perfbench/) and dot directories.
func fuzzTargets(t *testing.T) []fuzzTarget {
	t.Helper()
	var targets []fuzzTarget
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				targets = append(targets, fuzzTarget{name: fn.Name.Name, pkg: "./" + filepath.ToSlash(filepath.Dir(path))})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return targets
}
