package oracle

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProductionNeverImportsOracle walks the non-test imports of every
// production entry point and fails if this package is reachable from
// one: the references are for tests, difffuzz and the ablation figures,
// never for the serving path or the CLIs. It also fails if this package
// reaches internal/match (and so its streaming engine), the kernels the
// match references check.
func TestProductionNeverImportsOracle(t *testing.T) {
	const self = "tpq/internal/oracle"
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	entries := []string{
		"tpq", "tpq/cmd/tpqd", "tpq/cmd/tpqmin", "tpq/cmd/tpqshell", "tpq/cmd/tpqmatch",
		"tpq/cmd/tpqload", "tpq/cmd/tpqgen", "tpq/internal/service", "tpq/internal/engine",
	}
	for _, entry := range entries {
		if path := importPath(t, root, entry, self); path != nil {
			t.Errorf("%s reaches %s: %s", entry, self, strings.Join(path, " -> "))
		}
	}
	// The walk must see through package boundaries, or the check above
	// passes vacuously.
	if importPath(t, root, "tpq/internal/difffuzz", self) == nil {
		t.Error("import walk did not find the oracle from internal/difffuzz, which imports it")
	}
	// The match references judge the match kernels, so they must not
	// run on them.
	if path := importPath(t, root, self, "tpq/internal/match"); path != nil {
		t.Errorf("%s reaches the kernels it checks: %s", self, strings.Join(path, " -> "))
	}
}

// importPath returns the chain of in-module imports leading from package
// from to package to, following only non-test files, or nil if there is
// none. Module packages map to directories under root.
func importPath(t *testing.T, root, from, to string) []string {
	t.Helper()
	parent := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if pkg == to {
			var path []string
			for p := pkg; p != ""; p = parent[p] {
				path = append([]string{p}, path...)
			}
			return path
		}
		for _, imp := range moduleImports(t, filepath.Join(root, strings.TrimPrefix(strings.TrimPrefix(pkg, "tpq"), "/"))) {
			if _, seen := parent[imp]; !seen {
				parent[imp] = pkg
				queue = append(queue, imp)
			}
		}
	}
	return nil
}

// moduleImports lists the in-module packages the non-test Go files of dir
// import.
func moduleImports(t *testing.T, dir string) []string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		name := f.Name()
		if f.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if p == "tpq" || strings.HasPrefix(p, "tpq/") {
				out = append(out, p)
			}
		}
	}
	return out
}
