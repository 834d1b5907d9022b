package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// seriesName matches a full metric series name.
var seriesName = regexp.MustCompile(`^fedwcm_[a-z0-9_]*[a-z0-9]$`)

// docSeries matches a series name in running text.
var docSeries = regexp.MustCompile(`fedwcm_[a-z0-9_]*[a-z0-9]`)

// registeredSeries returns every "fedwcm_…" string literal in the module's
// non-test Go: every series is registered under a literal name.
func registeredSeries(t *testing.T, root string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil && seriesName.MatchString(v) {
					names[v] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestMetricSeriesDocumented keeps docs/API.md's "Metric naming" section and
// the registered series in step: every series the code registers appears
// there under its full name, and every full name listed there is
// registered. The naming-pattern line and the _bucket/_sum/_count series a
// histogram expands into are not names.
func TestMetricSeriesDocumented(t *testing.T) {
	root := filepath.Join("..", "..")
	raw, err := os.ReadFile(filepath.Join(root, "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	in := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "#") {
			in = line == "### Metric naming"
			continue
		}
		if !in || strings.Contains(line, "fedwcm_<") {
			continue
		}
		for _, name := range docSeries.FindAllString(line, -1) {
			documented[name] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal(`docs/API.md has no "### Metric naming" section listing series — renamed?`)
	}
	registered := registeredSeries(t, root)
	for name := range registered {
		if !documented[name] {
			t.Errorf("series %s is registered but docs/API.md's metric section does not list it by full name", name)
		}
	}
	for name := range documented {
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suffix)
		}
		if !registered[name] && !registered[base] {
			t.Errorf("docs/API.md lists series %s, which no code registers", name)
		}
	}
}
