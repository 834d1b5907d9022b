package fedwcm

import (
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

// referenceDocs are the documents whose code references must resolve.
// bench/README.md is left out: bench/ is the frozen benchmark harness.
var referenceDocs = []string{"DESIGN.md", "README.md", "docs/API.md"}

// codeSpan matches an inline code span.
var codeSpan = regexp.MustCompile("`([^`\n]+)`")

// symbolRef matches `pkg.Symbol`, `pkg.Type.Member` and `pkg.Func(args)`.
var symbolRef = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?(?:\(.*\))?$`)

// declarations are the names a package's non-test files declare: top-level
// identifiers, and the methods and struct fields of each named type.
type declarations struct {
	top     map[string]bool
	members map[string]map[string]bool // type name → method and field names
}

func (d declarations) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
}

// parseDeclarations reads the declarations of the package in dir.
func parseDeclarations(t *testing.T, dir string) declarations {
	t.Helper()
	d := declarations{top: map[string]bool{}, members: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv != nil {
					d.member(recvName(decl), decl.Name.Name)
				} else {
					d.top[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									d.member(spec.Name.Name, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					}
				}
			}
		}
	}
	return d
}

// TestDocReferencesResolve keeps the prose honest about the code: in
// DESIGN.md, README.md and docs/API.md every backticked `pkg.Symbol` whose
// pkg names a package under internal/ or cmd/ must be declared by that
// package's non-test files (and `pkg.Type.Member` must be a method or field
// of that type), and every backticked repo path must exist, globs expanded.
// Something that is gone is written without backticks.
func TestDocReferencesResolve(t *testing.T) {
	pkgDirs := map[string]string{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if gos, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gos) > 0 {
				pkgDirs[d.Name()] = path
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var topDirs []string
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			topDirs = append(topDirs, e.Name()+"/")
		}
	}
	isRepoPath := func(span string) bool {
		if strings.ContainsAny(span, " <…") {
			return false
		}
		for _, d := range topDirs {
			if strings.HasPrefix(span, d) {
				return true
			}
		}
		return false
	}

	decls := map[string]declarations{}
	for _, doc := range referenceDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				span := m[1]
				if isRepoPath(span) {
					if matches, err := filepath.Glob(strings.TrimSuffix(span, "/")); err != nil || len(matches) == 0 {
						t.Errorf("%s:%d: `%s` names no file or directory in the repo", doc, i+1, span)
					}
					continue
				}
				ref := symbolRef.FindStringSubmatch(span)
				if ref == nil {
					continue
				}
				dir, ok := pkgDirs[ref[1]]
				if !ok {
					continue
				}
				d, ok := decls[dir]
				if !ok {
					d = parseDeclarations(t, dir)
					decls[dir] = d
				}
				if ref[3] == "" {
					if !d.top[ref[2]] && !anyMember(d, ref[2]) {
						t.Errorf("%s:%d: `%s`: %s declares no %s", doc, i+1, span, dir, ref[2])
					}
				} else if !d.members[ref[2]][ref[3]] {
					t.Errorf("%s:%d: `%s`: %s declares no %s.%s", doc, i+1, span, dir, ref[2], ref[3])
				}
			}
		}
	}
}

// anyMember reports whether some type of the package has a method or
// field called name: prose writes `store.Put` for the method of the
// package's one store type.
func anyMember(d declarations, name string) bool {
	for _, members := range d.members {
		if members[name] {
			return true
		}
	}
	return false
}
