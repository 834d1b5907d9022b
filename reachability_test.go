package fedwcm

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "fedwcm"

// stdlibMethods are the method names of the standard-library interfaces the
// tree satisfies (fmt.Stringer, error, http.Handler, http.Flusher,
// http.ResponseWriter, sort.Interface, heap.Interface, json.Marshaler and
// json.Unmarshaler). A method with one of these names is called through
// the interface, so no identifier in the module names it.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "Flush": true,
	"WriteHeader": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// allowReasons are the only two reasons an export may stay without a
// production caller: the tests of several packages use it as an oracle (so
// no single package's _test.go can hold it), or it is a seam tests flip.
var allowReasons = []string{"test oracle used by tests of ≥ 2 packages", "test seam"}

// modulePackage is one type-checked package of the module, built from its
// non-test files only.
type modulePackage struct {
	path  string
	name  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// moduleLoader type-checks the module's packages from source. It is its own
// importer for fedwcm/... paths, so every package sees the same
// *types.Package of its module dependencies; the standard library comes
// from the source importer.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string
	pkgs map[string]*modulePackage
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *moduleLoader) load(path string) (*modulePackage, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.Default.ImportDir(l.dirs[path], 0)
	if err != nil {
		return nil, err
	}
	p := &modulePackage{path: path, name: bp.Name, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// loadModule type-checks every package of the module rooted at the working
// directory, skipping hidden directories and testdata.
func loadModule(t *testing.T) (*token.FileSet, []*modulePackage) {
	t.Helper()
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string]string{},
		pkgs: map[string]*modulePackage{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		l.dirs[modulePath+"/"+filepath.ToSlash(path)] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*modulePackage
	for path := range l.dirs {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	return fset, pkgs
}

// export is one exported declaration of a non-main package.
type export struct {
	key    string // "internal/tensor.Equal", "internal/store.Store.Get"
	pos    token.Pos
	method string     // method name, "" for a func, type, var or const
	own    []ast.Node // declarations whose own references do not count
}

// recvName returns the name of a method's receiver type.
func recvName(fn *ast.FuncDecl) string {
	x := fn.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			panic(fmt.Sprintf("unexpected receiver %T", x))
		}
	}
}

// exports lists every exported func, method, type, var and const the
// package declares. A declaration's references to itself — a recursive
// call, a type named in its own methods — are not a use.
func exports(p *modulePackage) []*export {
	rel := strings.TrimPrefix(p.path, modulePath+"/")
	var out []*export
	typeExports := map[string]*export{}
	var methods []*ast.FuncDecl
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					methods = append(methods, d)
				}
				if !d.Name.IsExported() {
					continue
				}
				e := &export{key: rel + "." + d.Name.Name, pos: d.Name.Pos(), own: []ast.Node{d}}
				if d.Recv != nil {
					e.method = d.Name.Name
					e.key = rel + "." + recvName(d) + "." + e.method
				}
				out = append(out, e)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							e := &export{key: rel + "." + s.Name.Name, pos: s.Name.Pos(), own: []ast.Node{s}}
							typeExports[s.Name.Name] = e
							out = append(out, e)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out = append(out, &export{key: rel + "." + n.Name, pos: n.Pos(), own: []ast.Node{s}})
							}
						}
					}
				}
			}
		}
	}
	for _, m := range methods {
		if e, ok := typeExports[recvName(m)]; ok {
			e.own = append(e.own, m)
		}
	}
	return out
}

// interfaceMethods returns the method names of every interface type the
// module's non-test code spells, named or literal.
func interfaceMethods(pkgs []*modulePackage) map[string]bool {
	names := map[string]bool{}
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			if !tv.IsType() {
				continue
			}
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					names[it.Method(i).Name()] = true
				}
			}
		}
	}
	return names
}

// readAllowlist parses testdata/exports.allow: one "<key> <reason>" per
// line, '#' comments and blank lines ignored.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "exports.allow"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, _ := strings.Cut(text, " ")
		reason = strings.TrimSpace(reason)
		valid := false
		for _, r := range allowReasons {
			if rest, ok := strings.CutPrefix(reason, r+": "); ok && strings.TrimSpace(rest) != "" {
				valid = true
			}
		}
		if !valid {
			t.Errorf("exports.allow:%d: %s: the reason must read %q or %q, then \": \" and the callers", line, key, allowReasons[0]+": …", allowReasons[1]+": …")
		}
		if _, dup := allow[key]; dup {
			t.Errorf("exports.allow:%d: %s listed twice", line, key)
		}
		allow[key] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// TestNoUnreachableExports fails on any exported func, method, type, var or
// const of a non-main package that no non-test file of the module
// references. cmd/, examples/ and bench/ count as callers; tests do not. A
// method is exempt when its name is a method of an interface the module
// declares or of a standard-library interface it satisfies, since interface
// calls name the interface's method, not the concrete one. The only other
// way to stay exported is an entry in testdata/exports.allow, and an entry
// that is no longer needed fails too, so the list only shrinks.
func TestNoUnreachableExports(t *testing.T) {
	fset, pkgs := loadModule(t)

	// used records the declaration position of everything a non-test file
	// names, with the identifiers that name it. Uses of a method of a
	// generic type resolve to an instantiated copy of the method, which
	// keeps the declaration's position but not its identity.
	used := map[token.Pos][]token.Pos{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			if obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), modulePath+"/") {
				used[obj.Pos()] = append(used[obj.Pos()], id.Pos())
			}
		}
	}
	// firstUse returns the first reference to e from outside its own
	// declarations.
	firstUse := func(e *export) (token.Pos, bool) {
	uses:
		for _, at := range used[e.pos] {
			for _, n := range e.own {
				if n.Pos() <= at && at < n.End() {
					continue uses
				}
			}
			return at, true
		}
		return token.NoPos, false
	}

	viaInterface := interfaceMethods(pkgs)
	allow := readAllowlist(t)
	declared := map[string]bool{}
	var dead []string
	for _, p := range pkgs {
		if p.name == "main" {
			continue
		}
		for _, e := range exports(p) {
			declared[e.key] = true
			if e.method != "" && (viaInterface[e.method] || stdlibMethods[e.method]) {
				continue
			}
			if at, ok := firstUse(e); ok {
				if _, ok := allow[e.key]; ok {
					t.Errorf("exports.allow lists %s, but %s reaches it now: drop the entry", e.key, fset.Position(at))
				}
				continue
			}
			if _, ok := allow[e.key]; !ok {
				dead = append(dead, fmt.Sprintf("%s (%s)", e.key, fset.Position(e.pos)))
			}
		}
	}
	for key := range allow {
		if !declared[key] {
			t.Errorf("exports.allow lists %s, which the module no longer declares: drop the entry", key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test file reaches %s: delete it, move it into a _test.go file, or unexport it", d)
	}
}
