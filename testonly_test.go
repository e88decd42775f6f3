package pseudohoneypot

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// testSeams are the internal/ functions and methods that production code
// never reaches but that stay in production files on purpose, keyed as
// "<path under internal/>.[<Type>.]<Name>". Each entry says why. A seam
// that production starts to use, or that is deleted, must leave this map:
// the gate fails on a stale entry.
var testSeams = map[string]string{
	"core.Monitor.AccrueHours":       "the static-deployment ablation benchmark holds one node set for a whole run",
	"core.OnlineDetector.WindowSize": "the root recovery tests compare a recovered window with an uninterrupted one",
	"metrics.Histogram.Count":        "tests in several packages reconcile observation counts against a private registry",
	"minhash.Index.AppendCandidates": "the read-only probe that may run concurrently: the tests hold Join, which the labeler calls, to it",
	"simclock.Simulated.Advance":     "tests step a simulated clock by a duration; production sets instants",
	"twitterapi.Client.SetMetrics":   "isolated-registry hook: tests keep a client's series off metrics.Default()",
	"twitterapi.WithMetrics":         "isolated-registry hook: tests keep a server's series off metrics.Default()",
}

// TestNoTestOnlyProductionCode keeps internal/ free of code that only
// tests run. It type-checks the non-test files of this module and of the
// bench/ module (whose driver calls internal packages directly), takes
// every declaration outside internal/ as a root, and follows references
// transitively: a function that only unreached functions call is itself
// unreached. A method also counts as reached when any interface type in
// the checked code, or exported by a package it imports, names it, since
// a call through an interface does not say which concrete method runs.
// Every internal/ function or method left unreached fails the test,
// unless testSeams names it. A package that only tests import is never
// loaded, so it is exempt as a whole.
func TestNoTestOnlyProductionCode(t *testing.T) {
	l := loadModules(t)
	unreached := l.unreached()
	var findings []string
	seen := map[string]bool{}
	for _, d := range unreached {
		if _, ok := testSeams[d.key]; ok {
			seen[d.key] = true
			continue
		}
		findings = append(findings, fmt.Sprintf("%s %s", d.pos, d.key))
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Errorf("only tests reach %s", f)
	}
	if len(findings) > 0 {
		t.Logf("delete each, move it into test code, or give it a production caller; " +
			"a deliberate test seam goes into testSeams with its reason")
	}
	for key := range testSeams {
		if !seen[key] {
			t.Errorf("testSeams entry %q names no unreached internal/ function; drop it", key)
		}
	}
}

// TestNoGobInProductionCode keeps encoding/gob out of every byte boundary
// the program persists or sends: WAL records, checkpoint sections and the
// proc extract wire use package codec, whose layout is fixed byte for
// byte, encodes in one pass without reflection, and writes maps in a fixed
// order. It fails on any non-test file of the root module that imports
// encoding/gob, and on any in the packages that own those boundaries
// (codecOnly) that imports encoding/json or tags a struct field, so no
// second serialization grows back beside the codec; the bench/ module is a
// measuring harness and exempt.
func TestNoGobInProductionCode(t *testing.T) {
	l := loadModules(t)
	bench := l.mods[1].path
	codecOnly := map[string]bool{} // import path → loaded
	for _, pkg := range []string{"shard", "store", "codec", "label"} {
		codecOnly[l.mods[0].path+"/internal/"+pkg] = false
	}
	for _, p := range l.checked {
		path := p.pkg.Path()
		if path == bench || strings.HasPrefix(path, bench+"/") {
			continue
		}
		_, noJSON := codecOnly[path]
		if noJSON {
			codecOnly[path] = true
		}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/gob"` || (noJSON && imp.Path.Value == `"encoding/json"`) {
					t.Errorf("%s imports %s", l.fset.Position(imp.Pos()), imp.Path.Value)
				}
			}
			if !noJSON {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.Field); ok && fd.Tag != nil {
					t.Errorf("%s: struct tag %s", l.fset.Position(fd.Tag.Pos()), fd.Tag.Value)
				}
				return true
			})
		}
	}
	for path, loaded := range codecOnly {
		if !loaded {
			t.Errorf("%s was not loaded; the encoding/json check did not run on it", path)
		}
	}
}

// loadModules type-checks the non-test files of the root module and of
// bench/, rooted at every package outside internal/ (see
// TestNoTestOnlyProductionCode).
func loadModules(t *testing.T) *declLoader {
	t.Helper()
	modDir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newDeclLoader(modDir)
	for _, m := range l.mods {
		dirs, err := rootDirs(m.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range dirs {
			rel, _ := filepath.Rel(m.dir, dir)
			path := m.path
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			if _, err := l.Import(path); err != nil {
				t.Fatalf("load %s: %v", path, err)
			}
		}
	}
	if len(l.checked) < 30 {
		t.Fatalf("checked only %d packages; is the test rooted at the module?", len(l.checked))
	}
	return l
}

// rootDirs lists the package directories of root's module outside
// internal/, as the go tool sees them: testdata, dot and underscore
// directories and nested modules are skipped. Internal packages are
// loaded only when a root imports them.
func rootDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || name == "internal" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if _, err := build.Default.ImportDir(path, 0); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

type module struct{ path, dir string }

// checkedPkg is one package of a checked module, with the syntax and type
// information the reference graph is built from.
type checkedPkg struct {
	pkg      *types.Package
	files    []*ast.File
	info     *types.Info
	internal bool
}

// declLoader is a types.Importer over source: the checked modules'
// packages are type-checked in full, everything else (the standard
// library) without function bodies, since only its exported API matters.
type declLoader struct {
	fset    *token.FileSet
	ctxt    build.Context
	mods    []module // the root module and bench/
	pkgs    map[string]*types.Package
	checked []*checkedPkg
}

func newDeclLoader(modDir string) *declLoader {
	ctxt := build.Default
	ctxt.CgoEnabled = false // the pure-Go files of net, os/user, ...
	root := module{path: "github.com/pseudo-honeypot/pseudohoneypot", dir: modDir}
	return &declLoader{
		fset: token.NewFileSet(),
		ctxt: ctxt,
		mods: []module{root, {path: root.path + "/bench", dir: filepath.Join(modDir, "bench")}},
		pkgs: map[string]*types.Package{"unsafe": types.Unsafe},
	}
}

// dir resolves an import path to its source directory and says whether it
// belongs to a checked module.
func (l *declLoader) dir(path string) (string, bool) {
	for i := len(l.mods) - 1; i >= 0; i-- { // bench/ nests inside the root module's path
		m := l.mods[i]
		if path == m.path {
			return m.dir, true
		}
		if rest, ok := strings.CutPrefix(path, m.path+"/"); ok {
			return filepath.Join(m.dir, filepath.FromSlash(rest)), true
		}
	}
	std := filepath.Join(l.ctxt.GOROOT, "src", filepath.FromSlash(path))
	if _, err := os.Stat(std); err != nil {
		std = filepath.Join(l.ctxt.GOROOT, "src", "vendor", filepath.FromSlash(path))
	}
	return std, false
}

func (l *declLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir, ours := l.dir(path)
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: !ours,
		FakeImportC:      true,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
	}
	var info *types.Info
	if ours {
		info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
	} else {
		conf.Error = func(error) {} // toolchain internals; only the exported API is used
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if ours && err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, errors.New("no package")
	}
	l.pkgs[path] = pkg
	if ours {
		l.checked = append(l.checked, &checkedPkg{
			pkg: pkg, files: files, info: info,
			internal: strings.Contains(path+"/", "/internal/"),
		})
	}
	return pkg, nil
}

// decl is one internal/ function or method declaration.
type decl struct{ key, pos string }

// unreached returns every internal/ function and method that no root
// reaches, following references transitively.
func (l *declLoader) unreached() []decl {
	ifaceMethods := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	refs := map[types.Object][]types.Object{}
	var roots []types.Object
	funcs := map[*types.Func]decl{}
	for _, cp := range l.checked {
		for _, imp := range cp.pkg.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
		for _, obj := range cp.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, tv := range cp.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		uses := func(n ast.Node) []types.Object {
			var out []types.Object
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := cp.info.Uses[id]; obj != nil {
						if fn, ok := obj.(*types.Func); ok {
							obj = fn.Origin()
						}
						out = append(out, obj)
					}
				}
				return true
			})
			return out
		}
		for _, f := range cp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := cp.info.Defs[d.Name].(*types.Func)
					refs[fn] = uses(d)
					if !cp.internal || (d.Recv == nil && d.Name.Name == "init") {
						roots = append(roots, fn)
					} else {
						funcs[fn] = l.declOf(fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, uses(d)...) // initializers run at start-up
					}
				}
			}
		}
	}
	for fn := range funcs {
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil && ifaceMethods[fn.Name()] {
			roots = append(roots, fn)
		}
	}
	reached := map[types.Object]bool{}
	for len(roots) > 0 {
		obj := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		roots = append(roots, refs[obj]...)
	}
	var out []decl
	for fn, d := range funcs {
		if !reached[fn] {
			out = append(out, d)
		}
	}
	return out
}

// declOf names fn as "<path under internal/>.[<Type>.]<Name>" at its
// module-relative file and line.
func (l *declLoader) declOf(fn *types.Func) decl {
	key := strings.TrimPrefix(fn.Pkg().Path(), l.mods[0].path+"/internal/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		key += t.(*types.Named).Obj().Name() + "."
	}
	pos := l.fset.Position(fn.Pos())
	file, err := filepath.Rel(l.mods[0].dir, pos.Filename)
	if err != nil {
		file = pos.Filename
	}
	return decl{key: key + fn.Name(), pos: fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line)}
}
