package pseudohoneypot

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// TestOneWorldView keeps the sniffer's view of accounts behind its source:
// it fails when non-test code of this package uses a Simulation's world or
// engine field anywhere but in NewSimulation, Simulation's own methods and
// NewTwitterSource — the one adapter every other reader goes through. A
// Sniffer that read the world directly would see accounts a wire or replay
// source never shows it, and would make recovery and labeling differ by
// source.
func TestOneWorldView(t *testing.T) {
	modDir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newDeclLoader(modDir)
	pkg, err := l.Import(l.mods[0].path)
	if err != nil {
		t.Fatal(err)
	}
	var cp *checkedPkg
	for _, c := range l.checked {
		if c.pkg == pkg {
			cp = c
		}
	}
	simType := pkg.Scope().Lookup("Simulation").Type()
	sim, ok := simType.Underlying().(*types.Struct)
	if cp == nil || !ok {
		t.Fatal("root package or its Simulation struct not loaded")
	}
	fields := map[types.Object]bool{}
	for i := 0; i < sim.NumFields(); i++ {
		if f := sim.Field(i); f.Name() == "world" || f.Name() == "engine" {
			fields[f] = true
		}
	}
	if len(fields) != 2 {
		t.Fatalf("Simulation has %d of the world and engine fields", len(fields))
	}
	exempt := func(d ast.Decl) bool {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			return false
		}
		if fd.Recv == nil {
			return fd.Name.Name == "NewSimulation" || fd.Name.Name == "NewTwitterSource"
		}
		recv := cp.info.Types[fd.Recv.List[0].Type].Type
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		return types.Identical(recv, simType)
	}
	var findings []string
	for _, f := range cp.files {
		for _, d := range f.Decls {
			if exempt(d) {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && fields[cp.info.Uses[id]] {
					pos := l.fset.Position(id.Pos())
					findings = append(findings, fmt.Sprintf("%s:%d: Simulation.%s",
						filepath.Base(pos.Filename), pos.Line, id.Name))
				}
				return true
			})
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Errorf("%s read outside the source; resolve accounts through Sniffer.src", f)
	}
}
