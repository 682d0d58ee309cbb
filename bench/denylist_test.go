package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// Later changes may not edit this directory, and the roadmap intends to delete
// engine modes. The benchmark therefore must not name anything that is slated
// to go: these identifiers, and the barrier package.
var deniedIdents = []string{
	"SetFastForward", "SetCycleBatching", "SetMemSharding", "SetFastIssue", "SetSMShards", "SMShards",
	"ShardStats", "BatchBound", "LookAhead", "PortPush", "AddPushed", "NextActiveCycle", "NextSampleCycle",
	"AccumulateSpan", "NextEventAt", "FastForward",
}

const deniedPrefix = "AutoShards"

func TestStableAPISurfaceOnly(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	denied := map[string]bool{}
	for _, id := range deniedIdents {
		denied[id] = true
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); strings.HasSuffix(path, "internal/barrier") {
					t.Errorf("%s imports %s", name, path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && (denied[id.Name] || strings.HasPrefix(id.Name, deniedPrefix)) {
					t.Errorf("%s: identifier %s is not part of the stable API surface", fset.Position(id.Pos()), id.Name)
				}
				return true
			})
		}
	}
	if files < 5 {
		t.Fatalf("parsed %d files; the test is not looking at the benchmark", files)
	}
}
