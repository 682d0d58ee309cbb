package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// TestModuleAnalyzersNoRoots checks the fall-back: over a package with no
// hotpath/emitpath annotations, the module analyzer is silent instead of
// guessing roots.
func TestModuleAnalyzersNoRoots(t *testing.T) {
	pkg := loadTestPkg(t, "errstrict")
	mod := NewModule([]*Package{pkg})
	diags, err := RunModuleAnalyzer(AllocFree, mod)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("allocfree over un-annotated package = %d diagnostics, want 0: %v", len(diags), diags)
	}
}

// method finds a named type's method by name in the fixture package.
func method(t *testing.T, pkg *Package, typeName, methodName string) *types.Func {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(typeName)
	if obj == nil {
		t.Fatalf("type %s not found", typeName)
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		t.Fatalf("%s is not a named type", typeName)
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == methodName {
			return m
		}
	}
	t.Fatalf("method %s.%s not found", typeName, methodName)
	return nil
}

// TestHotPathFacts checks the facts store: allocfree exports a HotPathFact
// for every function it visits, naming the root, and functions it never
// reaches carry no fact.
func TestHotPathFacts(t *testing.T) {
	pkg := loadTestPkg(t, "allocfree")
	mod := NewModule([]*Package{pkg})
	if _, err := RunModuleAnalyzer(AllocFree, mod); err != nil {
		t.Fatal(err)
	}

	var fact HotPathFact
	flush := method(t, pkg, "bus", "flush")
	if !mod.ImportObjectFact(flush, &fact) {
		t.Fatal("no HotPathFact on flush, which is reachable from emit")
	}
	if !strings.Contains(fact.Root, "emit") {
		t.Errorf("flush's fact root = %q, want the emit root", fact.Root)
	}

	// impl.m is never called: the walk must not have visited it.
	if mod.ImportObjectFact(method(t, pkg, "impl", "m"), &fact) {
		t.Errorf("uncalled impl.m carries a reachability fact (root %q)", fact.Root)
	}
}

// TestCallGraphShape spot-checks the conservative call graph over the
// allocfree fixture: static method edges resolve, and the graph node for a
// root lists its callees.
func TestCallGraphShape(t *testing.T) {
	pkg := loadTestPkg(t, "allocfree")
	mod := NewModule([]*Package{pkg})
	g := mod.Graph()

	emit := g.Node(method(t, pkg, "bus", "emit"))
	if emit == nil {
		t.Fatal("no call-graph node for bus.emit")
	}
	callees := map[string]bool{}
	dynamic := 0
	for _, site := range emit.Out {
		if site.Dynamic {
			dynamic++
		}
		for _, f := range site.Targets {
			callees[f.Name()] = true
		}
	}
	for _, want := range []string{"flush", "report", "box"} {
		if !callees[want] {
			t.Errorf("emit's callees missing %s; have %v", want, callees)
		}
	}

	roots := g.NodesWithDirective("hotpath")
	if len(roots) != 1 || roots[0] != emit {
		t.Errorf("NodesWithDirective(hotpath) = %v, want exactly bus.emit", roots)
	}
}
