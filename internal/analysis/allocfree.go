package analysis

import (
	"go/ast"
	"go/types"
)

// AllocFree turns the repo's opaque "pinned at N allocs/op" runtime tests
// into positioned diagnostics: every function transitively reachable from
// an //eqlint:hotpath or //eqlint:emitpath annotation is checked for
// allocating constructs — make/new, append without capacity evidence,
// slice/map composite literals, &T{} heap literals, closures, fmt calls,
// string concatenation/conversion, map assignment, and implicit interface
// boxing at call sites. Arguments of panic(...) are exempt (the crash path
// may format freely), and code dominated by a constant-false condition
// (release builds of the eqdebug invariant layer) is skipped.
//
// The walk descends static and devirtualized-interface edges only; calls
// through func values are not followed (the runtime alloc pins remain the
// backstop for those, see DESIGN.md §9). Amortized allocations that are
// deliberate — pooled slices that grow to a steady-state capacity — are
// recorded in .eqlint-baseline.json rather than blessed inline, so the
// debt list stays explicit and shrink-only.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: `flag allocating constructs in functions reachable from hot-path annotations

Starting from every //eqlint:hotpath and //eqlint:emitpath function, walks
the module call graph and reports each construct the Go compiler must (or
almost always will) heap-allocate, naming the offending line instead of an
opaque allocation count.`,
	RunModule: runAllocFree,
}

// HotPathFact marks a function as reachable from a hot-path root; exported
// for each function allocfree visits.
type HotPathFact struct {
	// Root is the display name of the annotated function the walk started
	// from.
	Root string
}

// AFact marks HotPathFact as a Fact.
func (*HotPathFact) AFact() {}

func runAllocFree(pass *ModulePass) error {
	g := pass.Module.Graph()
	var roots []*CallNode
	roots = append(roots, g.NodesWithDirective("hotpath")...)
	roots = append(roots, g.NodesWithDirective("emitpath")...)
	if len(roots) == 0 {
		return nil
	}

	rootOf := map[*CallNode]string{}
	var queue []*CallNode
	for _, r := range roots {
		if _, ok := rootOf[r]; ok {
			continue
		}
		rootOf[r] = funcDisplayName(r.Fn)
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		root := rootOf[n]
		pass.ExportObjectFact(n.Fn, &HotPathFact{Root: root})
		checkAllocations(pass, n, root)
		for _, site := range n.Out {
			for _, t := range site.Targets {
				tn := g.Node(t)
				if tn == nil {
					continue
				}
				if _, ok := rootOf[tn]; !ok {
					rootOf[tn] = root
					queue = append(queue, tn)
				}
			}
		}
	}
	return nil
}

// checkAllocations walks one hot-path function and reports allocating
// constructs.
func checkAllocations(pass *ModulePass, n *CallNode, root string) {
	info := n.Pkg.Info
	where := "hot path via " + funcDisplayName(n.Fn) + " <- " + root
	if funcDisplayName(n.Fn) == root {
		where = "hot path root " + root
	}
	inspectLive(info, n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			return checkCallAlloc(pass, info, x, where)
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(x.Pos(), "slice literal allocates (%s)", where)
			case *types.Map:
				pass.Reportf(x.Pos(), "map literal allocates (%s)", where)
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					pass.Reportf(x.Pos(), "&composite literal heap-allocates (%s)", where)
					return false
				}
			}
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "closure allocates (%s)", where)
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if _, isMap := info.TypeOf(idx.X).Underlying().(*types.Map); isMap {
						pass.Reportf(lhs.Pos(), "map assignment may allocate (%s)", where)
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op.String() == "+" {
				if b, ok := info.TypeOf(x).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					if tv, isConst := info.Types[x]; !isConst || tv.Value == nil {
						pass.Reportf(x.Pos(), "string concatenation allocates (%s)", where)
					}
				}
			}
		}
		return true
	})
}

// checkCallAlloc handles one call expression: allocating builtins,
// string/byte conversions, fmt calls, and implicit interface boxing of
// arguments. It returns false to prune the walk below panic(...).
func checkCallAlloc(pass *ModulePass, info *types.Info, call *ast.CallExpr, where string) bool {
	// Conversions in call syntax.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && conversionAllocates(tv.Type, info.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "conversion allocates (%s)", where)
		}
		return true
	}
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "panic":
				// Crash path: formatting the death message is fine.
				return false
			case "make":
				pass.Reportf(call.Pos(), "make allocates (%s)", where)
			case "new":
				pass.Reportf(call.Pos(), "new allocates (%s)", where)
			case "append":
				if len(call.Args) > 0 && !appendCapacityEvidence(call.Args[0]) {
					pass.Reportf(call.Pos(), "append without capacity evidence may allocate (%s)", where)
				}
			}
			return true
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s allocates (%s)", obj.Name(), where)
			return true
		}
	}
	// Implicit interface boxing of arguments to a statically resolved
	// callee.
	callee := staticCallee(info, call)
	if callee == nil {
		return true
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxingAllocates(pt, info.TypeOf(arg)) && !isNilLiteral(info, arg) {
			pass.Reportf(arg.Pos(), "implicit conversion to %s boxes the argument (%s)", types.TypeString(pt, nil), where)
		}
	}
	return true
}

// staticCallee resolves the single static target of a call, or nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// appendCapacityEvidence reports whether an append's first argument shows
// in-place reuse: the canonical x[:0] reset form.
func appendCapacityEvidence(arg ast.Expr) bool {
	s, ok := ast.Unparen(arg).(*ast.SliceExpr)
	if !ok || s.Slice3 {
		return false
	}
	if s.Low != nil && !isZeroIntLit(s.Low) {
		return false
	}
	return s.High != nil && isZeroIntLit(s.High)
}

func isZeroIntLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// conversionAllocates reports whether an explicit conversion from `from` to
// `to` must copy to the heap: string <-> []byte/[]rune, and boxing into an
// interface.
func conversionAllocates(to, from types.Type) bool {
	if from == nil {
		return false
	}
	if types.IsInterface(to) {
		return boxingAllocates(to, from)
	}
	toB, toIsBasic := to.Underlying().(*types.Basic)
	fromB, fromIsBasic := from.Underlying().(*types.Basic)
	toSlice, toIsSlice := to.Underlying().(*types.Slice)
	fromSlice, fromIsSlice := from.Underlying().(*types.Slice)
	if toIsBasic && toB.Info()&types.IsString != 0 && fromIsSlice && isByteOrRune(fromSlice.Elem()) {
		return true
	}
	if fromIsBasic && fromB.Info()&types.IsString != 0 && toIsSlice && isByteOrRune(toSlice.Elem()) {
		return true
	}
	return false
}

func isByteOrRune(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Uint8, types.Int32: // byte, rune
		return true
	}
	return false
}

// boxingAllocates reports whether passing a value of type `from` where
// `to` is expected forces an allocating interface conversion: a concrete,
// non-pointer-shaped value meeting an interface. Pointers, channels, maps,
// funcs and existing interfaces fit the interface data word directly.
func boxingAllocates(to, from types.Type) bool {
	if from == nil || to == nil || !types.IsInterface(to) {
		return false
	}
	if _, isTypeParam := to.(*types.TypeParam); isTypeParam {
		return false
	}
	if types.IsInterface(from) {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if b := from.Underlying().(*types.Basic); b.Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}

func isNilLiteral(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil" && info.Uses[id] == types.Universe.Lookup("nil")
}
