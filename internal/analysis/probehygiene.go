package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ProbeHygiene enforces the telemetry bus contract the hot loops rely on
// (and that the pinned AllocsPerRun tests measure end to end):
//
//   - Emit-path functions — (*telemetry.Bus).Emit / Enabled and anything
//     marked //eqlint:emitpath — must not allocate: no composite literals,
//     no make/new/append, no fmt, no closures, no string concatenation, no
//     map writes. A disabled probe must cost a branch and a return.
//   - Types whose doc comment contains "eqlint:nilsafe" (the Bus) must
//     begin every pointer-receiver method with a receiver nil check, so a
//     detached component can keep its probe pointer permanently wired.
//   - Calls to Emit must pass the event kind as a typed constant, keeping
//     the kind statically maskable and catching swapped arguments.
var ProbeHygiene = &Analyzer{
	Name: "probehygiene",
	Doc:  "telemetry probes must be nil-safe, kind-masked and allocation-free on the emit path",
	Run:  runProbeHygiene,
}

func runProbeHygiene(pass *Pass) error {
	nilsafeTypes := collectNilsafeTypes(pass)
	forEachFunc(pass.Files, func(fd *ast.FuncDecl) {
		if isEmitPath(pass, fd) {
			checkNoAllocations(pass, fd)
		}
		if tn := receiverNamed(pass, fd, nilsafeTypes); tn != "" {
			checkNilGuard(pass, fd, tn)
		}
	})
	pass.Inspect(func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			checkEmitKindConstant(pass, call)
		}
		return true
	})
	return nil
}

// isEmitPath reports whether fd is part of the zero-allocation emit path:
// explicitly marked, or an Emit/Enabled method on a type named Bus.
func isEmitPath(pass *Pass, fd *ast.FuncDecl) bool {
	if funcHasDirective(fd, "emitpath") {
		return true
	}
	if fd.Recv == nil || (fd.Name.Name != "Emit" && fd.Name.Name != "Enabled") {
		return false
	}
	return recvTypeName(fd) == "Bus"
}

// recvTypeName returns the receiver's type name, or "".
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkNoAllocations reports allocation sites inside an emit-path body.
func checkNoAllocations(pass *Pass, fd *ast.FuncDecl) {
	report := func(n ast.Node, what string) {
		pass.Reportf(n.Pos(), "%s allocates on the telemetry emit path; a disabled probe must cost only a branch (function %s)", what, fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			report(n, "composite literal")
		case *ast.FuncLit:
			report(n, "closure")
			return false
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if _, ok := pass.ObjectOf(fun).(*types.Builtin); ok {
					switch fun.Name {
					case "make", "new", "append":
						report(n, "builtin "+fun.Name)
					}
				}
			case *ast.SelectorExpr:
				if obj, ok := pass.ObjectOf(fun.Sel).(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
					report(n, "fmt."+obj.Name())
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if t := pass.TypeOf(n.X); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n, "string concatenation")
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if t := pass.TypeOf(idx.X); t != nil {
						if _, ok := t.Underlying().(*types.Map); ok {
							report(lhs, "map write")
						}
					}
				}
			}
		case *ast.GoStmt:
			report(n, "goroutine launch")
		}
		return true
	})
}

// collectNilsafeTypes finds type declarations whose doc comment carries the
// eqlint:nilsafe contract marker.
func collectNilsafeTypes(pass *Pass) map[string]bool {
	out := map[string]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
					if doc != nil && strings.Contains(doc.Text(), "eqlint:nilsafe") {
						out[ts.Name.Name] = true
					}
				}
			}
		}
	}
	return out
}

// receiverNamed returns the receiver type name when fd is a pointer-receiver
// method on one of the nil-safe types.
func receiverNamed(pass *Pass, fd *ast.FuncDecl, nilsafe map[string]bool) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	if _, ok := fd.Recv.List[0].Type.(*ast.StarExpr); !ok {
		return "" // value receivers copy; nil cannot reach them
	}
	if tn := recvTypeName(fd); nilsafe[tn] {
		return tn
	}
	return ""
}

// checkNilGuard requires the method body to open with an `if` statement
// whose condition tests the receiver against nil (either polarity, possibly
// inside || / &&).
func checkNilGuard(pass *Pass, fd *ast.FuncDecl, typeName string) {
	recvName := ""
	if names := fd.Recv.List[0].Names; len(names) > 0 {
		recvName = names[0].Name
	}
	if recvName == "" || recvName == "_" {
		pass.Reportf(fd.Pos(), "method %s.%s on nil-safe type has no named receiver to nil-check", typeName, fd.Name.Name)
		return
	}
	if len(fd.Body.List) > 0 {
		if ifs, ok := fd.Body.List[0].(*ast.IfStmt); ok && mentionsNilCheck(ifs.Cond, recvName) {
			return
		}
		// `return <expr involving recv == nil>` (e.g. `return b != nil && ...`).
		if ret, ok := fd.Body.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 && mentionsNilCheck(ret.Results[0], recvName) {
			return
		}
	}
	pass.Reportf(fd.Pos(),
		"method %s.%s must begin with a %s == nil guard; %s is documented nil-safe (eqlint:nilsafe)",
		typeName, fd.Name.Name, recvName, typeName)
}

// mentionsNilCheck reports whether the expression contains `recv == nil` or
// `recv != nil` at any depth.
func mentionsNilCheck(e ast.Expr, recvName string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		if b.Op.String() != "==" && b.Op.String() != "!=" {
			return true
		}
		isRecv := func(x ast.Expr) bool {
			id, ok := x.(*ast.Ident)
			return ok && id.Name == recvName
		}
		isNil := func(x ast.Expr) bool {
			id, ok := x.(*ast.Ident)
			return ok && id.Name == "nil"
		}
		if (isRecv(b.X) && isNil(b.Y)) || (isNil(b.X) && isRecv(b.Y)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkEmitKindConstant requires the kind argument of (*Bus).Emit calls to
// be a typed constant so masks stay statically analysable.
func checkEmitKindConstant(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Emit" {
		return
	}
	obj, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Bus" {
		return
	}
	// Find the parameter whose type is named Kind; Emit(timePS, k, src, a, b).
	kindIdx := -1
	for i := 0; i < sig.Params().Len(); i++ {
		if pn, ok := sig.Params().At(i).Type().(*types.Named); ok && pn.Obj().Name() == "Kind" {
			kindIdx = i
			break
		}
	}
	if kindIdx < 0 || kindIdx >= len(call.Args) {
		return
	}
	tv, ok := pass.Info.Types[call.Args[kindIdx]]
	if ok && tv.Value != nil {
		return
	}
	pass.Reportf(call.Args[kindIdx].Pos(),
		"Emit kind argument must be a telemetry.Kind constant, not a variable or computed expression")
}
