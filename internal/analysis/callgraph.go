package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
)

// CallGraph is a conservative, module-local call graph: one node per
// function declared in the analyzed packages, edges for every call that can
// be resolved statically. Calls through interfaces are devirtualized over
// every module type implementing the interface (an over-approximation);
// calls of func-typed values are recorded as dynamic sites that analyzers
// must treat as unknowable. Statements dominated by a constant-false
// condition (the eqdebug invariant guards compile to `if false` in release
// analysis) contribute no edges.
//
// Known unsoundness, accepted and documented in DESIGN.md §9: a method
// bound to a func value (s.wakeFn = s.wakeWarp) re-enters the graph only at
// the dynamic call site, not at the bound method — such bodies carry their
// own //eqlint:hotpath root, and the runtime differential/alloc-pin suites
// remain the backstop behind every static exemption.
type CallGraph struct {
	nodes map[*types.Func]*CallNode
	// namedTypes are the non-generic named types of the module packages,
	// used for interface devirtualization.
	namedTypes []*types.Named
}

// CallNode is one declared function and its outgoing call sites.
type CallNode struct {
	// Fn is the function object (generic origin for generic functions).
	Fn *types.Func
	// Decl is the declaration, carrying doc-comment directives.
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Package
	// Out are the function's call sites in source order, including sites
	// inside function literals (attributed to the enclosing declaration).
	Out []CallSite
}

// CallSite is one call expression inside a function body.
type CallSite struct {
	// Call is the expression; its position anchors diagnostics.
	Call *ast.CallExpr
	// Targets are the possible callees: one for a static call, every module
	// implementation for a devirtualized interface call, none for a dynamic
	// call.
	Targets []*types.Func
	// Dynamic marks a call of a func-typed value — unresolvable statically.
	Dynamic bool
	// Interface marks a devirtualized interface method call.
	Interface bool
}

// HasDirective reports whether the node's declaration carries the given
// //eqlint:<directive> marker.
func (n *CallNode) HasDirective(directive string) bool {
	return funcHasDirective(n.Decl, directive)
}

// Node returns the graph node for fn (normalized to its generic origin), or
// nil for functions declared outside the module packages.
func (g *CallGraph) Node(fn *types.Func) *CallNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// NodesWithDirective returns every node whose declaration carries the given
// //eqlint:<directive> marker, in deterministic source order.
func (g *CallGraph) NodesWithDirective(directive string) []*CallNode {
	var out []*CallNode
	for _, n := range g.nodes {
		if n.HasDirective(directive) {
			out = append(out, n)
		}
	}
	sortNodes(out)
	return out
}

// Nodes returns every node in deterministic source order.
func (g *CallGraph) Nodes() []*CallNode {
	out := make([]*CallNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sortNodes(out)
	return out
}

func sortNodes(ns []*CallNode) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Pkg.PkgPath != ns[j].Pkg.PkgPath {
			return ns[i].Pkg.PkgPath < ns[j].Pkg.PkgPath
		}
		pi := ns[i].Pkg.Fset.Position(ns[i].Decl.Pos())
		pj := ns[j].Pkg.Fset.Position(ns[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
}

// buildCallGraph constructs the graph over the given packages.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: map[*types.Func]*CallNode{}}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
	}
	for _, pkg := range pkgs {
		forEachFunc(pkg.Files, func(decl *ast.FuncDecl) {
			fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				return
			}
			node := &CallNode{Fn: fn, Decl: decl, Pkg: pkg}
			inspectLive(pkg.Info, decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if site, ok := g.classify(pkg.Info, call); ok {
					node.Out = append(node.Out, site)
				}
				return true
			})
			g.nodes[fn] = node
		})
	}
	return g
}

// classify resolves one call expression into a call site, or ok=false for
// non-calls in call syntax (conversions, builtins, immediately invoked
// literals — the per-function construct checks handle those directly).
func (g *CallGraph) classify(info *types.Info, call *ast.CallExpr) (CallSite, bool) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return CallSite{}, false // conversion
	}
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: f[T](x).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if _, isSel := idx.X.(*ast.SelectorExpr); isSel || isFuncIdent(info, idx.X) {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return CallSite{Call: call, Targets: []*types.Func{obj.Origin()}}, true
		case *types.Builtin:
			return CallSite{}, false
		case *types.TypeName:
			return CallSite{}, false
		case nil:
			return CallSite{}, false
		default:
			return CallSite{Call: call, Dynamic: true}, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				f := sel.Obj().(*types.Func)
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					return CallSite{Call: call, Targets: g.implementations(f), Interface: true}, true
				}
				return CallSite{Call: call, Targets: []*types.Func{f.Origin()}}, true
			default: // FieldVal: calling a func-typed struct field
				return CallSite{Call: call, Dynamic: true}, true
			}
		}
		// Package-qualified reference: pkg.F(...) or pkg.V(...).
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			return CallSite{Call: call, Targets: []*types.Func{obj.Origin()}}, true
		case *types.Builtin, *types.TypeName, nil:
			return CallSite{}, false
		default:
			return CallSite{Call: call, Dynamic: true}, true
		}
	case *ast.FuncLit:
		// Immediately invoked literal: its body is already attributed to the
		// enclosing declaration by the walk.
		return CallSite{}, false
	default:
		return CallSite{Call: call, Dynamic: true}, true
	}
}

func isFuncIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isFunc := info.Uses[id].(*types.Func)
	return isFunc
}

// implementations returns every method of a module named type that
// implements the given interface method, normalized to generic origins.
func (g *CallGraph) implementations(ifaceMethod *types.Func) []*types.Func {
	recv := ifaceMethod.Type().(*types.Signature).Recv()
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, named := range g.namedTypes {
		if types.IsInterface(named.Underlying()) {
			continue
		}
		var impl types.Type = named
		if !types.Implements(impl, iface) {
			impl = types.NewPointer(named)
			if !types.Implements(impl, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, ifaceMethod.Pkg(), ifaceMethod.Name())
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m.Origin())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// Reachable computes the functions reachable from roots along static and
// devirtualized edges, in deterministic BFS order. The returned map gives
// each reached node its BFS parent (roots map to nil); visit, when non-nil,
// observes each node as it is reached and may veto descending through it by
// returning false.
func (g *CallGraph) Reachable(roots []*CallNode, visit func(n, parent *CallNode) bool) map[*CallNode]*CallNode {
	parent := map[*CallNode]*CallNode{}
	var queue []*CallNode
	for _, r := range roots {
		if _, ok := parent[r]; ok {
			continue
		}
		parent[r] = nil
		if visit == nil || visit(r, nil) {
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, site := range n.Out {
			for _, t := range site.Targets {
				tn := g.Node(t)
				if tn == nil {
					continue
				}
				if _, ok := parent[tn]; ok {
					continue
				}
				parent[tn] = n
				if visit == nil || visit(tn, n) {
					queue = append(queue, tn)
				}
			}
		}
	}
	return parent
}

// inspectLive walks an AST like ast.Inspect but skips statements that are
// statically dead: the then-branch of `if <const-false cond>` (release
// builds of the eqdebug invariant layer compile to exactly that shape).
func inspectLive(info *types.Info, root ast.Node, fn func(ast.Node) bool) {
	if root == nil {
		return
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok && condConstFalse(info, ifs.Cond) {
				if ifs.Init != nil {
					walk(ifs.Init)
				}
				if ifs.Else != nil {
					walk(ifs.Else)
				}
				return false
			}
			return fn(n)
		})
	}
	walk(root)
}

// condConstFalse reports whether a condition is statically false: a
// constant-false expression, or a && chain whose left operand is.
func condConstFalse(info *types.Info, cond ast.Expr) bool {
	cond = ast.Unparen(cond)
	if tv, ok := info.Types[cond]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool && !constant.BoolVal(tv.Value) {
		return true
	}
	if b, ok := cond.(*ast.BinaryExpr); ok && b.Op.String() == "&&" {
		return condConstFalse(info, b.X)
	}
	return false
}

// funcDisplayName renders a function for diagnostics: package-name
// qualified ("(*sm.SM).Step", "gpu.stepMemory") — unambiguous in this
// module without full-import-path noise.
func funcDisplayName(fn *types.Func) string {
	qual := func(p *types.Package) string { return p.Name() }
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(recv.Type(), qual), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
