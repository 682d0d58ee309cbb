package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the import path ("equalizer/internal/sm").
	PkgPath string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions every file of the load (shared across packages).
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info are the type-checking results.
	Types *types.Package
	Info  *types.Info

	allowset *allowSet
}

// allows returns the package's suppression directives, parsed once.
func (p *Package) allows() *allowSet {
	if p.allowset == nil {
		p.allowset = collectAllowedLines(p)
	}
	return p.allowset
}

// listedPackage is the subset of `go list -json` output Load reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Module     *struct {
		Dir  string
		Main bool
	}
	Error *struct{ Err string }
}

// Load resolves patterns with `go list` run in dir and returns the matched
// packages (non-test files only), parsed and type-checked from source in
// go list's dependency order. Their imports are read from the export data
// go list compiled, through the gc importer, so nothing outside the matched
// packages is type-checked here. moduleRoot is the main module's directory.
// A package go list reports an error for, or one that fails to type-check,
// fails the whole load.
func Load(dir string, patterns ...string) (moduleRoot string, pkgs []*Package, err error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", nil, fmt.Errorf("analysis: go list: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}

	var targets []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return "", nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return "", nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
		}
		exports[lp.ImportPath] = lp.Export
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	for _, lp := range targets {
		if lp.Module != nil && lp.Module.Main {
			moduleRoot = lp.Module.Dir
		}
		pkg, err := check(fset, imp, lp)
		if err != nil {
			return "", nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return moduleRoot, pkgs, nil
}

// check parses one listed package's files and type-checks them.
func check(fset *token.FileSet, imp types.Importer, lp listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", lp.ImportPath, err)
	}
	return &Package{
		PkgPath: lp.ImportPath,
		Dir:     lp.Dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}
