package driver

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package: parsed syntax plus type
// information.
type Package struct {
	// Path is the import path ("sprwl/internal/core").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Name is the package name from the package clauses.
	Name string
	// Files holds the parsed non-test files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's fact tables for Files.
	Info *types.Info
}

// Program loads and caches packages for one extraction session. Module
// packages are resolved from ModuleDir, and everything else is treated as
// standard library and type-checked from GOROOT source — which keeps the
// loader dependency-free and fully offline.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool

	fnIndex   map[*types.Func]FuncSource
	fnIndexed int
}

// FuncSource locates the declaration of a function within a loaded package.
type FuncSource struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// NewProgram builds an empty Program rooted at the module containing
// moduleDir (the directory holding go.mod).
func NewProgram(moduleDir string) (*Program, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer must never fall into cgo-only file sets: the
	// loader has no C toolchain contract. Every stdlib package this
	// module pulls in has a pure-Go configuration.
	build.Default.CgoEnabled = false
	p := &Program{
		Fset:       token.NewFileSet(),
		ModulePath: modPath,
		ModuleDir:  abs,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
	p.std = importer.ForCompiler(p.Fset, "source", nil)
	return p, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// Import implements types.Importer for the type-checker: module paths
// load recursively through this Program; everything else is standard
// library.
func (p *Program) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := p.dirFor(path); ok {
		pkg, err := p.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return p.std.Import(path)
}

// dirFor resolves a module import path to its source directory.
// Standard-library paths resolve to ("", false).
func (p *Program) dirFor(path string) (string, bool) {
	if path == p.ModulePath {
		return p.ModuleDir, true
	}
	if rest, ok := strings.CutPrefix(path, p.ModulePath+"/"); ok {
		return filepath.Join(p.ModuleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Load type-checks the module package at the given import path (or
// returns the cached one).
func (p *Program) Load(path string) (*Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := p.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("%s: not a module package", path)
	}
	return p.load(path, dir)
}

func (p *Program) load(path, dir string) (*Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	if p.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	p.loading[path] = true
	defer delete(p.loading, path)

	files, name, err := p.parseDir(dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: p,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, p.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("typecheck %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Name:  name,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	p.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test Go file in dir that the current build
// configuration selects: files excluded by a //go:build constraint or a
// GOOS/GOARCH filename suffix are skipped, exactly as the go tool would
// skip them, so the extractor never sees (and never type-checks) code that
// cannot be part of this build.
func (p *Program) parseDir(dir string) ([]*ast.File, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, n); err != nil || !match {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, "", fmt.Errorf("%s: no Go files", dir)
	}
	sort.Strings(names)
	var files []*ast.File
	pkgName := ""
	for _, n := range names {
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, "", err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, "", fmt.Errorf("%s: mixed packages %s and %s", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	return files, pkgName, nil
}

// FuncSource returns the declaration of fn if fn was declared in a loaded
// module package; standard-library functions have no source here. The
// index is rebuilt lazily as more packages load.
func (p *Program) FuncSource(fn *types.Func) (FuncSource, bool) {
	if p.fnIndex == nil || p.fnIndexed != len(p.pkgs) {
		p.fnIndex = make(map[*types.Func]FuncSource)
		for _, pkg := range p.pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						p.fnIndex[obj] = FuncSource{Pkg: pkg, Decl: fd}
					}
				}
			}
		}
		p.fnIndexed = len(p.pkgs)
	}
	src, ok := p.fnIndex[fn]
	return src, ok
}
