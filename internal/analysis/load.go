package analysis

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

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path ("decvec/internal/sim", or "sim" under a testdata root)
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Errs holds parse or type errors; analyzers are not run on a package
	// with errors.
	Errs []error
}

// Loader resolves import paths to directories and type-checks packages from
// source. Module-local paths resolve under ModuleDir, paths under an extra
// root (the analysistest testdata/src convention) resolve there, and
// everything else (the standard library) is delegated to the stdlib source
// importer. One Loader caches packages for its lifetime, so a driver run
// type-checks each package once.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string // module path from go.mod, e.g. "decvec"
	ModuleDir  string // absolute directory of the module root
	// Roots are extra import roots searched before the standard library;
	// import path P resolves to Roots[i]/P when that directory exists.
	Roots []string

	std  types.ImporterFrom
	pkgs map[string]*Package
	busy map[string]bool
}

// NewLoader returns a loader rooted at the module in moduleDir. modulePath
// may be empty when only testdata roots are used.
func NewLoader(modulePath, moduleDir string, roots ...string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		Roots:      roots,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       make(map[string]*Package),
		busy:       make(map[string]bool),
	}
}

// ModuleInfo reads go.mod in dir (or an ancestor) and returns the module
// path and root directory.
func ModuleInfo(dir string) (modulePath, moduleDir string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), d, nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
	}
}

// dirFor resolves an import path to a source directory, or "" when the path
// belongs to the standard library.
func (l *Loader) dirFor(path string) string {
	for _, root := range l.Roots {
		d := filepath.Join(root, path)
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			return d
		}
	}
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.ModuleDir
		}
		if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			return filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
		}
	}
	return ""
}

// Load returns the type-checked package for an import path, loading it and
// its module-local dependencies from source on first use.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("analysis: cannot resolve import %q", path)
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	p, err := l.check(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer for the dependencies of a package being
// checked: module-local and testdata-root paths load recursively from
// source; everything else goes to the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if dir := l.dirFor(path); dir != "" {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if len(p.Errs) > 0 {
			return nil, p.Errs[0]
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.ModuleDir, 0)
}

// check parses and type-checks the non-test files of the package in dir.
func (l *Loader) check(path, dir string) (*Package, error) {
	ctx := build.Default
	bp, err := ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	p := &Package{Path: path, Name: bp.Name, Dir: dir, Fset: l.Fset}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			p.Errs = append(p.Errs, err)
			continue
		}
		p.Files = append(p.Files, f)
	}
	if len(p.Errs) > 0 {
		return p, nil
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
		Error:    func(err error) { p.Errs = append(p.Errs, err) },
	}
	p.Types, _ = conf.Check(path, l.Fset, p.Files, p.Info)
	return p, nil
}

// LoadPatterns expands the driver's package patterns ("./..." or directory
// paths relative to the module root) and loads every matching package.
// Directories named testdata, hidden directories, directories without
// non-test Go files and — as with the go tool — nested modules (any
// directory below the walk root holding its own go.mod) are skipped.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	addTree := func(root string) error {
		return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || isModuleRoot(path)) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) && !seen[path] {
				seen[path] = true
				dirs = append(dirs, path)
			}
			return nil
		})
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := addTree(l.ModuleDir); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			if err := addTree(root); err != nil {
				return nil, err
			}
		default:
			d := filepath.Join(l.ModuleDir, filepath.FromSlash(pat))
			if !seen[d] && hasGoFiles(d) {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleDir, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// isModuleRoot reports whether dir holds a go.mod, making it a module of
// its own rather than part of the one being loaded.
func isModuleRoot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
