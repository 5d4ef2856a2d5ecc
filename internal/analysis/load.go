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

// Package is one loaded, type-checked analysis unit.
type Package struct {
	// Path is the import path ("tmisa/internal/core"), with a "_test"
	// suffix for external test packages.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of one module plus the standard
// library, entirely from source: module packages resolve against the
// module tree, everything else goes through the compiler-independent
// source importer, so no compiled export data (and no network) is needed.
type Loader struct {
	Root    string // module root directory (holds go.mod)
	ModPath string // module path from go.mod
	Fset    *token.FileSet

	std types.ImporterFrom
	// cache holds non-test type-checks used to satisfy imports; analysis
	// units (which may add _test files) are checked separately.
	cache map[string]*types.Package
	// loading guards against import cycles.
	loading map[string]bool
}

// NewLoader builds a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		Root:    root,
		ModPath: modPath,
		Fset:    fset,
		std:     std,
		cache:   make(map[string]*types.Package),
		loading: make(map[string]bool),
	}, nil
}

// FindModuleRoot walks upward from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Import satisfies types.Importer: module-internal paths are type-checked
// from the module tree (non-test files only, as the go tool does for
// imports); everything else is delegated to the stdlib source importer.
func (ld *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if ld.inModule(path) {
		if pkg, ok := ld.cache[path]; ok {
			return pkg, nil
		}
		if ld.loading[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		ld.loading[path] = true
		defer delete(ld.loading, path)
		dir := ld.dirForPath(path)
		files, _, err := ld.parseDir(dir, false)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		conf := types.Config{Importer: ld}
		pkg, err := conf.Check(path, ld.Fset, files, nil)
		if err != nil {
			return nil, err
		}
		ld.cache[path] = pkg
		return pkg, nil
	}
	return ld.std.Import(path)
}

// ImportFrom lets the stdlib source importer resolve through us too.
func (ld *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return ld.Import(path)
}

// parseDir parses the directory's .go files. With tests set, in-package
// _test.go files are merged into the primary file list and external
// (_test-suffixed package) files are returned separately. Build
// constraints (//go:build lines and filename suffixes) are honored via
// go/build's default context, so tag-disjoint file pairs like
// race_on.go/race_off.go load exactly one variant — the same one the go
// tool would compile here.
func (ld *Loader) parseDir(dir string, tests bool) (primary, external []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	matchCtx := build.Default
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if !tests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := matchCtx.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var parsed []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(ld.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		parsed = append(parsed, f)
	}
	// Split by package clause: X and X_test may coexist in one directory.
	base := ""
	for _, f := range parsed {
		name := f.Name.Name
		if !strings.HasSuffix(name, "_test") {
			base = name
			break
		}
	}
	for _, f := range parsed {
		if base != "" && f.Name.Name == base+"_test" {
			external = append(external, f)
		} else {
			primary = append(primary, f)
		}
	}
	return primary, external, nil
}

// LoadDir type-checks the package in dir (with its _test files) and
// returns one analysis unit per package clause found: the primary
// package and, when present, the external _test package. As under go
// test, the external package sees the primary package with its
// in-package _test files, so helpers an export_test.go file exports
// resolve.
func (ld *Loader) LoadDir(dir string) ([]*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := ld.pathForDir(dir)
	primary, external, err := ld.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	var out []*Package
	imp := &testImporter{ld: ld, under: path, pkgs: map[string]*types.Package{}}
	if len(primary) > 0 {
		pkg, err := ld.check(path, dir, primary, ld)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
		imp.pkgs[path] = pkg.Types
	}
	if len(external) > 0 {
		pkg, err := ld.check(path+"_test", dir, external, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// testImporter resolves an external test package's imports the way go
// test builds them: the package under test is its test-augmented form,
// and each module package that transitively imports it is re-checked
// from source against that form, so the two never meet as distinct
// types. Every other package is the loader's shared non-test check.
type testImporter struct {
	ld    *Loader
	under string
	pkgs  map[string]*types.Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, err := ti.ld.Import(path)
	if err != nil || !ti.ld.inModule(path) || !ti.ld.dependsOn(pkg, ti.under, map[*types.Package]bool{}) {
		return pkg, err
	}
	files, _, err := ti.ld.parseDir(ti.ld.dirForPath(path), false)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: ti}
	if pkg, err = conf.Check(path, ti.ld.Fset, files, nil); err != nil {
		return nil, err
	}
	ti.pkgs[path] = pkg
	return pkg, nil
}

// dependsOn reports whether module package pkg imports path, directly
// or through other module packages (the standard library imports none).
func (ld *Loader) dependsOn(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, q := range pkg.Imports() {
		if q.Path() == path {
			return true
		}
		if ld.inModule(q.Path()) && !seen[q] {
			seen[q] = true
			if ld.dependsOn(q, path, seen) {
				return true
			}
		}
	}
	return false
}

// inModule reports whether an import path belongs to the loader's module.
func (ld *Loader) inModule(path string) bool {
	return path == ld.ModPath || strings.HasPrefix(path, ld.ModPath+"/")
}

// dirForPath is the directory of a module import path.
func (ld *Loader) dirForPath(path string) string {
	return filepath.Join(ld.Root, filepath.FromSlash(strings.TrimPrefix(path, ld.ModPath)))
}

// pathForDir derives the import path of a module directory. Directories
// outside the module tree (testdata packages loaded explicitly by tests)
// get a synthetic path from their basename.
func (ld *Loader) pathForDir(dir string) string {
	rel, err := filepath.Rel(ld.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "testpkg/" + filepath.Base(dir)
	}
	if rel == "." {
		return ld.ModPath
	}
	return ld.ModPath + "/" + filepath.ToSlash(rel)
}

func (ld *Loader) check(path, dir string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var terrs TypeErrors
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, ld.Fset, files, info)
	if len(terrs) > 0 {
		return nil, terrs
	}
	return &Package{Path: path, Dir: dir, Fset: ld.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadPatterns expands go-style patterns ("./...", "./internal/core",
// "internal/core/...") relative to the module root and loads every
// matched package. testdata, vendor, hidden and underscore directories
// are skipped, as the go tool does.
func (ld *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirSet := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !dirSet[d] {
			dirSet[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		root := filepath.Join(ld.Root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var out []*Package
	for _, dir := range dirs {
		pkgs, err := ld.LoadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_") {
			return true
		}
	}
	return false
}
