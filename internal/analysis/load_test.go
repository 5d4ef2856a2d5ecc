package analysis

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func testLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	return ld
}

// TestLoadCorePackage proves the module+stdlib source importer works
// offline: tmisa/internal/core imports fmt, sort, and four module
// packages, all of which must resolve from source.
func TestLoadCorePackage(t *testing.T) {
	ld := testLoader(t)
	pkgs, err := ld.LoadDir(filepath.Join(ld.Root, "internal/core"))
	if err != nil {
		t.Fatalf("load internal/core: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	pkg := pkgs[0]
	if pkg.Path != "tmisa/internal/core" {
		t.Errorf("path = %q, want tmisa/internal/core", pkg.Path)
	}
	if pkg.Types.Scope().Lookup("Proc") == nil {
		t.Error("type Proc not found in core's scope")
	}
	// The unit must include the _test files (the analyzers run over them).
	foundTest := false
	for _, f := range pkg.Files {
		if filepath.Base(pkg.Fset.Position(f.Pos()).Filename) == "core_test.go" {
			foundTest = true
		}
	}
	if !foundTest {
		t.Error("core_test.go not part of the analysis unit")
	}
}

// TestLoadExternalTestSeesExportTest: an external test package is
// checked the way go test builds it. Its package under test includes the
// in-package _test files, so a helper that export_test.go exports
// resolves, and package user, which imports the package under test, is
// re-checked against that same form, so its Cell is the test's Cell.
// Importers outside the test still get the package without test files.
func TestLoadExternalTestSeesExportTest(t *testing.T) {
	ld := testLoader(t)
	pkgs, err := ld.LoadDir(filepath.Join(ld.Root, "internal/analysis/testdata/src/exporttest"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 2 || pkgs[1].Path != pkgs[0].Path+"_test" {
		t.Fatalf("loaded %d units, want the package and its external test", len(pkgs))
	}
	for _, imp := range pkgs[1].Types.Imports() {
		if imp.Path() == pkgs[0].Path && imp != pkgs[0].Types {
			t.Error("the external test imports a package other than the test-augmented one")
		}
	}
	plain, err := ld.Import(pkgs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Scope().Lookup("Double") != nil {
		t.Error("the shared import of the package includes its _test files")
	}
}

// TestSuppressionIndex checks both placements of //tmlint:allow and that
// Reportf honors them.
func TestSuppressionIndex(t *testing.T) {
	ld := testLoader(t)
	dir := t.TempDir()
	src := `package allowcheck

//tmlint:allow ruleA -- standalone form covers the next line
var a = 1
var b = 2 //tmlint:allow ruleB, ruleC -- end-of-line form
var c = 3

//tmlint:allowed ruleD -- the directive name must end at a word boundary
var d = 4

//tmlint:allow ruleE
var e = 5
`
	if err := writeFile(filepath.Join(dir, "a.go"), src); err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.LoadDir(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	pkg := pkgs[0]
	report := func(name string, pos token.Pos) bool {
		pass := &Pass{
			Analyzer: &Analyzer{Name: name},
			Fset:     pkg.Fset,
			allows:   pkg.allowIndex(),
		}
		pass.Reportf(pos, "x")
		return len(pass.diags) > 0
	}
	varPos := func(wantName string) token.Pos {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					vs := s.(*ast.ValueSpec)
					if vs.Names[0].Name == wantName {
						return vs.Pos()
					}
				}
			}
		}
		t.Fatalf("var %s not found", wantName)
		return token.NoPos
	}
	if report("ruleA", varPos("a")) {
		t.Error("ruleA on var a should be suppressed (line-above form)")
	}
	if report("ruleB", varPos("b")) || report("ruleC", varPos("b")) {
		t.Error("ruleB/ruleC on var b should be suppressed (end-of-line form)")
	}
	if !report("ruleA", varPos("c")) {
		t.Error("var c must not be suppressed")
	}
	if !report("other", varPos("a")) {
		t.Error("an unlisted rule must not be suppressed")
	}
	// "tmlint:allowed" is not the directive: under prefix-only matching it
	// would suppress the bogus rules "ed" and "ruleD".
	if !report("ed", varPos("d")) || !report("ruleD", varPos("d")) {
		t.Error(`"tmlint:allowed" must not parse as an allow directive`)
	}
	// A directive with no "-- <justification>" is inert.
	if !report("ruleE", varPos("e")) {
		t.Error("a directive without a justification must not suppress")
	}
}

// TestSuppressionSpansMultiLineStatements checks that a directive
// covering the first line of a multi-line statement extends over the
// whole statement — the common case is an allow above an atomic block
// whose body literal spans many lines — while statements outside the
// span stay unsuppressed, and a directive attached to an inner statement
// stays scoped to that statement.
func TestSuppressionSpansMultiLineStatements(t *testing.T) {
	ld := testLoader(t)
	dir := t.TempDir()
	src := `package spancheck

func helper(f func()) { f() }

func outer() {
	//tmlint:allow ruleX -- the whole block is exempt
	helper(func() {
		a := 1
		_ = a
	})
	b := 2
	_ = b
}

func inner() {
	helper(func() {
		c := 3 //tmlint:allow ruleY -- this line (and, per the documented
		d := 4 // over-approximation, the line directly below it)
		e := 5
		_, _, _ = c, d, e
	})
}
`
	if err := writeFile(filepath.Join(dir, "a.go"), src); err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.LoadDir(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	pkg := pkgs[0]
	report := func(name string, pos token.Pos) bool {
		pass := &Pass{
			Analyzer: &Analyzer{Name: name},
			Fset:     pkg.Fset,
			allows:   pkg.allowIndex(),
		}
		pass.Reportf(pos, "x")
		return len(pass.diags) > 0
	}
	// stmtPos finds the statement assigning to the named variable.
	stmtPos := func(wantName string) token.Pos {
		var found token.Pos
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == wantName {
					found = as.Pos()
				}
				return true
			})
		}
		if found == token.NoPos {
			t.Fatalf("assignment to %s not found", wantName)
		}
		return found
	}
	if report("ruleX", stmtPos("a")) {
		t.Error("ruleX inside the spanned block literal should be suppressed")
	}
	if !report("ruleX", stmtPos("b")) {
		t.Error("ruleX after the spanned statement must not be suppressed")
	}
	if report("ruleY", stmtPos("c")) {
		t.Error("ruleY on its own line should be suppressed")
	}
	if report("ruleY", stmtPos("d")) {
		t.Error("the line below an end-of-line directive is covered (documented over-approximation)")
	}
	if !report("ruleY", stmtPos("e")) {
		t.Error("an inner-statement directive must not leak two lines down")
	}
	if !report("ruleY", stmtPos("a")) {
		t.Error("ruleY must not apply in the other function")
	}
}
