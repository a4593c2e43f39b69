package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckExported runs the exported-doc rule against a fixture package
// with one documented and several undocumented identifiers.
func TestCheckExported(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

// Documented is fine.
type Documented struct{}

type Undocumented struct{}

// DocumentedFunc is fine.
func DocumentedFunc() {}

func UndocumentedFunc() {}

func unexported() {}

// Grouped constants inherit the group comment.
const (
	GroupedA = 1
	GroupedB = 2
)

const LoneUndocumented = 3

func (Documented) UndocumentedMethod() {}

// DocumentedMethod is fine.
func (Documented) DocumentedMethod() {}

type hidden []int

func (h hidden) Len() int { return len(h) }

func (h *hidden) PointerLen() int { return len(*h) }

type generic[T any] struct{}

func (generic[T]) GenericMethod() {}

// Exposed is documented.
type Exposed[T any] struct{}

func (*Exposed[T]) UndocumentedGenericMethod() {}
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Test files must be ignored even when they violate the rule.
	if err := os.WriteFile(filepath.Join(dir, "fixture_test.go"),
		[]byte("package fixture\n\nfunc UndocumentedTestHelper() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkExported([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(findings, "\n")
	for _, want := range []string{
		"no package comment",
		"exported type Undocumented",
		"exported function UndocumentedFunc",
		"exported const LoneUndocumented",
		"exported method UndocumentedMethod",
		"exported method UndocumentedGenericMethod",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("findings missing %q:\n%s", want, joined)
		}
	}
	for _, tooMuch := range []string{"Documented ", "DocumentedFunc", "GroupedA", "unexported", "TestHelper", "DocumentedMethod", "method Len", "method PointerLen", "method GenericMethod"} {
		if strings.Contains(joined, tooMuch) {
			t.Errorf("false positive on %q:\n%s", tooMuch, joined)
		}
	}
}

// TestCheckExportedCleanPackages runs the rule over every internal/
// package — the contract `make lint-docs` enforces in CI.
func TestCheckExportedCleanPackages(t *testing.T) {
	dirs, err := filepath.Glob("../../internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no internal packages found")
	}
	findings, err := checkExported(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		t.Errorf("internal packages have undocumented exports:\n%s", strings.Join(findings, "\n"))
	}
}

// unreferencedExports parses every .go file under root, tests included,
// and reports each exported function or method declared in a non-test
// file under internal/ whose name occurs as no other identifier in the
// module. Method names in interface declarations are identifiers too, so
// a method that satisfies an in-module interface counts as referenced.
// Methods on unexported types are not API and are skipped, as in
// checkPackage, and so are directories named testdata or starting
// with ".".
func unreferencedExports(root string) ([]string, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	uses := make(map[string]int)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, f := range files {
		path := fset.Position(f.Package).Filename
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel, "internal/") || strings.HasSuffix(rel, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || !d.Name.IsExported() || uses[d.Name.Name] > 1 {
				continue
			}
			name := f.Name.Name + "." + d.Name.Name
			if d.Recv != nil {
				recv := recvTypeName(d.Recv)
				if !ast.IsExported(recv) {
					continue // not API: typically satisfies a standard-library interface
				}
				if _, ptr := d.Recv.List[0].Type.(*ast.StarExpr); ptr {
					recv = "*" + recv
				}
				name = fmt.Sprintf("%s.(%s).%s", f.Name.Name, recv, d.Name.Name)
			}
			findings = append(findings, fmt.Sprintf("%s:%d: %s", rel, fset.Position(d.Pos()).Line, name))
		}
	}
	return findings, nil
}

// TestNoUnreferencedExports runs the unreferenced-export scan over a
// fixture module and then over this module, which must have no exported
// function or method under internal/ that nothing names.
func TestNoUnreferencedExports(t *testing.T) {
	dir := t.TempDir()
	fixture := map[string]string{
		"internal/a/a.go": `package a

type T struct{}

func Used() {}

func Unused() {}

func TestOnly() {}

func (T) Satisfies() {}

func (*T) Dangling() {}

type hidden struct{}

func (hidden) Unlisted() {}
`,
		"internal/a/a_test.go":     "package a\n\nfunc helperUnused() { TestOnly() }\n\nfunc ExportedInTest() {}\n",
		"internal/b/b.go":          "package b\n\nimport \"m/internal/a\"\n\ntype I interface{ Satisfies() }\n\nfunc init() { a.Used() }\n",
		"cmd/c/main.go":            "package main\n\nfunc main() {}\n\nfunc OutsideInternal() {}\n",
		"internal/a/testdata/x.go": "package x\n\nfunc Unused() {}\n\nfunc Dangling() {}\n",
	}
	for name, src := range fixture {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := unreferencedExports(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a/a.go:7: a.Unused", "internal/a/a.go:13: a.(*T).Dangling"}
	if strings.Join(findings, "\n") != strings.Join(want, "\n") {
		t.Errorf("fixture findings:\n%s\nwant:\n%s", strings.Join(findings, "\n"), strings.Join(want, "\n"))
	}

	findings, err = unreferencedExports("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		t.Errorf("exported functions under internal/ that nothing references (delete them or use them):\n%s", strings.Join(findings, "\n"))
	}
}

// TestCheckMakeRefs covers target parsing and reference matching: only
// `make <target>` invocations inside code (inline spans or fenced
// blocks) are checked, prose uses of the word "make" are ignored, and
// unknown targets are reported with their line.
func TestCheckMakeRefs(t *testing.T) {
	dir := t.TempDir()
	makefile := filepath.Join(dir, "Makefile")
	mk := `# comment lines are skipped
GO ?= go
.PHONY: build test ci
build:
	$(GO) build ./...
test: build
	$(GO) test ./...
bench-%: ; @echo pattern targets are skipped
$(VARTARGET): ; @echo computed targets are skipped
ci: build test
`
	if err := os.WriteFile(makefile, []byte(mk), 0o644); err != nil {
		t.Fatal(err)
	}
	md := "# doc\n" +
		"Run `make build` then `make test`; make sure prose is ignored.\n" +
		"```sh\n" +
		"make ci && make gone\n" +
		"```\n" +
		"Inline `make vanished -j4` is checked too.\n"
	path := filepath.Join(dir, "doc.md")
	if err := os.WriteFile(path, []byte(md), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkMakeRefs(makefile, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(findings, "\n")
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want exactly the two unknown targets", findings)
	}
	for _, want := range []string{`"gone"`, "doc.md:4", `"vanished"`, "doc.md:6"} {
		if !strings.Contains(joined, want) {
			t.Errorf("findings missing %s:\n%s", want, joined)
		}
	}
	for _, tooMuch := range []string{`"sure"`, `"build"`, `"test"`, `"ci"`} {
		if strings.Contains(joined, tooMuch) {
			t.Errorf("false positive on %s:\n%s", tooMuch, joined)
		}
	}
}

// TestRepoMakeRefs runs the make-target check over the repository's own
// docs against its Makefile — the contract `make lint-docs` enforces.
func TestRepoMakeRefs(t *testing.T) {
	root := "../.."
	findings, err := checkMakeRefs(filepath.Join(root, "Makefile"), []string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "ARCHITECTURE.md"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		t.Errorf("docs reference unknown make targets:\n%s", strings.Join(findings, "\n"))
	}
}

// TestCheckLinks covers resolvable, broken, anchored and external links.
func TestCheckLinks(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "target.md"), []byte("# target\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	md := `# doc
[good](target.md) and [anchored](target.md#section) and [external](https://example.com/x)
[broken](missing.md) and [anchor-only](#local)
`
	path := filepath.Join(dir, "doc.md")
	if err := os.WriteFile(path, []byte(md), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkLinks([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "missing.md") {
		t.Errorf("findings = %v, want exactly the broken link", findings)
	}
	if !strings.Contains(findings[0], "doc.md:3") {
		t.Errorf("finding %q should name line 3", findings[0])
	}
}
