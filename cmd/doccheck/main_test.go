package main

import (
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
