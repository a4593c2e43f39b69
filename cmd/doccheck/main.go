// Command doccheck enforces the repository's documentation contracts
// without external tooling:
//
//	doccheck -exported ./internal/transport ./internal/rp ...
//
// reports every exported identifier (package, type, function, method,
// const/var group) that lacks a doc comment — the `revive exported` /
// golint rule, implemented on go/ast so CI needs nothing outside the
// standard toolchain. Test files are ignored.
//
//	doccheck -links README.md ARCHITECTURE.md ...
//
// checks every relative markdown link target exists on disk (external
// http(s) links are skipped; anchors are stripped), so renames and moves
// cannot silently break the docs.
//
//	doccheck -make -makefile Makefile README.md ARCHITECTURE.md ...
//
// checks every `make <target>` invocation shown in the markdown files
// (inside inline code spans or fenced code blocks) names a target the
// Makefile actually declares, so renamed or removed targets cannot leave
// stale instructions in the docs.
//
// Exit status is non-zero if any check fails; findings go to stdout one
// per line as file:line: message.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	exported := flag.Bool("exported", false, "check exported identifiers have doc comments; args are package directories")
	links := flag.Bool("links", false, "check relative markdown links resolve; args are markdown files")
	makeRefs := flag.Bool("make", false, "check `make <target>` references in markdown name real Makefile targets; args are markdown files")
	makefile := flag.String("makefile", "Makefile", "Makefile to resolve -make targets against")
	flag.Parse()
	modes := 0
	for _, m := range []bool{*exported, *links, *makeRefs} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "doccheck: exactly one of -exported, -links or -make is required")
		os.Exit(2)
	}
	var findings []string
	var err error
	switch {
	case *exported:
		findings, err = checkExported(flag.Args())
	case *links:
		findings, err = checkLinks(flag.Args())
	default:
		findings, err = checkMakeRefs(*makefile, flag.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// checkExported walks each package directory and reports exported
// identifiers without doc comments.
func checkExported(dirs []string) ([]string, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("-exported needs at least one package directory")
	}
	var findings []string
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", dir, err)
		}
		for name, pkg := range pkgs {
			findings = append(findings, checkPackage(fset, name, pkg)...)
		}
	}
	return findings, nil
}

// checkPackage applies the exported-doc rule to one parsed package.
func checkPackage(fset *token.FileSet, name string, pkg *ast.Package) []string {
	var findings []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}

	hasPkgDoc := false
	for _, file := range pkg.Files {
		if file.Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		for _, file := range pkg.Files {
			report(file.Package, "package %s has no package comment", name)
			break
		}
	}

	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				// revive's exported rule skips methods on unexported
				// types: they are not part of the package's API.
				if d.Recv != nil && !ast.IsExported(recvTypeName(d.Recv)) {
					continue
				}
				if d.Name.IsExported() && d.Doc == nil {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					report(d.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(d, report)
			}
		}
	}
	return findings
}

// recvTypeName returns the base type name of a method receiver
// (T, *T, T[P] and *T[P] all yield "T").
func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.IndexExpr:
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// checkGenDecl applies the rule to a type/const/var declaration: each
// exported name needs a doc comment on its spec or (for grouped
// const/var declarations) on the group.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, ...any)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				report(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			documented := d.Doc != nil || s.Doc != nil || s.Comment != nil
			if documented {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					report(n.Pos(), "exported %s %s has no doc comment", strings.ToLower(d.Tok.String()), n.Name)
				}
			}
		}
	}
}

// makeTarget matches a Makefile rule line; the first group is the
// space-separated target list before the colon.
var makeTarget = regexp.MustCompile(`^([A-Za-z0-9_.\- %$()]+?)::?(?:[^=]|$)`)

// makeRef matches a `make <target>` invocation inside documentation code;
// the first group is the target word.
var makeRef = regexp.MustCompile(`(?:^|[\s;&|(` + "`" + `])make\s+([A-Za-z0-9_.\-]+)`)

// inlineCode matches inline markdown code spans.
var inlineCode = regexp.MustCompile("`[^`]+`")

// makefileTargets parses the declared rule targets out of a Makefile.
// Pattern rules and targets computed from variables are skipped — they
// cannot be matched against a documented literal name anyway.
func makefileTargets(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "#") {
			continue
		}
		m := makeTarget.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, t := range strings.Fields(m[1]) {
			if strings.ContainsAny(t, "%$") || strings.HasPrefix(t, ".") {
				continue
			}
			targets[t] = true
		}
	}
	return targets, nil
}

// checkMakeRefs verifies that every `make <target>` reference shown in
// the markdown files — inside inline code spans or fenced code blocks —
// names a target declared in the Makefile.
func checkMakeRefs(makefile string, files []string) ([]string, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("-make needs at least one markdown file")
	}
	targets, err := makefileTargets(makefile)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no targets found in %s", makefile)
	}
	var findings []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			// Only code is checked: prose uses of the word "make" are
			// not invocations.
			var code []string
			if fenced {
				code = []string{line}
			} else {
				code = inlineCode.FindAllString(line, -1)
			}
			for _, c := range code {
				for _, m := range makeRef.FindAllStringSubmatch(c, -1) {
					if target := m[1]; !targets[target] {
						findings = append(findings, fmt.Sprintf(
							"%s:%d: make target %q not declared in %s", file, i+1, target, makefile))
					}
				}
			}
		}
	}
	return findings, nil
}

// mdLink matches inline markdown links; the first group is the target.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkLinks verifies every relative link target in the given markdown
// files exists on disk.
func checkLinks(files []string) ([]string, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("-links needs at least one markdown file")
	}
	var findings []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		base := filepath.Dir(file)
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue // external
				}
				if h := strings.IndexByte(target, '#'); h >= 0 {
					target = target[:h]
				}
				if target == "" {
					continue // in-document anchor
				}
				if _, err := os.Stat(filepath.Join(base, target)); err != nil {
					findings = append(findings, fmt.Sprintf("%s:%d: broken link target %q", file, i+1, m[1]))
				}
			}
		}
	}
	return findings, nil
}
