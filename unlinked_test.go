package repro_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// allowFile lists the functions that no program links but a test of other
// behaviour needs, one `symbol  # test seam: reason` per line.
const allowFile = "testdata/unlinked.allow"

// TestNoUnlinkedFunctions fails on any function declared outside tests
// that no program links: every main under cmd/ and examples/, and the
// benchmark in bench/, are linked with inlining off and the linker's
// reachability dump is diffed against the declarations. A function that
// only a test calls is dead code unless the allowlist names it as a seam;
// an allowlist entry that is linked again, or no longer declared, fails too.
//
// The linker keeps every exported method of a type that reflection can
// reach (html/template calls methods by name), so such a method stays
// "linked" whether or not anything calls it; this test cannot see those.
func TestNoUnlinkedFunctions(t *testing.T) {
	declared, mains := declaredFuncs(t)
	linked := linkedSymbols(t, mains)
	allow := readAllowlist(t)

	var dead []string
	for sym, pos := range declared {
		if !linked[sym] && allow[sym] == "" {
			dead = append(dead, pos+": "+sym)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no program links %s; delete it, or list it in %s with a `# test seam:` reason", d, allowFile)
	}
	for sym := range allow {
		switch {
		case declared[sym] == "":
			t.Errorf("%s lists %s, which is not declared outside tests", allowFile, sym)
		case linked[sym]:
			t.Errorf("%s lists %s, which a program now links; drop the entry", allowFile, sym)
		}
	}
}

// declaredFuncs returns every non-generic function and method declared in
// the module's non-test files, by linker symbol name, with its position,
// and the import paths of the module's main packages. The bench/ module is
// linked as a caller, not audited.
func declaredFuncs(t *testing.T) (map[string]string, []string) {
	t.Helper()
	declared := map[string]string{}
	mainSet := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro"
		if dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		if f.Name.Name == "main" {
			mainSet[pkg] = true
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Type.TypeParams != nil || fn.Name.Name == "_" {
				continue
			}
			sym := pkg + "."
			if fn.Recv != nil {
				recv, ok := receiverName(fn.Recv.List[0].Type)
				if !ok {
					continue
				}
				sym += recv + "."
			} else if fn.Name.Name == "init" || (fn.Name.Name == "main" && f.Name.Name == "main") {
				continue
			}
			declared[sym+fn.Name.Name] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var mains []string
	for m := range mainSet {
		mains = append(mains, m)
	}
	sort.Strings(mains)
	return declared, mains
}

// receiverName spells a method's receiver as the linker does: T or (*T).
// It reports false for a generic receiver.
func receiverName(e ast.Expr) (string, bool) {
	if star, ok := e.(*ast.StarExpr); ok {
		name, ok := receiverName(star.X)
		return "(*" + name + ")", ok
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name, true
	}
	return "", false
}

// linkedSymbols links every main package and the bench/ module with
// inlining off in this module's packages, and returns every symbol the
// linker found reachable. A main package's symbols, which the linker spells
// main.X, are returned under the package's import path.
func linkedSymbols(t *testing.T, mains []string) map[string]bool {
	t.Helper()
	linked := map[string]bool{}
	out := t.TempDir()
	dump(t, ".", out+string(filepath.Separator), mains, linked)
	dump(t, "bench", filepath.Join(out, "bench"), []string{"."}, linked)
	return linked
}

// dump builds pkgs in dir into out with the linker's dependency dump on,
// adding every symbol it reaches to linked.
func dump(t *testing.T, dir, out string, pkgs []string, linked map[string]bool) {
	t.Helper()
	args := append([]string{"build", "-o", out, "-gcflags=repro/...=-l", "-ldflags=-dumpdep"}, pkgs...)
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...)
	cmd.Dir = dir
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, b)
	}
	mainPkg := ""
	for _, line := range strings.Split(string(b), "\n") {
		if pkg, ok := strings.CutPrefix(line, "# "); ok {
			mainPkg = pkg
			continue
		}
		_, to, ok := strings.Cut(line, " -> ")
		if !ok {
			continue
		}
		to, _, _ = strings.Cut(to, " ")
		if rest, ok := strings.CutPrefix(to, "main."); ok {
			to = mainPkg + "." + rest
		}
		linked[to] = true
	}
}

// readAllowlist returns the allowlist's symbols with their reasons; an
// entry without a `# test seam:` reason fails t.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(allowFile)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, "#")
		sym = strings.TrimSpace(sym)
		reason = strings.TrimSpace(reason)
		if !strings.HasPrefix(reason, "test seam:") || len(reason) == len("test seam:") {
			t.Errorf("%s:%d: %s needs a `# test seam: reason`", allowFile, i+1, sym)
		}
		allow[sym] = reason
	}
	return allow
}
