package amjs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported internal functions that may stay
// without a non-test caller, each with the reason it earns its place.
var testOnlyAllowed = map[string]string{
	"internal/core.BalancedPriority": "Eq. 3 as the paper writes it; the score tests check the ranking against it",
	"internal/job.ByID":              "a lookup helper the sim tests use to find jobs in a result",
	"internal/sched.Orders":          "the registry of priority orders that the order property suite walks",
}

// TestNoTestOnlyFunctions fails on an exported top-level function under
// internal/ whose name no non-test file of the module mentions: such a
// function is code only its own tests keep alive. The check is by name,
// so any identifier spelled the same way, in any package, counts as a
// caller; that errs towards keeping code. Methods are out of scope: a
// method can be called through an interface whose method set never
// names its receiver type, so a name-based scan cannot tell a dead
// method from a live one.
func TestNoTestOnlyFunctions(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, name string }
	var decls []decl
	referenced := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		declNames := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if fd.Recv == nil && fd.Name.IsExported() && strings.HasPrefix(dir, "internal/") {
				decls = append(decls, decl{dir + "." + fd.Name.Name, fd.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				referenced[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/; is the test running from the module root?")
	}
	unused := map[string]bool{}
	var dead []string
	for _, d := range decls {
		if !referenced[d.name] {
			unused[d.key] = true
			if testOnlyAllowed[d.key] == "" {
				dead = append(dead, d.key)
			}
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or add it to testOnlyAllowed with a reason", key)
	}
	for key := range testOnlyAllowed {
		if !unused[key] {
			t.Errorf("testOnlyAllowed lists %s, which is gone or now has a non-test caller: drop the entry", key)
		}
	}
}
