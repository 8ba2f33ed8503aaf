package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// wallClock names the package time functions that read or wait on the wall
// clock.
var wallClock = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"NewTicker": true, "NewTimer": true, "Tick": true,
}

// TestClockSeam: virtual time only works if the packages that run under the
// engine never touch the wall clock directly — every delay, timer and
// timestamp rides a runtime's clock (mts.Runtime.After, vclock.Clock), so a
// virtual mesh stays deterministic. It parses every non-test file of core,
// sim and netsim and fails on any use of a wall-clock function of package
// time, under whatever name the file imports it.
func TestClockSeam(t *testing.T) {
	var files []string
	for _, dir := range []string{"../core", ".", "../netsim"} {
		m, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		local := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				local = "time"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == local && wallClock[sel.Sel.Name] {
				t.Errorf("%s: time.%s outside the clock seam", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if checked < 10 {
		t.Fatalf("parsed %d files; the package paths have moved", checked)
	}
}
