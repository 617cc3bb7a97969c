package netsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSimulationReadsNoWallClock fences the simulated world off the wall
// clock: every artifact is a function of (seed, config, simulated time), so
// no non-test file of the packages below may call a time function that reads
// or waits on real time. The only exceptions are the two Stats.Elapsed
// measurements, which report how long a run took and feed no result.
func TestSimulationReadsNoWallClock(t *testing.T) {
	banned := map[string]bool{
		"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
		"NewTimer": true, "Tick": true, "NewTicker": true, "AfterFunc": true,
	}
	// allowed names, per file under internal/, the one function that may.
	allowed := map[string]string{
		"attack/campaign.go":     "Run",
		"core/scan/segmented.go": "Run",
	}
	roots := []string{"netsim", "protocols", "core", "attack", "honeypot",
		"iot", "telescope", "geo", "intel", "datasets", "prng"}

	fset := token.NewFileSet()
	for _, root := range roots {
		files := 0
		err := filepath.WalkDir(filepath.Join("..", root), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			files++
			pkg := timeImportName(f)
			if pkg == "" {
				return nil
			}
			rel := filepath.ToSlash(strings.TrimPrefix(path, ".."+string(filepath.Separator)))
			for _, decl := range f.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				if fn != nil && allowed[rel] == fn.Name.Name {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg && id.Obj == nil && banned[sel.Sel.Name] {
							t.Errorf("%s: time.%s reads the wall clock", fset.Position(sel.Pos()), sel.Sel.Name)
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if files == 0 {
			t.Fatalf("found no Go file under internal/%s", root)
		}
	}
}

// timeImportName returns the name under which f imports package time, or ""
// when it does not.
func timeImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "time"
		}
	}
	return ""
}
