package graphlocality_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that only
// tests reach and that stay anyway, each with its reason. Keys are
// "<package dir>.<Name>" for functions and types and
// "<package dir>.<Type>.<Method>" for methods.
var exportAllowlist = map[string]string{
	"internal/reorder.RabbitOrder.CommunitySizes": "TestHeavyPermutationsPinned pins the community sizes through it",
	"internal/runctl.HitCount":                    "cross-package test seam: tests elsewhere check how often a failpoint fired",
	"internal/vfs.FakeClock.Advance":              "the fake clock that tests substitute for Config.Clock",
	"internal/vfs.FakeClock.Waiters":              "the fake clock that tests substitute for Config.Clock",
	"internal/vfs.NewFakeClock":                   "the fake clock that tests substitute for Config.Clock",
	"internal/gen.Ring":                           "cross-package test fixture graph",
	"internal/gen.Star":                           "cross-package test fixture graph",
	"internal/gen.Grid":                           "cross-package test fixture graph",
	"internal/gen.DefaultRMAT":                    "cross-package test fixture graph",
	"internal/store.TryLockExclusive":             "the only check that the store's locks exclude each other",
	"internal/chaos.ParseSchedule":                "its fuzz target checks that schedule strings parse back",
	"internal/graph.ReadEdgeList":                 "giving it a caller needs a new CLI flag, a separate decision",
	"internal/graph.Graph.WriteEdgeList":          "giving it a caller needs a new CLI flag, a separate decision",
	"internal/obs.Manifest.Normalized":            "cross-package test seam: the golden and parity tests compare normalized manifests",
	"internal/core.SimulateSpMVSegmented":         "its caller is the planned segmented-error experiment",
}

// ifaceMethods are the standard-library interface methods that code can
// reach without naming them (fmt calls String, errors calls Unwrap, ...).
var ifaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Format": true, "GoString": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true, "Seek": true, "ReadAt": true,
	"WriteAt": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestEveryExportHasACaller keeps the rule that every exported function,
// type and method under internal/ has a caller outside the tests: one in
// internal/, cmd/, examples/ or bench/. A helper only tests use belongs
// in the _test.go file that uses it.
//
// The scan reads syntax only. A function or type counts as used when its
// own package names it or another package selects it through an import of
// that package; a method when its package, or a file importing it, selects
// a member of that name, an interface declares it, or it satisfies a
// standard interface. Methods match by name only, whatever the receiver:
// a method passes when a caller selects a method of the same name on
// another type, so two types' methods of one name pass or fail together.
func TestEveryExportHasACaller(t *testing.T) {
	const module = "graphlocality"
	type decl struct {
		key, dir, name, recv string
		pos                  token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Declarations, and the identifiers that declare them, so that a
	// declaration and a receiver do not count as uses.
	declaring := map[*ast.Ident]bool{}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declaring[d.Name] = true
				if d.Recv == nil {
					if d.Name.IsExported() {
						decls = append(decls, decl{key: fl.dir + "." + d.Name.Name, dir: fl.dir, name: d.Name.Name, pos: fset.Position(d.Pos())})
					}
					continue
				}
				recv := recvIdent(d.Recv.List[0].Type)
				declaring[recv] = true
				if d.Name.IsExported() && recv.IsExported() {
					decls = append(decls, decl{key: fl.dir + "." + recv.Name + "." + d.Name.Name, dir: fl.dir, name: d.Name.Name, recv: recv.Name, pos: fset.Position(d.Pos())})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						declaring[ts.Name] = true
						if ts.Name.IsExported() {
							decls = append(decls, decl{key: fl.dir + "." + ts.Name.Name, dir: fl.dir, name: ts.Name.Name, pos: fset.Position(ts.Pos())})
						}
					}
				}
			}
		}
	}

	// Uses: bare identifiers per package directory, qualified selectors
	// per imported package directory, and member names selected in a
	// package directory or in a file that imports it.
	local := map[string]bool{}     // dir + "." + name
	qualified := map[string]bool{} // dir + "." + name
	selected := map[string]bool{}  // dir + "." + name
	iface := map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name -> package dir
		for _, is := range fl.f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			if !strings.HasPrefix(p, module+"/") {
				continue
			}
			name := path.Base(p)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, module+"/")
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[fl.dir+"."+n.Sel.Name] = true
				for _, dir := range imports {
					selected[dir+"."+n.Sel.Name] = true
				}
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						qualified[dir+"."+n.Sel.Name] = true
					}
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						iface[name.Name] = true
					}
				}
			case *ast.Ident:
				if !declaring[n] {
					local[fl.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var orphans []string
	for _, d := range decls {
		key := d.dir + "." + d.name
		used := local[key] || qualified[key]
		if d.recv != "" {
			used = selected[key] || iface[d.name] || ifaceMethods[d.name]
		}
		if _, ok := exportAllowlist[d.key]; ok {
			if used {
				t.Errorf("%s has a non-test caller now; drop it from exportAllowlist", d.key)
			}
			continue
		}
		if !used {
			orphans = append(orphans, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s: exported but no non-test code uses it; delete it or move it into the test that uses it", o)
	}
}

// recvIdent returns the type name of a method receiver.
func recvIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			panic("unexpected receiver expression")
		}
	}
}
