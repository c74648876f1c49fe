package lcsim

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

// surfaceAllowlist names the exported functions and methods under
// internal/ that no program calls but that stay, each with its reason.
// Keys are "<package dir>.<Func>" or "<package dir>.<Type>.<Method>".
var surfaceAllowlist = map[string]string{
	"internal/core.Path.Evaluate":                  "godoc example: core's package Example evaluates a path with it",
	"internal/poleres.Convolver.Advance":           "godoc example: ExampleConvolver steps the convolver with it",
	"internal/poleres.Convolver.SetInitialCurrent": "godoc example: ExampleConvolver starts from a current step with it",
	"internal/sparse.CSC.NNZ":                      "godoc example: sparse's package Example prints it",
	"internal/experiments.BuildExample2Stage":      "root benchmark: bench_test.go builds the Example-2 stage with it",
	"internal/experiments.Example2Samples":         "root benchmark: bench_test.go draws the Example-2 samples with it",
	"internal/job.Duration.MarshalJSON":            "encoding/json: a spec's durations encode through it",
	"internal/job.Duration.UnmarshalJSON":          "encoding/json: a spec's durations decode through it",
	"internal/core.SampleError.Unwrap":             "errors.Is and errors.As reach a sample's cause through it",
	"internal/runner.skipError.Is":                 "errors.Is matches runner.SkipSample through it",
	"internal/runner.skipError.Unwrap":             "errors.Is and errors.As reach a skip's cause through it",
	"internal/mor.PortImpedance":                   "test oracle: the full model's port impedance the reduction tests compare against",
	"internal/mor.Moments":                         "test oracle: the full model's moments the moment-matching tests compare against",
	"internal/mor.ROM.ROMMoments":                  "test oracle: the reduced model's moments for the moment-matching tests",
	"internal/mor.ROM.ROMImpedance":                "test oracle: the reduced model's port impedance for the reduction tests",
	"internal/poleres.Macromodel.Z":                "test oracle: the pole/residue impedance the extraction tests compare against",
	"internal/sparse.LU.NNZ":                       "test oracle: the fill-in check of the sparse LU tests",
	"internal/stat.PCA.Transform":                  "test oracle: maps data to factor scores to check PCA.Inverse and decorrelation",
	"internal/mat.NewDenseData":                    "test fixtures: tests in four packages build literal matrices with it",
	"internal/mat.Dense.IsSymmetric":               "test oracle: the symmetry check of the mat and mor tests",
	"internal/device.CellNames":                    "test fixtures: tests in three packages range over the cell library with it",
	"internal/teta.Stage.Primed":                   "test probe: core's stage-sharing test checks that only a chain's first stage holds a DC warm start",
}

// surfaceDecl is one exported function or method declared under internal/.
type surfaceDecl struct {
	pkg, recv, name string
	pos             token.Position
}

func (d surfaceDecl) key() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

// TestSurfaceHasCallers keeps the library surface to what runs: every
// exported function and method declared under internal/ must be named
// somewhere in the non-test Go of the repo (cmd/, examples/, perfbench/
// and the internal packages themselves) outside its own declaration, or
// be in surfaceAllowlist with a reason. Names are matched without type
// information: a package-level function counts as referenced by its
// package-qualified selector in another package or by its bare name in
// its own package, and a method by any selector of its name whose
// operand is not an imported package. So the guard can miss a dead
// method whose name another type also uses, but it flags no function
// that a program names (the repo has no dot imports).
func TestSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	var decls []surfaceDecl
	pkgRefs := map[string]bool{} // "<package dir>.<Name>"
	methodRefs := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			if p != "." && (strings.HasPrefix(de.Name(), ".") || de.Name() == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{} // local name -> package dir
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(ip, "lcsim/")
			if !ok {
				rel = ip
			}
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rel
		}
		// refs records the names n mentions; self is the declaration
		// the names sit in, whose mentions of itself do not count.
		var refs func(n ast.Node, self surfaceDecl)
		refs = func(n ast.Node, self surfaceDecl) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if pkg, ok := imports[x.Name]; ok {
							pkgRefs[pkg+"."+n.Sel.Name] = true
							return false
						}
					}
					if self.recv == "" || n.Sel.Name != self.name {
						methodRefs[n.Sel.Name] = true
					}
					refs(n.X, self)
					return false
				case *ast.Ident:
					if self.recv != "" || n.Name != self.name {
						pkgRefs[dir+"."+n.Name] = true
					}
				}
				return true
			})
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				// Package-level variables can name functions too
				// (registries, method values).
				refs(d, surfaceDecl{})
				continue
			}
			self := surfaceDecl{pkg: dir, recv: recvName(fd), name: fd.Name.Name, pos: fset.Position(fd.Pos())}
			if strings.HasPrefix(dir, "internal/") && fd.Name.IsExported() {
				decls = append(decls, self)
			}
			if fd.Body != nil {
				refs(fd.Body, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	declared := map[string]bool{}
	for _, d := range decls {
		k := d.key()
		declared[k] = true
		used := pkgRefs[d.pkg+"."+d.name]
		if d.recv != "" {
			used = methodRefs[d.name]
		}
		if _, ok := surfaceAllowlist[k]; ok {
			if used {
				t.Errorf("%s: allowlisted, but a program now calls it; drop it from surfaceAllowlist", k)
			}
			continue
		}
		if !used {
			dead = append(dead, d.pos.String()+": "+k)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but only tests call it: delete it, or allowlist it with a reason", d)
	}
	for k := range surfaceAllowlist {
		if !declared[k] {
			t.Errorf("%s: allowlisted, but no longer declared; drop it from surfaceAllowlist", k)
		}
	}
}

// recvName returns the receiver's type name ("" for a plain function).
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	e := fd.Recv.List[0].Type
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
