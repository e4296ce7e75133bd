package nccd

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// optionType matches the struct types whose exported fields are settable
// values: a caller fills them in to choose what the code does.
var optionType = regexp.MustCompile(`^([A-Z]\w*)?(Config|Options|Params|Spec)$`)

// testOnlyOptions are the settable values that only tests set, each with a
// test that needs it (ABLATION.md "Options census").
var testOnlyOptions = map[string]string{
	"service.AdmissionConfig.MaxQueue":   "TestServiceQueueWatermark",
	"service.AdmissionConfig.MaxRunning": "TestServiceQueueWatermark",
	"service.AdmissionConfig.RetryAfter": "TestServiceQueueWatermark",
	"ckptio.Options.Keep":                "TestPruneRetention",
}

// TestEveryOptionHasASetter: every exported field of an exported struct
// type under internal/ named *Config, *Options, *Params or *Spec is set by
// some non-test code under internal/, cmd/, examples/ or benchmarks/, or is
// listed in testOnlyOptions with the test that sets it.  A value nothing
// sets is a constant in disguise.
//
// A setter is a keyed composite-literal entry, an assignment (or ++/--) to
// a selector, every selector of its chain included, or &x.F handed to a
// call, as a flag binder takes it.  An assignment inside a method of an
// option type is the type filling its own defaults and does not count.
// Fields match by name alone, so a setter of one type's field counts for
// every field of that name: the test can only under-report.
func TestEveryOptionHasASetter(t *testing.T) {
	type field struct{ key, pos string }
	var fields []field
	set := make(map[string]bool)
	tests := make(map[string]bool)
	var roots []string
	for _, r := range treeRoots {
		roots = append(roots, strings.TrimSuffix(r, "/"))
	}
	walkGo(t, roots, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					tests[fd.Name.Name] = true
				}
			}
			return
		}
		pkg := filepath.Base(filepath.Dir(path))
		for _, d := range f.Decls {
			own := false
			switch d := d.(type) {
			case *ast.FuncDecl:
				own = d.Recv != nil && optionType.MatchString(recvName(d.Recv.List[0].Type))
			case *ast.GenDecl:
				if strings.HasPrefix(path, "internal/") {
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok || !optionType.MatchString(ts.Name.Name) {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, fd := range st.Fields.List {
							for _, n := range fd.Names {
								if n.IsExported() {
									fields = append(fields, field{pkg + "." + ts.Name.Name + "." + n.Name, path})
								}
							}
						}
					}
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						set[k.Name] = true
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE && !own {
						for _, l := range n.Lhs {
							markChain(set, l)
						}
					}
				case *ast.IncDecStmt:
					if !own {
						markChain(set, n.X)
					}
				case *ast.CallExpr:
					for _, a := range n.Args {
						if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
							markChain(set, u.X)
						}
					}
				}
				return true
			})
		}
	})
	sort.Slice(fields, func(i, j int) bool { return fields[i].key < fields[j].key })
	seen := make(map[string]bool)
	for _, fd := range fields {
		seen[fd.key] = true
		name := fd.key[strings.LastIndex(fd.key, ".")+1:]
		test, allowed := testOnlyOptions[fd.key]
		switch {
		case !set[name] && !allowed:
			t.Errorf("%s (%s) has no setter outside tests: make it a constant, or list the test that needs it", fd.key, fd.pos)
		case allowed && !tests[test]:
			t.Errorf("testOnlyOptions: %s names %s, which no test file declares", fd.key, test)
		}
	}
	for key := range testOnlyOptions {
		if !seen[key] {
			t.Errorf("testOnlyOptions: %s is no option field in the tree", key)
		}
	}
}

// recvName is the type name of a method receiver, pointer or not.
func recvName(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// markChain marks every field a selector chain such as a.B.C[i].D writes
// through as set.
func markChain(set map[string]bool, e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			set[x.Sel.Name] = true
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return
		}
	}
}
