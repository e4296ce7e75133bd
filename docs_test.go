package nccd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The code names the two documents put in backticks: a qualified name
// (pkg.Ident, optionally pkg.Ident.Member) and a path in the tree.
var (
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	qualified = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)
	treeRoots = []string{"internal/", "cmd/", "examples/", "benchmarks/"}
)

// pkgNames is what one package of the tree declares, test files included.
type pkgNames struct {
	top     map[string]bool // package-level funcs, types, vars and consts
	members map[string]bool // methods, struct fields and interface methods of any of its types
}

// loadPackages indexes the packages under internal/ and cmd/ by directory
// name, the name the documents qualify with.
func loadPackages(t *testing.T) map[string]*pkgNames {
	t.Helper()
	pkgs := make(map[string]*pkgNames)
	walkGo(t, []string{"internal", "cmd"}, func(path string, f *ast.File) {
		name := filepath.Base(filepath.Dir(path))
		p := pkgs[name]
		if p == nil {
			p = &pkgNames{top: make(map[string]bool), members: make(map[string]bool)}
			pkgs[name] = p
		}
		p.add(f)
	})
	return pkgs
}

// walkGo parses every Go file under roots, test files included, and hands
// each to visit with its path.
func walkGo(t *testing.T, roots []string, visit func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			visit(path, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func (p *pkgNames) add(f *ast.File) {
	fields := func(fl *ast.FieldList) {
		for _, fd := range fl.List {
			for _, n := range fd.Names {
				p.members[n.Name] = true
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				p.members[d.Name.Name] = true
			} else {
				p.top[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					p.top[s.Name.Name] = true
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields(ty.Fields)
					case *ast.InterfaceType:
						fields(ty.Methods)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.top[n.Name] = true
					}
				}
			}
		}
	}
}

// TestDocReferences: every code name DESIGN.md and README.md put in
// backticks still exists.  A qualified name pkg.Ident whose pkg is the
// directory name of a package under internal/ or cmd/ and whose Ident is
// exported must be declared in that package, at package level (a test's
// name counts) or as a member of one of its types (the documents write
// dmda.GhostUpdate for the method), and a member after it must be declared
// on one of the package's types; a lowercase dotted name is a metric key
// and is not checked.  A path that starts with internal/, cmd/, examples/
// or benchmarks/ must match something, after its ":line" suffix and a
// trailing "/..." are cut; it may be a glob.
func TestDocReferences(t *testing.T) {
	pkgs := loadPackages(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose := withoutFences(string(text))
		for _, m := range codeSpan.FindAllStringSubmatchIndex(prose, -1) {
			line := 1 + strings.Count(prose[:m[0]], "\n")
			code := strings.Join(strings.Fields(prose[m[2]:m[3]]), " ")
			for _, q := range qualified.FindAllStringSubmatch(code, -1) {
				p := pkgs[q[1]]
				if p == nil {
					continue
				}
				if !(p.top[q[2]] || p.members[q[2]]) || (q[3] != "" && !p.members[q[3]]) {
					t.Errorf("%s:%d: `%s` names nothing in the tree", doc, line, q[0])
				}
			}
			if path, ok := treePath(code); ok {
				if found, _ := filepath.Glob(path); len(found) == 0 {
					t.Errorf("%s:%d: `%s`: no %s in the tree", doc, line, code, path)
				}
			}
		}
	}
}

// withoutFences blanks the lines of fenced code blocks, keeping the line
// count, so that a code span is only ever inline code.
func withoutFences(text string) string {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

// treePath is the file or directory a code span names, if it starts with
// one of treeRoots.
func treePath(code string) (string, bool) {
	for _, root := range treeRoots {
		if strings.HasPrefix(code, root) {
			path := strings.Fields(code)[0]
			path, _, _ = strings.Cut(path, ":")
			return strings.TrimSuffix(path, "/..."), true
		}
	}
	return "", false
}
