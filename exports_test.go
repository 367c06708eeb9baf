package tricount

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyExportAllowlist names the exported functions and methods under
// internal/ that no non-test file references and that stay on purpose. Each
// entry is "package.Name" (methods by name; the check does not tell
// receivers apart) with the reason it is kept.
var testOnlyExportAllowlist = map[string]string{
	"graph.BuildHubs":           "TriC's hub index, kept until a TriC bench row can measure it",
	"graph.NumHubs":             "TriC's hub index, kept until a TriC bench row can measure it",
	"graph.HubBitset":           "TriC's hub index, kept until a TriC bench row can measure it",
	"graph.FromSortedAdjacency": "builds the hostile CSRs that core's rank tests feed to the PEs",
	"core.NaiveCount":           "the textbook reference oracle the counters are checked against",
	"transport.FaultReason":     "assertion accessor: why a TCP endpoint failed",
	"graph.IsClear":             "assertion accessor: a mark is all zero between records",
	"graph.NGhost":              "assertion accessor: a local view's ghost count",
	"graph.Domain":              "assertion accessor: a 2D block's vertex domain",
	"comm.Cols":                 "assertion accessor: an indirection grid's column count",
	"graph.BuildLocal":          "one-thread twin of the bench's BuildLocalPar; goes when the bench probes are re-pointed",
	"graph.ScatterEdges":        "one-thread twin of the bench's ScatterEdgesPar; goes when the bench probes are re-pointed",
}

// exemptExportPackages are the test-helper packages: their exports exist
// for tests by design.
var exemptExportPackages = map[string]bool{"testgraph": true, "leakcheck": true, "chaos": true}

// TestNoTestOnlyExports keeps exports that only tests call from growing
// back. It parses every Go file of the repository, cmd/bench's module
// included, and fails on an exported top-level function or method under
// internal/ whose name no non-test file mentions other than at its own
// declaration. The check goes by name, not by type, so it errs towards
// passing: any use of the same name anywhere counts.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	type decl struct {
		pkg, name string
		method    bool
		pos       token.Position
	}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		parts := strings.Split(filepath.ToSlash(filepath.Dir(path)), "/")
		if parts[0] == "internal" && len(parts) > 1 && !exemptExportPackages[parts[1]] {
			for _, dd := range f.Decls {
				if fd, ok := dd.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					declared[fd.Name] = true
					decls = append(decls, decl{parts[1], fd.Name.Name, fd.Recv != nil, fset.Position(fd.Pos())})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported function under internal/: is the test running at the module root?")
	}
	var unused []string // in walk order: by path, then position
	allowed := map[string]bool{}
	for _, d := range decls {
		key := d.pkg + "." + d.name
		switch {
		// An Unwrap method is called by errors.Is/As, which no file names.
		case used[d.name] || d.method && d.name == "Unwrap":
		case testOnlyExportAllowlist[key] != "":
			allowed[key] = true
		default:
			unused = append(unused, key+" ("+d.pos.String()+")")
		}
	}
	for _, u := range unused {
		t.Errorf("exported but referenced from no non-test file: %s", u)
	}
	// An entry that names nothing test-only any more is dropped, so the list
	// cannot keep a name alive for code that is gone or now used.
	for key := range testOnlyExportAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no test-only export; remove it", key)
		}
	}
}
