package engine

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEngineIsTheOnlyDispatcher keeps the seam the only caller of the
// parallel engines without anyone having to remember it: no non-test
// file outside this package (and the frozen bench/, which measures the
// engine packages directly) may import gradsync or halo.
func TestEngineIsTheOnlyDispatcher(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+"/"))
		if d.IsDir() {
			hidden := strings.HasPrefix(d.Name(), ".") && path != root // .git, .github
			if hidden || rel == "bench" || rel == "internal/engine" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); p {
			case "ptychopath/internal/gradsync", "ptychopath/internal/halo":
				t.Errorf("%s imports %s: run the engines through internal/engine", rel, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClientImportsStandardLibraryOnly keeps package client what the
// service's own types can be aliases of and what a program outside this
// module can vendor: the one declaration of the /v1 schema, importing
// nothing from this module (an import of internal/jobs would also be a
// cycle) and nothing third-party.
func TestClientImportsStandardLibraryOnly(t *testing.T) {
	files, err := filepath.Glob("../../client/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no files in package client (%v)", err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if first, _, _ := strings.Cut(p, "/"); strings.Contains(first, ".") || first == "ptychopath" {
				t.Errorf("%s imports %s: package client is standard library only", filepath.Base(path), p)
			}
		}
	}
}
