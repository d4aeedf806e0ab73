package dic

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestBenchmarksNameMetric keeps the root benchmarks on the one
// measurement surface: every Benchmark in bench_test.go names, in its doc
// comment, the BENCHMARK.json per_layer metric it isolates. A benchmark
// that isolates none of them times something no gate reads, and goes.
func TestBenchmarksNameMetric(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json lists no per_layer metric")
	}
	f, err := parser.ParseFile(token.NewFileSet(), "bench_test.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Benchmark") {
			continue
		}
		n++
		doc := fd.Doc.Text()
		named := false
		for _, m := range spec.PerLayer {
			named = named || strings.Contains(doc, m.Name)
		}
		if !named {
			t.Errorf("%s: doc comment names no BENCHMARK.json per_layer metric", fd.Name.Name)
		}
	}
	if n == 0 {
		t.Fatal("bench_test.go declares no benchmark")
	}
}
