package dic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	experimentID = regexp.MustCompile(`^E[0-9][0-9]$`)
	testFuncName = regexp.MustCompile(`^(Test|Example|Fuzz|Benchmark)[A-Z_][A-Za-z0-9_]*$`)
)

// TestReadmeMap keeps README.md the map of the repository: at most 450
// lines, and every row of its Map table names paths that exist, drcbench
// experiments that exist and Test or Example functions that exist, while
// every experiment drcbench runs has a row. Test, Example, Fuzz and
// Benchmark names quoted anywhere else in README.md must exist too.
func TestReadmeMap(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if n := strings.Count(text, "\n"); n > 450 {
		t.Errorf("README.md has %d lines, more than 450", n)
	}
	exps := drcbenchExperiments(t)
	funcs := testFuncs(t)

	rows := readmeMapRows(text)
	if len(rows) == 0 {
		t.Fatal("README.md has no Map table")
	}
	mapped := make(map[string]bool)
	for _, row := range rows {
		for _, tok := range codeSpans(row) {
			switch {
			case experimentID.MatchString(tok):
				if !exps[tok] {
					t.Errorf("map names experiment %s, which drcbench does not run", tok)
				}
				mapped[tok] = true
			case strings.Contains(tok, "/"):
				if _, err := os.Stat(tok); err != nil {
					t.Errorf("map names a missing path: %v", err)
				}
			}
		}
	}
	for id := range exps {
		if !mapped[id] {
			t.Errorf("drcbench runs %s, which the map does not name", id)
		}
	}

	for _, tok := range codeSpans(stripFences(text)) {
		name, _, _ := strings.Cut(tok, "/") // a subtest names its test
		if testFuncName.MatchString(name) && !funcs[name] {
			t.Errorf("README.md names %s, which no test file declares", tok)
		}
	}
}

// readmeMapRows returns the table rows of README.md's "## Map" section.
func readmeMapRows(text string) []string {
	var rows []string
	in := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "## ") {
			in = line == "## Map"
			continue
		}
		if in && strings.HasPrefix(line, "|") && !strings.HasPrefix(line, "|---") {
			rows = append(rows, line)
		}
	}
	if len(rows) > 0 {
		rows = rows[1:] // the header
	}
	return rows
}

// stripFences drops fenced code blocks, whose backquotes are not code spans.
func stripFences(text string) string {
	var b strings.Builder
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// codeSpans returns the contents of the inline `code` spans in text.
func codeSpans(text string) []string {
	parts := strings.Split(text, "`")
	var out []string
	for i := 1; i < len(parts); i += 2 {
		out = append(out, parts[i])
	}
	return out
}

// drcbenchExperiments returns the experiment ids cmd/drcbench runs: the
// string literals of its source that look like one.
func drcbenchExperiments(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", "drcbench", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && experimentID.MatchString(s) {
				ids[s] = true
			}
		}
		return true
	})
	if len(ids) == 0 {
		t.Fatal("cmd/drcbench/main.go names no experiment")
	}
	return ids
}

// testFuncs returns the top-level functions declared in the module's test
// files, outside the nested bench/ module.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}
