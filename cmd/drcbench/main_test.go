package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunUnknownExperiment(t *testing.T) {
	for _, ids := range []string{"E18", "E02,bogus"} {
		var out, errOut bytes.Buffer
		if code := realMain([]string{"-run", ids}, &out, &errOut); code != 2 {
			t.Errorf("-run %s: exit %d, want 2", ids, code)
		}
		bad := ids[strings.LastIndex(ids, ",")+1:]
		if !strings.Contains(errOut.String(), strings.ToUpper(bad)) {
			t.Errorf("-run %s: stderr %q does not name %s", ids, errOut.String(), bad)
		}
		if out.Len() != 0 {
			t.Errorf("-run %s printed a table before refusing: %q", ids, out.String())
		}
	}
}

func TestRunQuickTable(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-quick", "-run", "e02"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "E02 — ") || strings.Contains(out.String(), "E03") {
		t.Fatalf("want the E02 table alone, got:\n%s", out.String())
	}
}
