package core

// The oracle: how the engine is held to the spec (requireSpec), and the spec
// to the paper's stated verdicts.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/tech"
	"repro/internal/workload"
)

// specFamily reports whether the spec decides a violation: the connection
// and interaction checks. A device's findings about its own geometry carry
// its symbol and are not interactions.
func specFamily(v *Violation) bool {
	switch v.Rule {
	case "CONN.ILLEGAL", "DEV.ACCIDENTAL", "DEV.GATE.CONTACT", "DEV.NPN.ISO":
		return v.Symbol == ""
	}
	return strings.HasPrefix(v.Rule, "S.")
}

// requireSpec fails the test unless the report agrees with the spec: the
// same partition of the design into nets, and the same multiset of
// violations in the spec's families. The spec's nets are named after the
// engine's net of the same signature (an open net's pieces share one name,
// so a name need not identify a net).
func requireSpec(t *testing.T, label string, rep *Report, want specReport) {
	t.Helper()
	var nets, got, exp []string
	name := map[string]string{}
	if nl := rep.Netlist; nl != nil {
		for i := range nl.Nets {
			n := &nl.Nets[i]
			var terms []string
			for _, tr := range n.Terminals {
				dev := &nl.Devices[tr.Device]
				terms = append(terms, fmt.Sprint(dev.Path, "@", dev.T, ":", tr.Terminal))
			}
			sig := netSignature(nl.NetBounds(i), n.Elements, terms)
			name[sig] = n.Name
			nets = append(nets, sig)
		}
	}
	key := func(v Violation) string {
		return fmt.Sprintf("%s %v %v path=%q layer=%d nets=%q: %s", v.Rule, v.Severity, v.Where, v.Path, v.Layer, v.Nets, v.Detail)
	}
	for _, v := range rep.Violations {
		if specFamily(&v) {
			got = append(got, key(v))
		}
	}
	for _, v := range want.violations {
		sigs := v.Nets
		v.Nets = make([]string, len(sigs))
		for k, sig := range sigs {
			v.Nets[k] = name[sig]
		}
		exp = append(exp, key(v))
	}
	requireSameMultiset(t, label+": nets", nets, want.nets)
	requireSameMultiset(t, label+": violations", got, exp)
}

func requireSameMultiset(t *testing.T, label string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	var extra, missing []string
	for i, j := 0, 0; i < len(got) || j < len(want); {
		switch {
		case j == len(want) || i < len(got) && got[i] < want[j]:
			extra, i = append(extra, got[i]), i+1
		case i == len(got) || want[j] < got[i]:
			missing, j = append(missing, want[j]), j+1
		default:
			i, j = i+1, j+1
		}
	}
	if len(extra)+len(missing) > 0 {
		t.Fatalf("%s: engine differs from the spec\nextra:   %q\nmissing: %q", label, clipList(extra), clipList(missing))
	}
}

func clipList(s []string) []string {
	if len(s) > 6 {
		return append(s[:6:6], fmt.Sprintf("...and %d more", len(s)-6))
	}
	return s
}

// TestSpecMatchesPaperVerdicts checks the oracle against the paper rather
// than the engine: on every figure pathology the spec reports each expected
// rule of its families, on one the paper calls clean it reports no error,
// and a clean chip is clean.
func TestSpecMatchesPaperVerdicts(t *testing.T) {
	nm := tech.NMOS()
	clean := workload.Pathology{Name: "clean chip", Design: workload.NewChip(nm, "clean", 4, 5).Design, Tech: nm}
	for _, p := range append(workload.AllPathologies(), clean) {
		got := map[string]bool{}
		for _, v := range specCheck(p.Design, p.Tech, Options{}).violations {
			if v.Severity == Error {
				got[v.Rule] = true
			}
		}
		if len(p.ExpectDICRules) == 0 && len(got) > 0 {
			t.Errorf("%s: the paper calls it clean, the spec reports %v", p.Name, got)
		}
		for _, pre := range p.ExpectDICRules {
			found := !specFamily(&Violation{Rule: pre})
			for rule := range got {
				found = found || strings.HasPrefix(rule, pre)
			}
			if !found {
				t.Errorf("%s (%s): the spec misses %s", p.Name, p.Figure, pre)
			}
		}
	}
}
