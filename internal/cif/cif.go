// Package cif reads and writes the extended Caltech Intermediate Form used
// by the design-integrity checker.
//
// The base dialect is the CIF 2.0 subset the paper's data format builds on:
// symbol definitions (DS/DF), symbol calls with Manhattan transforms (C
// with T/M/R items), boxes, wires, polygons, and layer selection. On top of
// it sit the paper's extensions, encoded as CIF user extension commands so
// that any plain CIF consumer still parses the files:
//
//	9  <name>;          standard symbol-name extension
//	9N <net>;           attach a net identifier to the NEXT element
//	9D <type> [CHK];    declare the enclosing symbol a primitive device
//	                    symbol of the given type; CHK marks it prechecked
//	9I <name>;          instance name for the NEXT call (dot notation)
//
// Restrictions, matching the structured-design style the checker enforces:
// rotations must be axial (Manhattan), and box directions likewise. The
// paper forbids nested calls inside primitive symbols; the parser accepts
// them so the checker can *report* the violation rather than dying.
package cif

import (
	"fmt"
	"strings"

	"repro/internal/layout"
)

// SyntaxError is a CIF parse error with command context.
type SyntaxError struct {
	Command int    // 1-based index of the offending command
	Text    string // the command text
	Msg     string
	Err     error // the cause, when there is one (it may wrap layout.ErrTooLarge)
}

// Unwrap returns the cause.
func (e *SyntaxError) Unwrap() error { return e.Err }

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	txt := e.Text
	if len(txt) > 40 {
		txt = txt[:40] + "..."
	}
	return fmt.Sprintf("cif: command %d %q: %s", e.Command, txt, e.Msg)
}

// splitCommands splits CIF text into semicolon-terminated commands with
// comments removed. CIF comments are parenthesized and may nest.
func splitCommands(src string) ([]string, error) {
	var cmds []string
	var cur strings.Builder
	depth := 0
	for _, r := range src {
		switch {
		case r == '(':
			depth++
		case r == ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("cif: unbalanced comment parenthesis")
			}
		case depth > 0:
			// inside comment: drop
		case r == ';':
			cmds = append(cmds, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("cif: unterminated comment")
	}
	if rest := strings.TrimSpace(cur.String()); rest != "" {
		// The E command may legally lack a semicolon.
		cmds = append(cmds, rest)
	}
	return cmds, nil
}

// fields tokenizes a command: CIF separates tokens by any characters that
// are not digits, letters or '-'. Letters clump into words, digits (with
// optional leading '-') into numbers.
func fields(cmd string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(cmd); i++ {
		if layout.IsNameByte(cmd[i]) {
			cur.WriteByte(cmd[i])
		} else {
			flush()
		}
	}
	flush()
	return out
}
