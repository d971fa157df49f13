package framework

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one diagnostic bound to its analyzer and resolved
// position, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// ignoreEntry is one well-formed //plshvet:ignore directive. used flips
// when the directive suppresses a finding; a directive that suppresses
// nothing is stale and reported itself, so suppressions cannot outlive
// the violation they excused.
type ignoreEntry struct {
	name string // analyzer name, or "all"
	pos  token.Position
	used bool
}

// Run applies every analyzer to every package and returns the surviving
// findings, sorted by position. Diagnostics carrying a matching
// //plshvet:ignore directive on their line — or the line above — are
// dropped; malformed directives (no analyzer name, or no reason),
// directives naming unknown analyzers or verbs, and stale directives that
// suppressed nothing are themselves reported under the "plshvet" name so
// suppressions stay auditable.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// Index every directive up front. Malformed and unknown directives
	// never suppress, so they are findings immediately; well-formed ones
	// enter the ignores table keyed by file:line.
	var findings []Finding
	ignores := map[string][]*ignoreEntry{}
	var entries []*ignoreEntry
	directive := func(pos token.Position, format string, args ...any) {
		findings = append(findings, Finding{Analyzer: "plshvet", Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range ParseDirectives(f) {
				pos := pkg.Fset.Position(d.Pos)
				if d.Verb != "ignore" {
					directive(pos, "unknown directive //plshvet:%s; //plshvet:ignore is the only one", d.Verb)
					continue
				}
				name, reason := splitArg(d.Args)
				if name == "" || reason == "" {
					directive(pos, "malformed //plshvet:ignore: want \"//plshvet:ignore <analyzer> <reason>\"")
					continue
				}
				if !known[name] && name != "all" {
					directive(pos, "//plshvet:ignore names unknown analyzer %q", name)
					continue
				}
				e := &ignoreEntry{name: name, pos: pos}
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				ignores[key] = append(ignores[key], e)
				entries = append(entries, e)
			}
		}
	}

	// Collect raw diagnostics, then drop each one a directive on its line,
	// or the line above, names (by analyzer or "all"); every directive that
	// does the dropping is marked used.
	var raw []Finding
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			fset := pkg.Fset
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.TypesInfo,
				report: func(d Diagnostic) {
					raw = append(raw, Finding{Analyzer: a.Name, Pos: fset.Position(d.Pos), Message: d.Message})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	for _, f := range raw {
		suppressed := false
		for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
			for _, e := range ignores[fmt.Sprintf("%s:%d", f.Pos.Filename, line)] {
				if e.name == f.Analyzer || e.name == "all" {
					e.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			findings = append(findings, f)
		}
	}

	// Stale pass: a well-formed directive that suppressed nothing means
	// the violation it excused is gone — delete the directive.
	for _, e := range entries {
		if !e.used {
			directive(e.pos, "stale //plshvet:ignore: no %s finding here to suppress; delete the directive", e.name)
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// splitArg splits a directive's argument into its first word and the
// rest.
func splitArg(s string) (first, rest string) {
	for i, r := range s {
		if r == ' ' || r == '\t' {
			return s[:i], trimLeftSpace(s[i:])
		}
	}
	return s, ""
}

func trimLeftSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	return s
}
