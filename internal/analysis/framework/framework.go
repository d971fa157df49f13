// Package framework is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis driver surface, built on the
// standard library alone (go/ast, go/types, and export data produced by
// `go list -export`). The repository vendors no third-party modules, so
// the checker under internal/analysis targets this package instead of
// x/tools; the Analyzer/Pass/Diagnostic shapes are kept deliberately
// identical to go/analysis so it can be rebased onto the real framework
// by changing one import when a vendored x/tools becomes available.
//
// Suppression convention: a diagnostic is suppressed by a directive
// comment on the same line, or the line immediately above:
//
//	//plshvet:ignore <analyzer> <reason>
//
// The reason is mandatory — a directive without one is itself reported —
// so every suppression in the tree documents why the invariant does not
// apply at that site. It is the only directive: any other //plshvet:
// comment is reported too.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer minus facts and requires:
// a checker here is package-local and self-contained.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //plshvet:ignore directives. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives diagnostics; installed by the driver.
	report func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t := p.TypesInfo.TypeOf(e); t != nil {
		return t
	}
	return nil
}

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.TypesInfo.ObjectOf(id)
}

// Directive is one parsed //plshvet:... comment.
type Directive struct {
	Pos  token.Pos
	Verb string // "ignore" is the only one Run accepts
	Args string // remainder after the verb, space-trimmed
}

const directivePrefix = "//plshvet:"

// ParseDirectives extracts every //plshvet: directive in the file,
// including those inside doc comments. Directives must start at the
// beginning of the comment text (gofmt keeps //-comments flush).
func ParseDirectives(f *ast.File) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			verb, args, _ := strings.Cut(rest, " ")
			out = append(out, Directive{
				Pos:  c.Pos(),
				Verb: strings.TrimSpace(verb),
				Args: strings.TrimSpace(args),
			})
		}
	}
	return out
}
