package framework_test

import (
	"go/ast"
	"strings"
	"testing"

	"plsh/internal/analysis/framework"
)

// dummy flags every function whose name starts with "trigger"; what
// survives is then purely the suppression machinery's doing.
var dummy = &framework.Analyzer{
	Name: "dummy",
	Doc:  "reports trigger* functions",
	Run: func(pass *framework.Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "trigger") {
					pass.Reportf(fd.Pos(), "function %s triggers", fd.Name.Name)
				}
			}
		}
		return nil
	},
}

func TestSuppression(t *testing.T) {
	pkgs, err := framework.LoadFixture("testdata")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := framework.Run(pkgs, []*framework.Analyzer{dummy})
	if err != nil {
		t.Fatalf("running: %v", err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+": "+f.Message)
	}
	want := []string{
		// Suppressed sites must be absent; malformed, unknown-name, stale
		// and unknown-verb directives do not suppress and are reported
		// themselves.
		"dummy: function triggerPlain triggers",
		"plshvet: malformed //plshvet:ignore: want \"//plshvet:ignore <analyzer> <reason>\"",
		"dummy: function triggerMalformed triggers",
		"plshvet: //plshvet:ignore names unknown analyzer \"nonexistent\"",
		"dummy: function triggerUnknown triggers",
		"plshvet: stale //plshvet:ignore: no dummy finding here to suppress; delete the directive",
		"plshvet: unknown directive //plshvet:immutable; //plshvet:ignore is the only one",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
