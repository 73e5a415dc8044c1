package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"qvr/internal/lint"
)

func TestDeterministicPackage(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"qvr/internal/fleet", true},
		{"qvr/internal/obs", true},
		{"qvr/internal/obs/series", true}, // subpackages inherit the contract
		{"qvr/internal/lint/maporder", true},
		{"qvr/internal/obsolete", false}, // prefix match respects path boundaries
		{"qvr/internal/live", false},     // the live demo is wall-clock by nature
		{"qvr/cmd/qvr-fleet", false},
		{"time", false},
	}
	for _, c := range cases {
		if got := lint.DeterministicPackage(c.path); got != c.want {
			t.Errorf("DeterministicPackage(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestDeterministicPackagesCoversIssueList(t *testing.T) {
	// The contract's floor: every package the determinism smokes
	// exercise must be under static enforcement too.
	required := []string{
		"qvr/internal/pipeline", "qvr/internal/fleet", "qvr/internal/scenario",
		"qvr/internal/edge", "qvr/internal/autoscale", "qvr/internal/capacity",
		"qvr/internal/framesink", "qvr/internal/obs", "qvr/internal/stats",
		"qvr/internal/sim", "qvr/internal/netsim", "qvr/internal/experiments",
		// The models in the output packages' import closure.
		"qvr/internal/atw", "qvr/internal/codec", "qvr/internal/energy",
		"qvr/internal/foveation", "qvr/internal/fp16", "qvr/internal/gpu",
		"qvr/internal/liwc", "qvr/internal/mcpat", "qvr/internal/motion",
		"qvr/internal/raster", "qvr/internal/scene", "qvr/internal/surrogate",
		"qvr/internal/uca", "qvr/internal/vec",
	}
	for _, p := range required {
		if !lint.DeterministicPackage(p) {
			t.Errorf("package %s missing from the determinism contract", p)
		}
	}
}

func TestDirectivesAndSuppression(t *testing.T) {
	const src = `package x

func a() {
	_ = 1 //qvr:wallclock reasoned trailing directive
	//qvr:maporder reasoned directive above
	_ = 2
	_ = 3 //qvr:wallclock
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	dirs := lint.ParseDirectives(fset, []*ast.File{f})
	if len(dirs) != 3 {
		t.Fatalf("got %d directives, want 3: %+v", len(dirs), dirs)
	}
	if dirs[0].Analyzer != "wallclock" || dirs[0].Reason != "reasoned trailing directive" {
		t.Errorf("directive 0 = %+v", dirs[0])
	}
	if dirs[2].Reason != "" {
		t.Errorf("bare directive parsed a reason: %+v", dirs[2])
	}

	pos := func(line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}
	diags := []lint.Diagnostic{
		{Analyzer: "wallclock", Pos: pos(4), Message: "same-line suppressed"},
		{Analyzer: "maporder", Pos: pos(6), Message: "line-above suppressed"},
		{Analyzer: "wallclock", Pos: pos(7), Message: "bare directive must not suppress"},
		{Analyzer: "maporder", Pos: pos(4), Message: "wrong analyzer must not suppress"},
	}
	kept := lint.Suppress(fset, diags, dirs)
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %+v", len(kept), kept)
	}
	if kept[0].Message != "bare directive must not suppress" || kept[1].Message != "wrong analyzer must not suppress" {
		t.Errorf("kept the wrong diagnostics: %+v", kept)
	}
}
