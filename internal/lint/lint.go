// Package lint is the determinism-contract lint suite: a set of
// static analyzers that enforce, at compile time, the byte-identical
// guarantee every layer of this repository stakes its science on —
// fleet/scenario/edge/capacity JSON, counter snapshots and series
// streams must not depend on wall clock, global randomness, map
// iteration order, or goroutine schedule. The dynamic half of the
// contract lives in scripts/determinism_smoke.sh; the analyzers here
// are the static half, catching a violation when it is written
// instead of when a smoke happens to exercise it.
//
// The framework is a deliberately small, dependency-free mirror of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic): the
// build environment vendors no third-party modules, so the suite is
// built on go/ast, go/types and go/importer alone. Analyzers live in
// subpackages (wallclock, globalrand, maporder, goroutineshare,
// counterlit), the registry in internal/lint/suite, the package
// loader in internal/lint/load, the fixture test harness in
// internal/lint/linttest, and the CLI driver in cmd/qvr-vet.
//
// A diagnostic is suppressed only by an explicit, reasoned directive
// comment on the flagged line or the line above it:
//
//	//qvr:wallclock WallSeconds is the run's declared wall-clock field
//
// The directive names the analyzer it silences and must carry a
// non-empty reason; a bare directive is itself a diagnostic, so the
// allow-list can never grow silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one determinism-contract check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the real framework wholesale if the dependency ever lands.
type Analyzer struct {
	// Name is the analyzer's identifier: the word after "qvr:" in a
	// suppression directive and the label on every diagnostic.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// DeterministicOnly restricts the analyzer to the packages under
	// the byte-identical contract (DeterministicPackage); false runs it
	// over every package in the module.
	DeterministicOnly bool
	// Run reports the package's violations through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the diagnostics reported so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// ObjectOf resolves an identifier or selector expression to its
// types.Object, or nil. It is the lookup every analyzer needs for
// "which declared thing is this expression naming".
func (p *Pass) ObjectOf(expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return p.TypesInfo.ObjectOf(e)
	case *ast.SelectorExpr:
		return p.TypesInfo.ObjectOf(e.Sel)
	}
	return nil
}

// deterministicPrefixes lists the import paths (and their subtrees)
// under the byte-identical contract. internal/lint polices itself:
// the suite's own code must satisfy the contract it enforces.
var deterministicPrefixes = []string{
	"qvr/internal/pipeline",
	"qvr/internal/fleet",
	"qvr/internal/scenario",
	"qvr/internal/edge",
	"qvr/internal/autoscale",
	"qvr/internal/capacity",
	"qvr/internal/framesink",
	"qvr/internal/obs",
	"qvr/internal/stats",
	"qvr/internal/sim",
	"qvr/internal/netsim",
	"qvr/internal/randpool",
	"qvr/internal/cliout",
	"qvr/internal/report",
	"qvr/internal/experiments",
	"qvr/internal/lint",
	// The rest of the output packages' import closure: the models every
	// session and fast-path run computes with.
	"qvr/internal/atw",
	"qvr/internal/codec",
	"qvr/internal/energy",
	"qvr/internal/foveation",
	"qvr/internal/fp16",
	"qvr/internal/gpu",
	"qvr/internal/liwc",
	"qvr/internal/mcpat",
	"qvr/internal/motion",
	"qvr/internal/raster",
	"qvr/internal/scene",
	"qvr/internal/surrogate",
	"qvr/internal/uca",
	"qvr/internal/vec",
}

// DeterministicPackage reports whether the import path is under the
// byte-identical contract (an exact listed path or a subpackage of
// one).
func DeterministicPackage(path string) bool {
	for _, p := range deterministicPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// AppliesTo reports whether the analyzer should run over the package.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	return !a.DeterministicOnly || DeterministicPackage(pkgPath)
}

// DirectivePrefix introduces a suppression directive comment.
const DirectivePrefix = "//qvr:"

// Directive is one parsed //qvr:<analyzer> <reason> comment.
type Directive struct {
	Analyzer string
	Reason   string
	Pos      token.Pos
	File     string
	Line     int
}

// ParseDirectives scans the files' comments for //qvr: directives.
// Malformed directives (no analyzer name) are returned with an empty
// Analyzer so the driver can flag them rather than drop them.
func ParseDirectives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, DirectivePrefix)
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				out = append(out, Directive{
					Analyzer: strings.TrimSpace(name),
					Reason:   strings.TrimSpace(reason),
					Pos:      c.Pos(),
					File:     pos.Filename,
					Line:     pos.Line,
				})
			}
		}
	}
	return out
}

// Suppress filters diags against the directives: a diagnostic is
// dropped when a directive for its analyzer, carrying a non-empty
// reason, sits on the flagged line or the line immediately above it
// in the same file. Directives with empty reasons never suppress —
// the driver turns them into diagnostics of their own.
func Suppress(fset *token.FileSet, diags []Diagnostic, dirs []Directive) []Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	type key struct {
		file string
		line int
		name string
	}
	idx := make(map[key]bool, len(dirs))
	for _, d := range dirs {
		if d.Analyzer == "" || d.Reason == "" {
			continue
		}
		idx[key{d.File, d.Line, d.Analyzer}] = true
	}
	var kept []Diagnostic
	for _, dg := range diags {
		pos := fset.Position(dg.Pos)
		if idx[key{pos.Filename, pos.Line, dg.Analyzer}] ||
			idx[key{pos.Filename, pos.Line - 1, dg.Analyzer}] {
			continue
		}
		kept = append(kept, dg)
	}
	return kept
}
