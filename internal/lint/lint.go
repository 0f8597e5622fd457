// Package lint is dcalint's analysis framework: a deliberately small,
// standard-library-only equivalent of golang.org/x/tools/go/analysis.
//
// The repo's headline guarantees — bit-identical reruns, byte-identical
// parallel output, the zero-allocation event kernel — are invariants
// that one stray time.Now, map iteration, or closure capture silently
// breaks. dcalint machine-checks them on every build, the way go vet
// checks printf verbs. The framework mirrors go/analysis closely
// (Analyzer, Pass, Diagnostic) so the suite could be ported onto the
// real multichecker the day x/tools becomes an acceptable dependency;
// until then the vendored surface is ~200 lines and owes nothing to
// the network.
//
// Suppression: a finding may be silenced with
//
//	//nolint:dcalint/<name> -- <justification>
//
// on the offending line or the line directly above it. The
// justification after " -- " is mandatory: a bare nolint is itself
// reported, so every suppression in the tree documents why the
// invariant does not apply.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and nolint
	// directives ("nodeterminism", "noalloc", ...).
	Name string
	// Doc is the one-paragraph description `dcalint -list` prints.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (dcalint/%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. nolint-suppressed findings are
// dropped; malformed nolint directives (no justification) are reported
// as findings in their own right.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup := collectNolint(pkg.Fset, pkg.Files, &diags)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("dcalint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		diags = sup.filter(diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
	return diags, nil
}

// nolintRe matches "//nolint:dcalint/<name>" or "//nolint:dcalint",
// optionally followed by " -- justification". Deliberately not
// end-anchored so a malformed directive with trailing chatter is still
// recognized (and diagnosed) rather than silently ignored.
var nolintRe = regexp.MustCompile(`^//\s*nolint:dcalint(?:/([a-z]+))?(?:\s+--\s*(\S.*))?`)

// suppression records which analyzers are silenced on which lines of
// which files.
type suppressions struct {
	// byLine maps filename -> line -> analyzer names ("" = all).
	byLine map[string]map[int]map[string]bool
}

// collectNolint scans directive comments. A directive suppresses
// findings on its own line and on the line directly below it (so it
// can sit above a long statement). Directives without a justification
// are themselves diagnosed and suppress nothing.
func collectNolint(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := nolintRe.FindStringSubmatch(strings.TrimSpace(c.Text))
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					*diags = append(*diags, Diagnostic{
						Analyzer: "nolint",
						Pos:      pos,
						Message:  `nolint directive needs a justification: "//nolint:dcalint/<name> -- why the invariant does not apply here"`,
					})
					continue
				}
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					s.byLine[pos.Filename] = lines
				}
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					if lines[ln] == nil {
						lines[ln] = make(map[string]bool)
					}
					lines[ln][m[1]] = true // m[1] == "" means all analyzers
				}
			}
		}
	}
	return s
}

func (s *suppressions) filter(diags []Diagnostic) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != "nolint" {
			if names := s.byLine[d.Pos.Filename][d.Pos.Line]; names[""] || names[d.Analyzer] {
				continue
			}
		}
		kept = append(kept, d)
	}
	return kept
}

// hasDirective reports whether the doc comment of decl carries the
// given //dcalint: directive (e.g. "noalloc").
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	want := "//dcalint:" + directive
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == want {
			return true
		}
	}
	return false
}

// pkgPathMatches reports whether path is, or ends with, one of the
// given module-relative suffixes. Fixture packages under testdata load
// with synthetic import paths, so suffix matching lets the same
// analyzer configuration govern both the real tree and its fixtures.
func pkgPathMatches(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) || path == "dcasim/"+s {
			return true
		}
	}
	return false
}
