package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive requires switches over the repo's closed enums (dcache.Org,
// dram.Kind, core.Design, core.Algorithm, cachefs.Op, ...) to either
// cover every declared constant or carry a default clause that surfaces
// the unknown value (panic or an error mentioning it). Adding a fourth
// design or policy must then fail loudly at every switch that silently
// assumed three.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc: `require enum switches to cover every constant or fail loudly

A closed enum is a defined integer or string type with at least two
package-level constants of that exact type. A switch whose tag has such
a type must list every constant across its cases, or have a default
clause whose body panics or constructs an error (fmt.Errorf /
errors.New) — a default that silently picks one behaviour converts
"new enum value added" into a wrong simulation result instead of a
crash or error.`,
	Run: runExhaustive,
}

func runExhaustive(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkEnumSwitch(pass, sw)
			return true
		})
	}
	return nil
}

func checkEnumSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tagType := pass.TypesInfo.TypeOf(sw.Tag)
	named, ok := tagType.(*types.Named)
	if !ok {
		return
	}
	enums := enumConstants(named)
	if len(enums) < 2 {
		return
	}

	covered := make(map[constant.Value]bool) // keyed by exact constant value
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
				covered[tv.Value] = true
			}
		}
	}

	var missing []string
	for _, c := range enums {
		if !valueCovered(covered, c.Val()) {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	if defaultClause != nil && defaultSurfacesUnknown(pass, defaultClause) {
		return
	}
	if defaultClause != nil {
		pass.Reportf(sw.Pos(), "switch over %s misses %s and its default silently picks a behaviour; cover the constants or make the default panic / return an error", named.Obj().Name(), strings.Join(missing, ", "))
		return
	}
	pass.Reportf(sw.Pos(), "non-exhaustive switch over %s: missing %s (add the cases or a default that panics / returns an error)", named.Obj().Name(), strings.Join(missing, ", "))
}

// enumConstants returns the package-level constants declared with
// exactly the named type, sorted by value.
func enumConstants(named *types.Named) []*types.Const {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	// Only the module's own enums are closed sets we control; demanding
	// exhaustiveness over std-lib types (reflect.Kind, token.Token, ...)
	// would be noise.
	if !strings.HasPrefix(obj.Pkg().Path(), "dcasim") {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 {
		return nil
	}
	scope := obj.Pkg().Scope()
	var consts []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if ok && types.Identical(c.Type(), named) {
			consts = append(consts, c)
		}
	}
	sort.Slice(consts, func(i, j int) bool {
		return constant.Compare(consts[i].Val(), token.LSS, consts[j].Val())
	})
	return consts
}

func valueCovered(covered map[constant.Value]bool, v constant.Value) bool {
	if covered[v] {
		return true
	}
	// constant.Value is not guaranteed canonical across packages;
	// compare by value as a fallback.
	for cv := range covered {
		if constant.Compare(cv, token.EQL, v) {
			return true
		}
	}
	return false
}

// defaultSurfacesUnknown reports whether the default clause's body
// contains a panic or constructs an error — i.e. an unknown enum value
// cannot silently flow onward.
func defaultSurfacesUnknown(pass *Pass, cc *ast.CaseClause) bool {
	found := false
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "panic" {
					found = true
				}
			case *ast.SelectorExpr:
				if obj := pass.TypesInfo.Uses[fun.Sel]; obj != nil && obj.Pkg() != nil {
					full := obj.Pkg().Path() + "." + obj.Name()
					if full == "fmt.Errorf" || full == "errors.New" {
						found = true
					}
				}
			}
			return !found
		})
	}
	return found
}
