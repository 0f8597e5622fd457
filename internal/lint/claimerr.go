package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// claimErrPkg is the package whose errors must never be discarded: the
// persistent result cache. A dropped Put or Open error means a result
// silently fails to persist, so a pass that looks warm recomputes
// everything. The analyzer keeps its historical name so existing
// //nolint:dcalint/claimerr directives stay valid.
const claimErrPkg = "internal/rescache"

// ClaimErr forbids discarding errors returned by rescache operations,
// whether by assigning to the blank identifier, by calling in expression
// position, or inside a defer.
var ClaimErr = &Analyzer{
	Name: "claimerr",
	Doc: `forbid discarded errors from the rescache result cache

Result-cache operations (Open, Put) return errors whose loss silently
damages persistent state: an unreported Put failure leaves the next
pass cold. Every such error must be assigned to a non-blank variable
(or returned). errcheck catches the garden-variety cases; this analyzer
additionally rejects the explicit "_ =" escape hatch for rescache.`,
	Run: runClaimErr,
}

func runClaimErr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscardedCall(pass, call, "return value ignored")
				}
			case *ast.DeferStmt:
				checkDiscardedCall(pass, n.Call, "deferred with its error ignored")
			case *ast.GoStmt:
				checkDiscardedCall(pass, n.Call, "spawned with its error ignored")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDiscardedCall reports call if it returns an error from a
// guarded package and that error is dropped on the floor.
func checkDiscardedCall(pass *Pass, call *ast.CallExpr, how string) {
	fn := calleeFunc(pass, call)
	if fn == nil || !guardedPkg(fn) || !returnsError(fn) {
		return
	}
	pass.Reportf(call.Pos(), "%s.%s %s: rescache errors corrupt persistent state when dropped — handle or return it", fn.Pkg().Name(), fn.Name(), how)
}

// checkBlankAssign reports error results from guarded packages
// assigned to the blank identifier.
func checkBlankAssign(pass *Pass, asg *ast.AssignStmt) {
	// Single call with multiple results: v, _ := f().
	if len(asg.Rhs) == 1 && len(asg.Lhs) > 1 {
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(pass, call)
		if fn == nil || !guardedPkg(fn) {
			return
		}
		res := fn.Type().(*types.Signature).Results()
		for i, lhs := range asg.Lhs {
			if isBlank(lhs) && i < res.Len() && isErrorType(res.At(i).Type()) {
				pass.Reportf(lhs.Pos(), "%s.%s error discarded into _ : handle or return it", fn.Pkg().Name(), fn.Name())
			}
		}
		return
	}
	// Parallel assignment: _ = f().
	for i, lhs := range asg.Lhs {
		if !isBlank(lhs) || i >= len(asg.Rhs) {
			continue
		}
		call, ok := asg.Rhs[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := calleeFunc(pass, call)
		if fn == nil || !guardedPkg(fn) || !returnsError(fn) {
			continue
		}
		pass.Reportf(lhs.Pos(), "%s.%s error discarded into _ : handle or return it", fn.Pkg().Name(), fn.Name())
	}
}

// calleeFunc resolves the called function or method, or nil.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	fun := call.Fun
	for {
		p, ok := fun.(*ast.ParenExpr)
		if !ok {
			break
		}
		fun = p.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

func guardedPkg(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == claimErrPkg || strings.HasSuffix(path, "/"+claimErrPkg)
}

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
