package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// DeterministicPkgs are the packages that execute inside (or feed) the
// single-threaded discrete-event simulation: their behaviour must be a
// pure function of the configuration and seed. Wall-clock time,
// math/rand's process-global stream, goroutines, and map iteration
// order are all forbidden here.
var DeterministicPkgs = []string{
	"internal/sim",
	"internal/core",
	"internal/event",
	"internal/dram",
	"internal/cpu",
	"internal/dcache",
	"internal/sched",
	"internal/sched/atlas",
	"internal/sched/policies",
	"internal/workload",
	"internal/addrmap",
	"internal/cache",
	"internal/tagcache",
	"internal/mainmem",
	"internal/mempred",
	"internal/rng",
	"internal/simtime",
}

// OrderSensitivePkgs additionally may not iterate maps without an
// ordering discipline: they render tables, serialize configs, and
// schedule experiment runs, all of which must be byte-identical run to
// run (the parallel engine's output contract). Wall-clock time is fine
// here (progress reporting), map iteration order is not.
var OrderSensitivePkgs = append([]string{
	"internal/config",
	"internal/exp",
	"internal/stats",
	"internal/rescache",
}, DeterministicPkgs...)

// bannedTimeFuncs are the package-level time functions that read the
// wall clock or real timers. time.Duration and time.Time as plain data
// types remain usable.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTimer": true,
	"NewTicker": true, "Sleep": true,
}

// NoDeterminism enforces the simulator's determinism invariants.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc: `forbid nondeterminism sources in simulation packages

In deterministic packages (internal/sim, core, event, dram, cpu,
dcache, sched, workload, ...): no wall-clock reads (time.Now and
friends), no math/rand (use internal/rng, whose stream is stable
across Go releases), and no goroutine spawns (the kernel is
single-threaded by design; cross-run parallelism lives in the blessed
internal/exp worker pool). In those packages plus the
ordering-sensitive ones (config, exp, stats, rescache): no
map iteration unless the loop only collects keys/values into a slice
that is sorted immediately after the loop.`,
	Run: runNoDeterminism,
}

func runNoDeterminism(pass *Pass) error {
	deterministic := pkgPathMatches(pass.Pkg.Path(), DeterministicPkgs)
	orderSensitive := pkgPathMatches(pass.Pkg.Path(), OrderSensitivePkgs)
	if !deterministic && !orderSensitive {
		return nil
	}
	for _, f := range pass.Files {
		if deterministic {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path == "math/rand" || path == "math/rand/v2" {
					pass.Reportf(imp.Pos(), "deterministic package imports %q: use internal/rng (stable stream across Go releases, per-run seeding)", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if deterministic {
					checkWallClock(pass, n)
				}
			case *ast.GoStmt:
				if deterministic {
					pass.Reportf(n.Pos(), "goroutine spawn in deterministic package: the event kernel is single-threaded; parallelize across runs via the internal/exp worker pool")
				}
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
	return nil
}

// checkWallClock flags calls to the wall-clock/timer functions of
// package time.
func checkWallClock(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !bannedTimeFuncs[sel.Sel.Name] {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return
	}
	pass.Reportf(call.Pos(), "wall-clock read time.%s in deterministic package: simulated time comes from the event engine; real timestamps must be injected by the caller", sel.Sel.Name)
}

// checkMapRange flags `range` over a map unless the loop is the
// collect-then-sort idiom: a body that only appends keys/values to a
// slice which the statement immediately following the loop sorts.
func checkMapRange(pass *Pass, f *ast.File, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if sortedAfter(pass, f, rng) {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration order is random: sort before use (collect into a slice, then sort) or index by a deterministic key list")
}

// sortFuncs are the sort/slices functions accepted as the ordering
// discipline following a collect loop.
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true, "Slice": true,
	"SliceStable": true, "Sort": true, "Stable": true,
	"SortFunc": true, "SortStableFunc": true,
}

// sortedAfter reports whether rng's body is a single append into a
// slice variable and the statement right after the loop sorts that
// variable (sort.Strings/Ints/Slice/Sort/Stable or slices.Sort*).
func sortedAfter(pass *Pass, f *ast.File, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	target, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	next := stmtAfter(f, rng)
	sortCall, ok := next.(*ast.ExprStmt)
	if !ok {
		return false
	}
	sc, ok := sortCall.X.(*ast.CallExpr)
	if !ok || len(sc.Args) == 0 {
		return false
	}
	fn, ok := sc.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := fn.X.(*ast.Ident)
	if !ok || (pkgID.Name != "sort" && pkgID.Name != "slices") || !sortFuncs[fn.Sel.Name] {
		return false
	}
	arg, ok := sc.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	return pass.TypesInfo.Uses[arg] == pass.TypesInfo.ObjectOf(target)
}

// stmtAfter returns the statement that lexically follows stmt inside
// its enclosing block, or nil.
func stmtAfter(f *ast.File, stmt ast.Stmt) ast.Stmt {
	var found ast.Stmt
	ast.Inspect(f, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, s := range block.List {
			if s == stmt && i+1 < len(block.List) {
				found = block.List[i+1]
				return false
			}
		}
		return true
	})
	return found
}
