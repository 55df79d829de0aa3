package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SweepParallel polices goroutine bodies — the sweep runner's worker pool
// being the canonical case — for the two ways parallel experiment execution
// breaks the byte-identical-results contract:
//
//   - a shared random source: any use of the global math/rand functions, or
//     of a *rand.Rand / rand.Source captured from outside the goroutine.
//     Interleaving draws from one generator makes every stream depend on
//     scheduling; each experiment must derive its own generator from its
//     config seed (sweep.DeriveSeed).
//
//   - an unsynchronized write to shared state: assignments or ++/-- on
//     variables declared outside the goroutine, map-index writes to outer
//     maps, and field writes through outer values. Writes to disjoint
//     slice/array elements (results[i] = ...) and channel sends are the
//     approved collection patterns and are not flagged; writes lexically
//     between a mutex Lock/Unlock pair on the same receiver are treated as
//     guarded.
//
// The rule follows same-package calls: `go worker()` is analyzed through
// the declaration of worker, and helpers invoked from within a goroutine
// body — scenario.RunJobs' workers delegate every job to such a helper —
// are analyzed transitively, each declaration once per package. A helper
// that mutates only its own parameters and locals stays silent; a write to
// anything declared outside it fires.
var SweepParallel = &Analyzer{
	Name: "sweep-parallel",
	Doc:  "forbid shared rand sources and unsynchronized shared writes in goroutine bodies",
	Run:  runSweepParallel,
}

// declSite pairs a same-package function declaration with the file holding
// it, so import-sensitive checks resolve against the right file when a
// goroutine spawned in one file runs a helper declared in another.
type declSite struct {
	fd   *ast.FuncDecl
	file *ast.File
}

func runSweepParallel(pass *Pass) {
	// Same-package function declarations, for resolving `go worker()` and
	// helper calls made from inside goroutine bodies.
	decls := make(map[types.Object]declSite)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				if obj := pass.ObjectOf(fd.Name); obj != nil {
					decls[obj] = declSite{fd, file}
				}
			}
		}
	}
	// Each declaration is analyzed at most once per pass, both to terminate
	// on recursion and to report a shared helper's violations once no matter
	// how many goroutines reach it.
	analyzed := make(map[*ast.FuncDecl]bool)
	checkDecl := func(obj types.Object) {
		if obj == nil {
			return
		}
		if site := decls[obj]; site.fd != nil && site.fd.Body != nil && !analyzed[site.fd] {
			analyzed[site.fd] = true
			checkWorkerBody(pass, site.file, site.fd, site.fd.Body, decls, analyzed)
		}
	}
	for _, file := range pass.Files {
		f := file
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch fun := gs.Call.Fun.(type) {
			case *ast.FuncLit:
				checkWorkerBody(pass, f, fun, fun.Body, decls, analyzed)
			case *ast.Ident:
				checkDecl(pass.ObjectOf(fun))
			}
			return true
		})
	}
}

// checkWorkerBody inspects one goroutine body. fn is the enclosing function
// node (literal or declaration): objects declared within its extent —
// parameters included — are goroutine-local. Same-package helpers the body
// calls are analyzed through their declarations (once per pass).
func checkWorkerBody(pass *Pass, file *ast.File, fn ast.Node, body *ast.BlockStmt,
	decls map[types.Object]declSite, analyzed map[*ast.FuncDecl]bool) {
	local := func(obj types.Object) bool {
		return obj == nil || (obj.Pos() >= fn.Pos() && obj.Pos() <= fn.End())
	}
	guards := lockedRanges(pass, body)
	guarded := func(pos token.Pos) bool {
		for _, g := range guards {
			if pos > g.lo && pos < g.hi {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			// Follow same-package helper calls: the worker-pool idiom runs
			// `go func() { ... runJob(...) }` and all the interesting writes
			// live in the helper.
			if id, ok := v.Fun.(*ast.Ident); ok {
				if site := decls[pass.ObjectOf(id)]; site.fd != nil && site.fd.Body != nil && !analyzed[site.fd] {
					analyzed[site.fd] = true
					checkWorkerBody(pass, site.file, site.fd, site.fd.Body, decls, analyzed)
				}
			}
		case *ast.SelectorExpr:
			id, ok := v.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch pass.ImportedPkg(file, id) {
			case "math/rand", "math/rand/v2":
				if obj := pass.ObjectOf(v.Sel); obj != nil {
					if _, isType := obj.(*types.TypeName); isType {
						return true
					}
				}
				if !randConstructors[v.Sel.Name] {
					pass.Reportf(v.Pos(),
						"global rand.%s in a goroutine body is a shared random source; derive a per-experiment *rand.Rand from the config seed (sweep.DeriveSeed)",
						v.Sel.Name)
				}
			}
		case *ast.Ident:
			obj := pass.ObjectOf(v)
			vr, ok := obj.(*types.Var)
			if !ok || local(obj) {
				return true
			}
			if name := randSourceTypeName(vr.Type()); name != "" {
				pass.Reportf(v.Pos(),
					"%s shares a %s across goroutines, making random streams depend on scheduling; derive one per experiment from its config seed",
					v.Name, name)
			}
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range v.Lhs {
				checkSharedWrite(pass, lhs, local, guarded)
			}
		case *ast.IncDecStmt:
			checkSharedWrite(pass, v.X, local, guarded)
		}
		return true
	})
}

// checkSharedWrite flags one assignment target when it mutates state shared
// with other goroutines without synchronization.
func checkSharedWrite(pass *Pass, lhs ast.Expr, local func(types.Object) bool, guarded func(token.Pos) bool) {
	switch t := lhs.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		obj := pass.ObjectOf(t)
		if _, ok := obj.(*types.Var); ok && !local(obj) && !guarded(t.Pos()) {
			pass.Reportf(t.Pos(),
				"unsynchronized write to %s, declared outside the goroutine; collect into disjoint slice elements, send on a channel, or guard with a mutex",
				t.Name)
		}
	case *ast.IndexExpr:
		// Map-index writes race; slice/array index writes are the
		// disjoint-index collection pattern (results[i] = ...) and allowed.
		typ := pass.TypeOf(t.X)
		if typ == nil {
			return
		}
		if _, isMap := typ.Underlying().(*types.Map); !isMap {
			return
		}
		root := rootIdent(t.X)
		if root == nil {
			return
		}
		if obj := pass.ObjectOf(root); !local(obj) && !guarded(t.Pos()) {
			pass.Reportf(t.Pos(),
				"unsynchronized map write to %s, shared across goroutines; maps are not safe for concurrent writes — collect into disjoint slice elements or guard with a mutex",
				root.Name)
		}
	case *ast.SelectorExpr:
		root := rootIdent(t.X)
		if root == nil {
			return
		}
		obj := pass.ObjectOf(root)
		if _, ok := obj.(*types.Var); ok && !local(obj) && !guarded(t.Pos()) {
			pass.Reportf(t.Pos(),
				"unsynchronized field write through %s, declared outside the goroutine; guard it with a mutex or restructure into per-goroutine state",
				root.Name)
		}
	}
}

// posRange is a half-open lexical extent within which writes count as
// mutex-guarded.
type posRange struct{ lo, hi token.Pos }

// lockedRanges returns the lexical extents between each mutex Lock/RLock and
// its matching Unlock/RUnlock on the same receiver within body. A deferred
// unlock extends its range to the end of the body. This is a lexical
// heuristic — lockcheck separately enforces that every acquire has a release.
func lockedRanges(pass *Pass, body *ast.BlockStmt) []posRange {
	opens := make(map[string][]token.Pos)
	var out []posRange
	handle := func(call *ast.CallExpr, deferred bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 0 || !isSyncReceiver(pass, sel) {
			return
		}
		recv := exprString(pass.Fset, sel.X)
		switch sel.Sel.Name {
		case "Lock", "RLock":
			opens[recv] = append(opens[recv], call.Pos())
		case "Unlock", "RUnlock":
			stack := opens[recv]
			if len(stack) == 0 {
				return
			}
			hi := call.End()
			if deferred {
				hi = body.End()
			}
			out = append(out, posRange{stack[len(stack)-1], hi})
			opens[recv] = stack[:len(stack)-1]
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeferStmt:
			handle(v.Call, true)
			return false
		case *ast.CallExpr:
			handle(v, false)
		}
		return true
	})
	return out
}

// randSourceTypeName reports the shared-random-source type t carries
// ("*rand.Rand", "rand.Source", ...), or "".
func randSourceTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	prefix := ""
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
		prefix = "*"
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		switch obj.Name() {
		case "Rand", "Source", "Source64", "Zipf", "PCG", "ChaCha8":
			return prefix + "rand." + obj.Name()
		}
	}
	return ""
}
