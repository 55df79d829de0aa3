package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismFlow is the interprocedural extension of the determinism rule:
// instead of banning impure calls per package, it taints the impure sources
// themselves — wall-clock reads, the global math/rand functions, ambient
// process state (os.Getenv and friends), and map-iteration-ordered writes
// to ordered sinks — and reports every call path from a simulation entry
// point (engine.Run, spcd.Run*, the sweep runner, policy evaluation, fault
// draw sites) to a tainted function. A wrapper in a package outside the
// per-package determinism list can no longer launder wall-clock or ad-hoc
// randomness into the engine: if the engine reaches it, the chain is
// reported, and the diagnostic prints the full entry-point → sink call
// chain.
//
// Soundness tradeoff: calls the graph cannot resolve (see callgraph.go) are
// reported as conservative taint rather than silently dropped, so a
// refactor that defeats resolution fails loudly instead of going blind.
var DeterminismFlow = &ModuleAnalyzer{
	Name: "determinism-flow",
	Doc:  "no call path from a simulation entry point may reach wall clocks, global rand, env reads, or map-ordered writes",
	Run:  runDeterminismFlow,
}

// impurity is one reason a function is a nondeterminism sink.
type impurity struct {
	Pos  token.Pos
	Desc string
}

// FactImpure is the facts-store key under which determinism-flow publishes
// each function's direct impurities ([]impurity).
const FactImpure = "determinism-flow.impure"

// impureOSFuncs are the os package functions that read ambient process
// state a simulation result must not depend on.
var impureOSFuncs = map[string]bool{
	"Getenv":    true,
	"LookupEnv": true,
	"Environ":   true,
	"Getpid":    true,
	"Getppid":   true,
	"Hostname":  true,
}

// directImpurities scans one function body for impure operations.
func directImpurities(mod *Module, n *Node) []impurity {
	// internal/runtimeobs is the sanctioned host-time sink: it reads the
	// wall clock by design, and the runtimeobs-isolation rule certifies
	// that nothing it measures can flow back into simulation state.
	if n.Pkg.Path == runtimeobsPkgPath {
		return nil
	}
	var out []impurity
	for _, x := range n.Ext {
		switch x.PkgPath {
		case "time":
			if wallClockFuncs[x.Name] {
				out = append(out, impurity{x.Pos, fmt.Sprintf("wall-clock read time.%s", x.Name)})
			}
		case "math/rand", "math/rand/v2":
			// Methods on a *rand.Rand / v2 generator instance are fine: the
			// stream is private and its seed is seed-provenance's concern.
			// Only the package-level functions share the ambient global
			// stream, whose draw order is scheduling-dependent.
			if !x.Method && !randConstructors[x.Name] {
				out = append(out, impurity{x.Pos, fmt.Sprintf("global rand.%s (shared, scheduling-dependent stream)", x.Name)})
			}
		case "os":
			if impureOSFuncs[x.Name] {
				out = append(out, impurity{x.Pos, fmt.Sprintf("ambient process state os.%s", x.Name)})
			}
		case "crypto/rand":
			out = append(out, impurity{x.Pos, fmt.Sprintf("crypto/rand.%s (unseeded randomness)", x.Name)})
		}
	}
	body := n.Body()
	if body == nil {
		return out
	}
	inspectSkipNested(body, body, func(an ast.Node) {
		rs, ok := an.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := n.Pkg.Info.TypeOf(rs.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		if isKeyCollectionLoop(rs) {
			return
		}
		if sink := orderedSinkIn(n.Pkg, rs.Body); sink != "" {
			out = append(out, impurity{rs.Pos(), fmt.Sprintf("map-iteration-ordered write to an ordered sink (%s)", sink)})
		}
	})
	return out
}

// orderedSinkIn reports the first order-sensitive operation in a map-range
// body: appends, channel sends, output calls, or float accumulation (whose
// rounding depends on order). Empty string when the body is order-safe.
func orderedSinkIn(pkg *Package, body *ast.BlockStmt) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(v.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "append" {
					sink = "append"
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
					strings.HasPrefix(name, "Write") || name == "Emit" {
					sink = name + " call"
				}
			}
		case *ast.SendStmt:
			sink = "channel send"
		case *ast.AssignStmt:
			if v.Tok == token.ADD_ASSIGN || v.Tok == token.SUB_ASSIGN {
				if t := pkg.Info.TypeOf(v.Lhs[0]); t != nil {
					if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
						sink = "float accumulation"
					}
				}
			}
		}
		return true
	})
	return sink
}

// isEntryNode reports whether n is a simulation entry point: the functions
// whose transitive purity the reproduction's headline byte-identity results
// rest on. The set is matched by package path and name so the rule needs no
// annotations in the common cases; any other function can opt in with a
// //lint:entrypoint doc comment.
func isEntryNode(n *Node) bool {
	if n.EntryMark {
		return true
	}
	if n.Fn == nil {
		return false
	}
	name := n.Fn.Name()
	path := n.Pkg.Path
	recv := n.Fn.Type().(*types.Signature).Recv()
	switch path {
	case "spcd":
		return recv == nil && strings.HasPrefix(name, "Run")
	case "spcd/internal/engine":
		return name == "Run"
	case "spcd/internal/sweep":
		return recv != nil && name == "Run"
	case "spcd/internal/scenario":
		// The multi-tenant serving loop and its churn governor: every
		// admission draw, boundary remap and budget decision must stay on
		// the deterministic path or the scenario byte-identity contract
		// (same seed, any parallelism) breaks.
		return (recv == nil && strings.HasPrefix(name, "Run")) ||
			(recv != nil && (name == "propose" || name == "Tick"))
	case "spcd/internal/policy", "spcd/internal/mapping", "spcd/internal/core":
		return recv != nil && (name == "Evaluate" || name == "Saturate" || name == "Tick")
	case "spcd/internal/faultinject":
		return recv != nil && (name == "Hit" || name == "StallCycles" || name == "NodeOverCapacity")
	case "spcd/internal/vm":
		// The translation-coherence charging paths: every remap, unmap and
		// present-bit clear prices its TLB shootdown here, and the remote
		// stalls drain into thread clocks, so a nondeterministic draw on any
		// of these would break the parallelism byte-identity contract.
		return recv != nil && (name == "ClearPresentAt" || name == "TryMigratePageAt" ||
			name == "Unmap" || name == "DrainRemoteStalls")
	}
	return false
}

// flowFinding is one entry-point → sink path awaiting deduplication.
type flowFinding struct {
	sinkPos token.Pos
	desc    string
	chain   []*Node // entry ... sink-owning node
}

func runDeterminismFlow(mp *ModulePass) {
	mod := mp.Mod
	g := mod.Graph

	// Publish each function's direct impurities as facts.
	for _, n := range g.Nodes {
		if imps := directImpurities(mod, n); len(imps) > 0 {
			mod.Facts.Set(n, FactImpure, imps)
		}
	}

	// BFS from each entry point; keep the shortest chain per sink site.
	best := make(map[token.Pos]flowFinding)
	order := make([]token.Pos, 0, 8)
	for _, entry := range g.Nodes {
		if !isEntryNode(entry) {
			continue
		}
		parent := map[*Node]*Node{entry: nil}
		queue := []*Node{entry}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			chain := chainTo(parent, n)
			record := func(pos token.Pos, desc string) {
				f, seen := best[pos]
				if !seen {
					order = append(order, pos)
				}
				if !seen || len(chain) < len(f.chain) {
					best[pos] = flowFinding{sinkPos: pos, desc: desc, chain: chain}
				}
			}
			if v, ok := mod.Facts.Get(n, FactImpure); ok {
				for _, imp := range v.([]impurity) {
					record(imp.Pos, imp.Desc)
				}
			}
			for _, pos := range n.Dynamic {
				record(pos, "unresolvable dynamic call (conservative nondeterminism taint)")
			}
			for _, e := range n.Edges {
				if _, seen := parent[e.Callee]; !seen {
					parent[e.Callee] = n
					queue = append(queue, e.Callee)
				}
			}
		}
	}

	for _, pos := range order {
		f := best[pos]
		mp.Reportf(pos, "%s is reachable from simulation entry point %s; call chain: %s",
			f.desc, f.chain[0].Name, chainString(mod, f.chain))
	}
}

// chainTo reconstructs the BFS path entry → n from the parent map.
func chainTo(parent map[*Node]*Node, n *Node) []*Node {
	var rev []*Node
	for cur := n; cur != nil; cur = parent[cur] {
		rev = append(rev, cur)
	}
	out := make([]*Node, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// chainString renders a call chain as "a → b (file:line) → c (file:line)".
// The entry point needs no position — its name is the anchor — and the last
// element owns the reported site, whose position heads the diagnostic.
func chainString(mod *Module, chain []*Node) string {
	var sb strings.Builder
	for i, n := range chain {
		if i > 0 {
			sb.WriteString(" → ")
		}
		sb.WriteString(n.Name)
		if i > 0 {
			fmt.Fprintf(&sb, " (%s)", mod.Rel(n.Pos()))
		}
	}
	return sb.String()
}
