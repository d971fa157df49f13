// Package lockorder checks the repository's mutex discipline two ways.
//
// Acquisition order: every pair of mutexes must be acquired in one
// consistent order everywhere. The analyzer builds the static
// acquisition graph of a package — an edge L→M for every site that
// locks M while holding L, including acquisitions made by same-package
// callees — and reports every edge that participates in a cycle. Two
// goroutines taking the same pair of locks in opposite orders is the
// classic deadlock, and it is invisible to the race detector unless the
// schedules actually collide.
//
// Blocking under a hot-path mutex: a blocking operation — channel
// send/receive, a select with no default, a fsync, network I/O, a call
// into a function that transitively does any of those — executed while
// holding a mutex turns every other acquirer of that mutex into a
// waiter on the slow operation. The node's insert mutex is exactly such
// a hot-path lock: queries never take it, but inserts, merges, and
// retirement do, so an fsync under it is a throughput cliff the
// benchmarks only catch after the fact. The check understands the
// repository's unlock-around-blocking idiom: a helper that releases its
// caller's mutex before blocking (awaitMergeLocked, coalesceLoopLocked)
// is not a finding for callers holding that mutex.
//
// The walk is path-sensitive over each function body: Lock/RLock add to
// the held set, Unlock/RUnlock remove, defer Unlock holds to function
// end, branches merge conservatively (a mutex counts as held after a
// branch only if every falling-through arm still holds it). Function
// literals and go-statement bodies are separate goroutine scopes,
// walked with an empty held set.
//
// Deliberate violations — the journal-before-ack appends under the node
// mutex, the cluster's single-insertion-sequencer RPCs — are visible,
// reasoned //plshvet:ignore sites, which is the point: the analyzer
// makes holding a lock across a blocking call a decision someone wrote
// down, not an accident.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"plsh/internal/analysis/framework"
)

// Policy configures the blocking-call check.
type Policy struct {
	// Blocking lists callees treated as blocking, by types.Func.FullName
	// (e.g. "(*os.File).Sync", "time.Sleep"). An entry ending in ".*"
	// matches every method of the receiver type it names.
	Blocking []string
	// ExcludeBlocking lists import paths where blocking while holding a
	// mutex is the package's job (the WAL serializes file I/O under its
	// mutex by design). Acquisition-order cycles are still checked there.
	ExcludeBlocking []string
}

// DefaultPolicy is the repository policy. Notable omissions are as
// deliberate as the entries: sched.Pool.Run is a CPU-bound fork/join
// used by design on the insert path (the paper's parallel per-table
// updates run under the single-writer insert lock), and WAL.Rotate is
// bounded metadata I/O on the merge path.
var DefaultPolicy = Policy{
	Blocking: []string{
		"time.Sleep",
		"(*sync.WaitGroup).Wait",
		"(*os.File).Sync",
		"net.Dial",
		"net.DialTimeout",
		"(*net.Dialer).DialContext",
		"(net.Conn).Read",
		"(net.Conn).Write",
		"(*bufio.Writer).Flush",
		"(*encoding/gob.Encoder).Encode",
		"(*encoding/gob.Decoder).Decode",
		"(*plsh/internal/persist.WAL).AppendInsert",
		"(*plsh/internal/persist.WAL).AppendDelete",
		"(*plsh/internal/persist.WAL).AppendRetire",
		"(*plsh/internal/persist.WAL).Checkpoint",
		"(plsh/internal/transport.NodeClient).*",
		"(*plsh/internal/transport.Client).*",
		"(*plsh/internal/transport.conn).*",
	},
	ExcludeBlocking: []string{
		"plsh/internal/persist",
	},
}

// Analyzer is the lockorder analyzer under DefaultPolicy.
var Analyzer = New(DefaultPolicy)

// New returns a lockorder analyzer under the given policy.
func New(p Policy) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "lockorder",
		Doc:  "consistent mutex acquisition order; no blocking calls while holding a mutex",
		Run: func(pass *framework.Pass) error {
			return run(pass, p)
		},
	}
}

// A blockPoint is one blocking construct with the context it runs in.
type blockPoint struct {
	pos      token.Pos
	desc     string
	held     []heldLock      // mutexes held at the point
	released map[string]bool // ambient mutexes released before it
}

// A heldLock is one held mutex: its id and where it was acquired.
type heldLock struct {
	id  string
	pos token.Pos
}

// A calleeCall is a same-package call with the lock context at the call
// site, resolved against the callee's summary after the fixpoint.
type calleeCall struct {
	fn       *types.Func
	pos      token.Pos
	held     []heldLock
	released map[string]bool
}

// An edge is one acquisition-order observation: to was locked while
// from was held.
type edge struct {
	from, to string
	pos      token.Pos
}

// A summary is the per-function result of phase A plus the fixpoint
// fields of phase B.
type summary struct {
	fn     *types.Func
	points []blockPoint // direct blocking constructs
	calls  []calleeCall // same-package calls
	// acquiresDirect are the lock ids this function locks itself.
	acquiresDirect map[string]bool
	edges          []edge

	// Fixpoint fields: may the function block, and which ambient
	// mutexes is it guaranteed to release before every blocking point.
	blocks       bool
	releaseFirst map[string]bool
	acquires     map[string]bool
}

func run(pass *framework.Pass, policy Policy) error {
	excluded := false
	for _, p := range policy.ExcludeBlocking {
		if pass.Pkg.Path() == p {
			excluded = true
		}
	}
	w := &walker{pass: pass, policy: policy}

	// Phase A: walk every function body, collecting blocking points,
	// same-package calls, acquisitions, and order edges.
	summaries := map[*types.Func]*summary{}
	var order []*summary
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s := &summary{fn: fn, acquiresDirect: map[string]bool{}, releaseFirst: map[string]bool{}}
			w.cur = s
			w.funcName = fd.Name.Name
			w.walkStmts(fd.Body.List, newState())
			summaries[fn] = s
			order = append(order, s)
		}
	}

	// Phase B: fixpoint. blocks and acquires grow, releaseFirst shrinks
	// from the intersection of contributions; iterate to a fixed point.
	for _, s := range order {
		s.acquires = map[string]bool{}
		for id := range s.acquiresDirect {
			s.acquires[id] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range order {
			// acquires: union over callees.
			for _, c := range s.calls {
				cs := summaries[c.fn]
				if cs == nil {
					continue
				}
				for id := range cs.acquires {
					if !s.acquires[id] {
						s.acquires[id] = true
						changed = true
					}
				}
			}
			// blocks / releaseFirst: every direct point contributes its
			// released set; every blocking callee contributes the call
			// site's released set plus what the callee releases first.
			var contribs []map[string]bool
			for _, p := range s.points {
				contribs = append(contribs, p.released)
			}
			for _, c := range s.calls {
				cs := summaries[c.fn]
				if cs == nil || !cs.blocks {
					continue
				}
				m := map[string]bool{}
				for id := range c.released {
					m[id] = true
				}
				for id := range cs.releaseFirst {
					m[id] = true
				}
				contribs = append(contribs, m)
			}
			blocks := len(contribs) > 0
			rf := intersect(contribs)
			if blocks != s.blocks || !sameSet(rf, s.releaseFirst) {
				s.blocks = blocks
				s.releaseFirst = rf
				changed = true
			}
		}
	}

	// Phase C: findings. Blocking-under-mutex first.
	if !excluded {
		for _, s := range order {
			for _, p := range s.points {
				for _, h := range p.held {
					if p.released[h.id] {
						continue
					}
					pass.Reportf(p.pos, "%s while holding %s (acquired at %s); release the mutex around blocking work",
						p.desc, h.id, pass.Fset.Position(h.pos))
				}
			}
			for _, c := range s.calls {
				cs := summaries[c.fn]
				if cs == nil || !cs.blocks {
					continue
				}
				for _, h := range c.held {
					if c.released[h.id] || cs.releaseFirst[h.id] {
						continue
					}
					pass.Reportf(c.pos, "call to %s may block while holding %s (acquired at %s); release the mutex around blocking work",
						c.fn.Name(), h.id, pass.Fset.Position(h.pos))
				}
			}
		}
	}

	// Acquisition-order edges: direct edges plus call-site edges through
	// callee summaries, then report every edge inside a cycle.
	var edges []edge
	for _, s := range order {
		edges = append(edges, s.edges...)
		for _, c := range s.calls {
			cs := summaries[c.fn]
			if cs == nil {
				continue
			}
			for _, h := range c.held {
				for id := range cs.acquires {
					if id != h.id {
						edges = append(edges, edge{from: h.id, to: id, pos: c.pos})
					}
				}
			}
		}
	}
	reportCycles(pass, edges)
	return nil
}

// intersect returns the intersection of the sets; the intersection of
// nothing is the empty set.
func intersect(sets []map[string]bool) map[string]bool {
	out := map[string]bool{}
	if len(sets) == 0 {
		return out
	}
	for id := range sets[0] {
		in := true
		for _, s := range sets[1:] {
			if !s[id] {
				in = false
				break
			}
		}
		if in {
			out[id] = true
		}
	}
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// reportCycles finds the strongly connected components of the
// acquisition graph and reports every edge that stays inside one — the
// edges whose orders can deadlock against each other.
func reportCycles(pass *framework.Pass, edges []edge) {
	adj := map[string][]string{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	// Tarjan's SCC.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, ncomp := 0, 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, to := range adj[v] {
			if _, seen := index[to]; !seen {
				strongconnect(to)
				if low[to] < low[v] {
					low[v] = low[to]
				}
			} else if onStack[to] && index[to] < low[v] {
				low[v] = index[to]
			}
		}
		if low[v] == index[v] {
			for {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[u] = false
				comp[u] = ncomp
				if u == v {
					break
				}
			}
			ncomp++
		}
	}
	nodes := make([]string, 0, len(adj))
	for v := range adj {
		nodes = append(nodes, v)
	}
	sort.Strings(nodes)
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	// Self-edges (L→L) cannot occur — the walker reports direct
	// re-acquisition separately and call-site edges skip the held lock —
	// so an in-component edge always means a genuine multi-lock cycle.
	type key struct{ from, to string }
	seen := map[key]bool{}
	var found []edge
	for _, e := range edges {
		cf, okf := comp[e.from]
		ct, okt := comp[e.to]
		if !okf || !okt || cf != ct || seen[key{e.from, e.to}] {
			continue
		}
		seen[key{e.from, e.to}] = true
		found = append(found, e)
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	for _, e := range found {
		pass.Reportf(e.pos, "lock order cycle: %s is acquired while holding %s, and the reverse order also occurs; pick one order",
			e.to, e.from)
	}
}
