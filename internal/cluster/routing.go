// Data-aware placement and query routing — the layered/entropy-LSH idea
// (Bahmani et al., "Efficient Distributed Locality Sensitive Hashing")
// applied to this coordinator: instead of broadcasting every search to
// every replica group, documents are placed by a short LSH bucket
// signature and each query probes only the groups whose signatures it
// could plausibly collide with, to a configurable recall target.
//
// The routing signature is B sign bits from a dedicated hyperplane set,
// drawn deterministically from the fleet's (Dim, Seed) but independent
// of the node-level tables' planes. Independence matters: if routing
// reused the tables' own bits, every document inside a routed group
// would agree on those bits by construction, so every table containing
// them would lose B bits of selectivity within the group — bucket
// occupancy inflates 2^B-fold on those tables and the routed search does
// more node work than the broadcast it replaces. With independent
// planes, co-located documents constrain the table keys only through
// genuine angular similarity, which in high dimension is negligible.
// Placement is a pure function of the signature and the shared hash
// seed: a bijective scramble of the B-bit signature followed by a
// balanced range reduction onto the group count, so mirrored replicas,
// a restarted coordinator, and WAL-recovered nodes all agree on where a
// document lives without any state exchange. They agree only under one
// family: rounding the routing planes to one byte a coefficient gave
// about 0.6 % of documents another two-bit signature than the four-byte
// planes had, so a partitioned fleet persisted under the four-byte
// family holds that share of its documents on a group other than the one
// the router now computes for them, where a routed query may miss them,
// until they are re-inserted.
//
// Probing is confidence-ordered multiprobe (Lv et al.'s query-directed
// probing, applied to the routing bits): for a query with per-bit
// margins s_j, a document at angle t flips bit j with probability
// ε_j(t) = Φ(−|s_j|·cot t) — exact for the sign-random-projection
// family, since a·d = s·cos t + z·sin t with z ~ N(0,1) independent
// across hyperplanes; exact to within the 1/32 rounding for lshhash's,
// whose coefficients are Gaussians rounded to 1/32 and whose scores keep
// the N(0, ‖v‖²) scale — and ε_j is increasing in t on (0, π/2), so
// evaluating it at the search radius R bounds every in-radius document.
// Signatures are enumerated in decreasing collision probability until
// the accumulated mass reaches the recall target; the visited set is
// downward closed (a sub-pattern of any enumerated flip pattern is
// enumerated first), so the ≥ target guarantee extends to every
// document within the radius, not just those at exactly R. When the
// probe set degenerates — the mass target needs more than half the
// groups, the enumeration budget runs out, or cot R is too small to
// discriminate (R near π/2) — the query falls back to the full scatter
// broadcast, trading the saved fan-out for the exact pre-routing
// behavior.
package cluster

import (
	"fmt"
	"math"

	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// Placement selects how a Cluster places documents onto replica groups
// and which groups a search contacts.
type Placement uint8

const (
	// PlacementScatter is the default and the paper's layout: inserts go
	// round-robin to the rolling window, searches broadcast to every
	// group. Bit-stable with clusters built before placement existed.
	PlacementScatter Placement = iota
	// PlacementPartitioned places each document on the group chosen from
	// its LSH bucket signature and routes each search to the small set of
	// groups that can hold its in-radius neighbors, falling back to
	// scatter per query when the probe set degenerates. Opt-in: it trades
	// a bounded recall target (RouterConfig.Recall) for per-query cost
	// proportional to the probe count instead of the group count, and it
	// gives up the rolling insert window (documents live where their
	// signature says, so there is no oldest-group retirement).
	PlacementPartitioned
)

// String implements fmt.Stringer for logs and bench labels.
func (p Placement) String() string {
	switch p {
	case PlacementScatter:
		return "scatter"
	case PlacementPartitioned:
		return "partitioned"
	}
	return fmt.Sprintf("placement(%d)", uint8(p))
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Groups is the replica-group count of the cluster the router places
	// for. Required.
	Groups int
	// Radius is the default search radius (radians) used to bound the
	// per-bit flip probabilities when a request carries no radius of its
	// own. Default 0.9, the package-wide default.
	Radius float64
	// Recall is the probe-mass target in (0, 1]: every document within
	// the effective radius is routed-to with at least this probability
	// (over the draw of the hyperplanes). Higher values probe more
	// groups. Default 0.9.
	Recall float64
}

// Router maps documents to replica groups and queries to probe sets, as
// a pure function of the LSH family's seed — see the package comment on
// routing for the scheme and its recall guarantee.
type Router struct {
	// rfam is the router's own tiny hyperplane family (bits elementary
	// functions), derived from the fleet's (Dim, Seed) but disjoint from
	// the tables' planes — see the package comment for why sharing them
	// would inflate within-group bucket occupancy 2^B-fold.
	rfam        *lshhash.Family
	groups      int
	bits        int
	half        int // rfam's K/2: bits per packed half-hash
	radius      float64
	recall      float64
	maxPatterns int
	maxProbe    int // probe sets larger than this fall back to scatter
	mulA, mulB  uint32
}

const (
	// maxRouteBits caps the routing signature width B.
	maxRouteBits = 8
	// patternBudget is the most flip patterns a probe enumerates before it
	// falls back to scatter.
	patternBudget = 64
)

// routerScratch is the per-call workspace of GroupFor/Probe, a stack
// value: B ≤ maxRouteBits bounds the sketch and per-bit buffers, and the
// enumeration holds at most patternBudget+2 heap states (each pop pushes
// at most two).
type routerScratch struct {
	scores [maxRouteBits]float32
	halves [maxRouteBits]uint32
	eps    [maxRouteBits]float64
	odds   [maxRouteBits]float64
	order  [maxRouteBits]int
	heap   [patternBudget + 2]probeState
}

// probeState is one pending flip pattern of the multiprobe enumeration:
// its collision mass, the flipped sorted-bit set, and the highest
// flipped index (the successor frontier).
type probeState struct {
	mass float64
	mask uint16
	last int8
}

// NewRouter builds a Router over fam for cfg.Groups replica groups.
func NewRouter(fam *lshhash.Family, cfg RouterConfig) (*Router, error) {
	if fam == nil {
		return nil, fmt.Errorf("cluster: router needs an LSH family")
	}
	if cfg.Groups < 1 || cfg.Groups > 1<<maxRouteBits {
		return nil, fmt.Errorf("cluster: router groups = %d, need 1 to %d", cfg.Groups, 1<<maxRouteBits)
	}
	if !(cfg.Recall >= 0 && cfg.Recall <= 1) {
		return nil, fmt.Errorf("cluster: routing recall %v outside (0, 1]", cfg.Recall)
	}
	if !(cfg.Radius >= 0) || math.IsInf(cfg.Radius, 1) {
		return nil, fmt.Errorf("cluster: routing radius %v must be finite and not negative", cfg.Radius)
	}
	p := fam.Params()
	// The signature is B = ceil(log2(Groups)) bits, at most maxRouteBits
	// (hence the group bound above): the narrowest that still maps onto
	// every group, keeping probe sets small; 2^B signature cells are spread
	// evenly over the groups.
	bits := bitsFor(cfg.Groups)
	radius := cfg.Radius
	if radius == 0 {
		radius = 0.9
	}
	recall := cfg.Recall
	if recall == 0 {
		recall = 0.9
	}
	// A query that cannot reach the recall target within the pattern budget
	// (or every pattern, when there are fewer) falls back to scatter.
	maxPatterns := min(patternBudget, 1<<bits)
	// The dedicated routing family: K=2 makes each "half" a single sign
	// bit, so M half-hashes are exactly M elementary functions; the seed
	// is scrambled away from the fleet seed so the planes are disjoint
	// from every table's. M is padded to lshhash's minimum of 2 when one
	// bit suffices — sigOf reads only the first `bits` functions.
	rp := lshhash.Params{Dim: p.Dim, K: 2, M: max(2, bits), Seed: mix64(p.Seed ^ 0x726f757465)}
	rfam, err := lshhash.NewFamily(rp)
	if err != nil {
		return nil, fmt.Errorf("cluster: routing hyperplanes: %w", err)
	}
	r := &Router{
		rfam:        rfam,
		groups:      cfg.Groups,
		bits:        bits,
		half:        rp.K / 2,
		radius:      radius,
		recall:      recall,
		maxPatterns: maxPatterns,
		maxProbe:    max(1, cfg.Groups/2),
		mulA:        uint32(mix64(p.Seed^0x8f1bbcdc)) | 1,
		mulB:        uint32(mix64(p.Seed^0x5a827999)) | 1,
	}
	return r, nil
}

// Dim returns the dimension of the vector space the router hashes in;
// GroupFor and Probe take only vectors that pass sparse.Vector.Check(Dim).
func (r *Router) Dim() int { return r.rfam.Params().Dim }

// Groups returns the group count the router places for.
func (r *Router) Groups() int { return r.groups }

// Recall returns the configured probe-mass target.
func (r *Router) Recall() float64 { return r.recall }

// bitsFor returns ceil(log2(n)), at least 1.
func bitsFor(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}

// mix64 is the SplitMix64 finalizer — the deterministic scrambler behind
// the signature→group constants.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// groupOf maps a B-bit signature to its group: a seed-keyed bijective
// scramble of the signature space (odd multiply and xor-shift are both
// invertible mod 2^B) followed by a balanced range reduction, so every
// group owns either floor(2^B/G) or ceil(2^B/G) signature cells. G is at
// most 2^maxRouteBits (NewRouter refuses more), so that is at least one
// cell and no group is left idle; the assignment is a pure function of
// (signature, B, G, seed).
func (r *Router) groupOf(sig uint32) int {
	mask := uint32(1)<<r.bits - 1
	x := (sig * r.mulA) & mask
	x ^= x >> ((r.bits + 1) / 2)
	x = (x * r.mulB) & mask
	return int((uint64(x) * uint64(r.groups)) >> r.bits)
}

// sigOf extracts the B routing bits from a packed half-hash row
// (elementary function j lives at bit j%half of half-hash j/half — the
// same packing TableKey concatenates pairs of).
func (r *Router) sigOf(halves []uint32) uint32 {
	var sig uint32
	for j := 0; j < r.bits; j++ {
		sig |= (halves[j/r.half] >> (j % r.half) & 1) << j
	}
	return sig
}

// GroupFor returns the replica group that owns document v under
// partitioned placement. Deterministic in (v, family seed): mirrored
// coordinators and restarts agree without coordination.
func (r *Router) GroupFor(v sparse.Vector) int {
	var s routerScratch
	r.rfam.SketchInto(v, s.scores[:], s.halves[:])
	return r.groupOf(r.sigOf(s.halves[:]))
}

// Probe appends the probe set for query q at the given radius (0 = the
// router's default) to dst and reports whether routing is usable: the
// returned groups carry at least the configured recall mass for every
// document within the radius. ok = false means the probe set degenerated
// — too many distinct groups, enumeration budget exhausted, or a radius
// too close to π/2 to discriminate — and the caller must fall back to
// the full broadcast; a nil Router, the scatter placement's, routes
// nothing and always reports false. The set always contains GroupFor(q)'s
// group (the zero-flip signature is enumerated first), so exact
// duplicates are never routed away from.
func (r *Router) Probe(q sparse.Vector, radius float64, dst []int) ([]int, bool) {
	if r == nil {
		return dst, false
	}
	if radius <= 0 {
		radius = r.radius
	}
	if radius <= 0 || radius >= math.Pi/2 {
		return dst, false
	}
	cot := math.Cos(radius) / math.Sin(radius)
	if cot < 1e-3 {
		return dst, false
	}
	var s routerScratch
	r.rfam.SketchInto(q, s.scores[:], s.halves[:])
	sig := r.sigOf(s.halves[:])

	// Per-bit worst-case flip probabilities at the radius, most uncertain
	// first: ε_j = Φ(−|s_j|·cot R), clamped away from the degenerate 0.5
	// and exact-0 endpoints.
	for j := 0; j < r.bits; j++ {
		m := float64(s.scores[j])
		if m < 0 {
			m = -m
		}
		e := 0.5 * math.Erfc(m*cot/math.Sqrt2)
		s.eps[j] = min(max(e, 1e-12), 0.5)
		s.order[j] = j
	}
	// Insertion sort, most uncertain bit first: bits ≤ maxRouteBits, and
	// sort.Slice would allocate its swapper on every probe of the hot path.
	for i := 1; i < r.bits; i++ {
		j, o := i, s.order[i]
		for j > 0 && s.eps[s.order[j-1]] < s.eps[o] {
			s.order[j] = s.order[j-1]
			j--
		}
		s.order[j] = o
	}
	base := 1.0
	for j := 0; j < r.bits; j++ {
		e := s.eps[s.order[j]]
		s.odds[j] = e / (1 - e)
		base *= 1 - e
	}

	start := len(dst)
	visit := func(sigp uint32) bool {
		g := r.groupOf(sigp)
		for _, have := range dst[start:] {
			if have == g {
				return true
			}
		}
		if len(dst)-start == r.maxProbe {
			return false // would probe more than half the groups: degenerate
		}
		dst = append(dst, g)
		return true
	}
	// xorFor maps a flip pattern over sorted bit indices back to a
	// signature xor mask in original bit positions.
	xorFor := func(mask uint16) uint32 {
		var x uint32
		for j := 0; mask != 0; j++ {
			if mask&1 != 0 {
				x |= 1 << s.order[j]
			}
			mask >>= 1
		}
		return x
	}

	mass := base
	if !visit(sig) {
		return dst[:start], false
	}
	if mass >= r.recall {
		return dst, true
	}
	// Best-first enumeration of flip patterns in decreasing mass
	// (query-directed probing): each heap pop either extends the pattern
	// with the next bit or shifts its frontier bit onward, generating
	// every nonempty subset exactly once.
	h := s.heap[:0]
	h = pushState(h, probeState{mass: base * s.odds[0], mask: 1, last: 0})
	for emitted := 1; len(h) > 0 && emitted < r.maxPatterns; emitted++ {
		st := h[0]
		h = popState(h)
		if !visit(sig ^ xorFor(st.mask)) {
			return dst[:start], false
		}
		mass += st.mass
		if mass >= r.recall {
			return dst, true
		}
		if next := int(st.last) + 1; next < r.bits {
			h = pushState(h, probeState{
				mass: st.mass * s.odds[next],
				mask: st.mask | 1<<next,
				last: int8(next),
			})
			h = pushState(h, probeState{
				mass: st.mass * s.odds[next] / s.odds[st.last],
				mask: st.mask&^(1<<st.last) | 1<<next,
				last: int8(next),
			})
		}
	}
	return dst[:start], false // budget exhausted below the recall target
}

// pushState/popState maintain a max-heap of probe states by mass.
func pushState(h []probeState, st probeState) []probeState {
	h = append(h, st)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].mass >= h[i].mass {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func popState(h []probeState) []probeState {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h[l].mass > h[big].mass {
			big = l
		}
		if r < n && h[r].mass > h[big].mass {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	return h
}
