// Declarative design-space sweeps. The paper's evaluation is a cross
// product — NI placement × topology × routing × transfer size × hop count —
// and this file provides the three concepts that make such sweeps (and ones
// the paper never ran) first-class: a Point (one fully-specified
// simulation), a Sweep builder that composes axes into a cross product, and
// a Runner that executes points on a worker pool. Every point is an
// independent deterministic simulation with its own event engine, so
// parallelism across points is race-free and results are bit-identical to a
// serial run.
package rackni

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"rackni/internal/fabric"
	"rackni/internal/load"
)

// Mode selects which §5 microbenchmark one sweep point runs.
type Mode int

const (
	// Latency is the synchronous latency microbenchmark: one core issues
	// blocking remote reads of the point's size.
	Latency Mode = iota
	// Bandwidth is the asynchronous bandwidth microbenchmark: all cores
	// issue async remote reads until the windowed rate stabilizes.
	Bandwidth
	// WorkloadMode runs a named closed-loop scenario from the library
	// (Point.Scenario); set through the Sweep's Workloads axis.
	WorkloadMode
	// ServiceMode runs the open-loop replicated KV service (service.go)
	// under the point's arrival process and hedge delay; set through the
	// Sweep's Arrivals axis. Service points always run the Cluster path,
	// even single-node ones.
	ServiceMode
)

func (m Mode) String() string {
	switch m {
	case Latency:
		return "latency"
	case Bandwidth:
		return "bandwidth"
	case WorkloadMode:
		return "workload"
	case ServiceMode:
		return "service"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Point is one fully-specified simulation: a complete Config (with design,
// topology, routing and seed already applied) plus the microbenchmark mode,
// transfer size, one-way intra-rack hop count, issuing core (latency mode
// only), scenario name (workload mode only; its library defaults define
// sizes and participating cores, so the Size and Core axes don't apply to
// workload points), and node count. Nodes <= 1 runs one detailed node
// against the paper's emulated rack (the fast path); Nodes > 1 builds a
// real Cluster of that many detailed nodes, every pair Hops apart, and
// reports the cross-node aggregate. Points are value types; build them
// with a Sweep or directly.
type Point struct {
	Config   Config
	Mode     Mode
	Size     int
	Hops     int
	Core     int
	Scenario string
	Nodes    int
	// Placement, when non-zero, places the point's cluster nodes on the
	// rack's 3D torus under the named policy (identity, clustered,
	// scattered, random:<seed>) — real pairwise hop distances instead of
	// the uniform fixed-hop model. Requires a multi-node point that fits
	// the torus (Nodes ≤ TorusRadix³).
	Placement PlacementPolicy
	// Faults, when > 0, drops each inter-node fabric leg with this
	// probability (deterministic, seeded from Config.Seed). Requires a
	// multi-node point; if Config.ReqTimeout is unarmed the point arms it
	// with DefaultReqTimeout so drops recover by retransmission.
	Faults float64
	// Window, when > 0, caps each QP's in-flight requests at this credit
	// window (Config.QPWindow); 0 keeps the WQ-depth-only bound.
	Window int
	// FabricRouting, when not RouteNone, routes every inter-node block
	// hop-by-hop over the rack torus through per-link credit queues (the
	// congestion-faithful fabric) with this routing policy. Requires a
	// multi-node point that fits the torus; RouteNone keeps the lump-sum
	// fast path, bit-identical to a sweep without the axis.
	FabricRouting RoutePolicy
	// Shards partitions a multi-node point's cluster across this many
	// event engines, one goroutine each, under conservative-window
	// synchronization (ClusterSpec.Shards). A pure wall-clock knob:
	// results are bit-identical at every shard count. 0 or 1 is the
	// classic single engine; requires a multi-node workload or service
	// point (the microbenchmarks coordinate cluster-wide on one engine).
	// Geometries without conservative lookahead — the congestion fabric,
	// zero per-hop delay — fall back to one engine.
	Shards int
	// Arrival is the open-loop arrival process of a ServiceMode point
	// (kind and per-client rate); unused in other modes.
	Arrival ArrivalSpec
	// Hedge is the ServiceMode hedge delay in cycles (0 = no hedging);
	// unused in other modes.
	Hedge int64
}

// nodeCount normalizes the point's node count (0 means single-node).
func (p Point) nodeCount() int {
	if p.Nodes < 1 {
		return 1
	}
	return p.Nodes
}

// modeLabel names the point's run kind for tables: the scenario name for
// workload points, the microbenchmark otherwise.
func (p Point) modeLabel() string {
	if p.Scenario != "" {
		return p.Scenario
	}
	return p.Mode.String()
}

// label is the point's compact identity, used in errors and progress
// lines: the fixed axes, then the suffix of each optional axis present on
// the point, in registry order.
func (p Point) label() string {
	l := fmt.Sprintf("%v/%v/%v/%v/%dB@%dhops/seed%d",
		p.Config.Design, p.Config.Topology, p.Config.Routing, p.modeLabel(),
		p.Size, p.Hops, p.Config.Seed)
	for _, c := range axisColumns {
		if c.present(p) {
			l += c.label(p)
		}
	}
	return l
}

// Sweep composes axes into a cross product of Points.
//
// Axis setters return the sweep for chaining; an axis left unset
// contributes a single value taken from the base configuration (and for
// axes with no Config field: Latency mode, the block size, DefaultHops,
// the central measurement core, one node, the uniform placement, no
// faults, an uncapped window, and the lump-sum fabric). Points enumerate
// in a fixed nesting order — Designs ▸ Topologies ▸ Routings ▸ Hops ▸
// Nodes ▸ Placements ▸ Faults ▸ Windows ▸ FabricRoutings ▸ run kinds
// (Modes, then Workloads) ▸ Shards ▸ Sizes ▸ Seeds ▸ Cores, first axis
// outermost — so a sweep's point list is deterministic and stable across
// runs.
// Workload points pin the Size and Core axes to 0 (the scenario defines
// both), contributing one point per
// design/topology/routing/hops/nodes/faults/window/seed combination.
type Sweep struct {
	base       Config
	designs    []Design
	topos      []Topology
	routings   []Routing
	modes      []Mode
	workloads  []string
	sizes      []int
	hops       []int
	seeds      []uint64
	cores      []int
	nodes      []int
	shards     []int
	faults     []float64
	windows    []int
	froutings  []RoutePolicy
	arrivals   []ArrivalSpec
	hedges     []int64
	placements []PlacementPolicy
}

// NewSweep starts a sweep over the given base configuration.
func NewSweep(base Config) *Sweep { return &Sweep{base: base} }

// Designs sets the NI-placement axis.
func (s *Sweep) Designs(ds ...Design) *Sweep {
	s.designs = append(s.designs[:0], ds...)
	return s
}

// Topologies sets the on-chip interconnect axis.
func (s *Sweep) Topologies(ts ...Topology) *Sweep {
	s.topos = append(s.topos[:0], ts...)
	return s
}

// Routings sets the mesh-routing-policy axis.
func (s *Sweep) Routings(rs ...Routing) *Sweep {
	s.routings = append(s.routings[:0], rs...)
	return s
}

// Modes sets the microbenchmark axis.
func (s *Sweep) Modes(ms ...Mode) *Sweep {
	s.modes = append(s.modes[:0], ms...)
	return s
}

// Workloads adds named closed-loop scenarios ("kv", "pointerchase", ...;
// see Scenarios) to the run-kind axis. Scenario points ride the same cross
// product as the microbenchmark modes: every scenario runs for every
// design x topology x routing x hops x seed combination. Set alone, only
// the scenarios run; combined with Modes, both do.
func (s *Sweep) Workloads(names ...string) *Sweep {
	s.workloads = append(s.workloads[:0], names...)
	return s
}

// Sizes sets the transfer-size axis (bytes).
func (s *Sweep) Sizes(sizes ...int) *Sweep {
	s.sizes = append(s.sizes[:0], sizes...)
	return s
}

// Hops sets the one-way intra-rack hop-count axis.
func (s *Sweep) Hops(hops ...int) *Sweep {
	s.hops = append(s.hops[:0], hops...)
	return s
}

// Seeds sets the simulation-seed axis.
func (s *Sweep) Seeds(seeds ...uint64) *Sweep {
	s.seeds = append(s.seeds[:0], seeds...)
	return s
}

// Cores sets the issuing-core axis (latency mode).
func (s *Sweep) Cores(cores ...int) *Sweep {
	s.cores = append(s.cores[:0], cores...)
	return s
}

// Nodes sets the node-count axis: 1 runs the single detailed node against
// the paper's emulated rack; n > 1 builds a real n-node Cluster (every
// pair Hops apart) and reports the cross-node aggregate.
func (s *Sweep) Nodes(nodes ...int) *Sweep {
	s.nodes = append(s.nodes[:0], nodes...)
	return s
}

// Shards sets the engine-shard axis for multi-node workload and service
// points (Point.Shards): each count K > 1 runs the point's cluster on K
// engines in parallel under conservative-window synchronization —
// bit-identical results, shorter wall clock. 0 and 1 both mean the
// classic single engine.
func (s *Sweep) Shards(ks ...int) *Sweep {
	s.shards = append(s.shards[:0], ks...)
	return s
}

// Faults sets the fabric drop-rate axis: each rate > 0 drops every
// inter-node leg with that probability (deterministic, seeded from the
// point's Config.Seed). Faulty points require a multi-node (Cluster) node
// count; rate 0 contributes a fault-free point. When the base Config
// leaves ReqTimeout unarmed, faulty points arm it with DefaultReqTimeout
// so drops recover by retransmission.
func (s *Sweep) Faults(rates ...float64) *Sweep {
	s.faults = append(s.faults[:0], rates...)
	return s
}

// Windows sets the per-QP credit-window axis (Config.QPWindow): each
// window > 0 caps a QP's in-flight requests at that many; 0 keeps the
// WQ-depth-only bound.
func (s *Sweep) Windows(windows ...int) *Sweep {
	s.windows = append(s.windows[:0], windows...)
	return s
}

// FabricRoutings sets the congestion-fabric routing-policy axis: each
// policy other than RouteNone routes the point's inter-node blocks
// hop-by-hop through per-link credit queues (DOR or adaptive-minimal)
// instead of the lump-sum delay model. Congested points require a
// multi-node node count that fits the rack torus (TorusRadix³);
// RouteNone contributes an uncongested point.
func (s *Sweep) FabricRoutings(rs ...RoutePolicy) *Sweep {
	s.froutings = append(s.froutings[:0], rs...)
	return s
}

// Arrivals adds open-loop service run kinds to the run-kind axis: one
// ServiceMode point per arrival process (kind + per-client rate) for
// every design/topology/routing/hops/nodes/faults/window/fabric/seed
// combination, crossed with the Hedges axis. Like Workloads, service
// points pin the Size and Core axes (the service spec defines both).
func (s *Sweep) Arrivals(as ...ArrivalSpec) *Sweep {
	s.arrivals = append(s.arrivals[:0], as...)
	return s
}

// Hedges sets the service hedge-delay axis in cycles (0 = no hedging).
// It spans only the ServiceMode points contributed by Arrivals;
// microbenchmark and workload points ignore it.
func (s *Sweep) Hedges(hs ...int64) *Sweep {
	s.hedges = append(s.hedges[:0], hs...)
	return s
}

// Placements sets the node-placement axis: each named policy places
// every multi-node point's nodes at its coordinates on the rack's 3D
// torus (real pairwise hop distances from Torus3D); the zero policy
// contributes a uniform fixed-hop point. Node counts must fit the torus
// (TorusRadix³). CheckSweepPoints rejects a named policy on a single-node
// point: the emulated rack has no torus to place nodes on.
func (s *Sweep) Placements(ps ...PlacementPolicy) *Sweep {
	s.placements = append(s.placements[:0], ps...)
	return s
}

// Points expands the sweep into its cross product, in nesting order.
func (s *Sweep) Points() []Point {
	designs := orDefault(s.designs, s.base.Design)
	topos := orDefault(s.topos, s.base.Topology)
	routings := orDefault(s.routings, s.base.Routing)
	hops := orDefault(s.hops, s.base.DefaultHops)
	// The run-kind axis merges the microbenchmark modes, the named
	// scenarios and the open-loop arrival processes; with none set, a
	// single latency run is the default.
	type runKind struct {
		mode     Mode
		scenario string
		arrival  ArrivalSpec
	}
	var kinds []runKind
	for _, m := range s.modes {
		kinds = append(kinds, runKind{mode: m})
	}
	for _, w := range s.workloads {
		kinds = append(kinds, runKind{mode: WorkloadMode, scenario: w})
	}
	for _, a := range s.arrivals {
		kinds = append(kinds, runKind{mode: ServiceMode, arrival: a})
	}
	kinds = orDefault(kinds, runKind{mode: Latency})
	hedges := orDefault(s.hedges, 0)
	sizes := orDefault(s.sizes, s.base.BlockBytes)
	seeds := orDefault(s.seeds, s.base.Seed)
	cores := orDefault(s.cores, measureCore)
	nodes := orDefault(s.nodes, 1)
	placements := orDefault(s.placements, PlacementPolicy{})
	faults := orDefault(s.faults, 0)
	windows := orDefault(s.windows, s.base.QPWindow)
	froutings := orDefault(s.froutings, RouteNone)
	shards := orDefault(s.shards, 1)
	pts := make([]Point, 0,
		len(designs)*len(topos)*len(routings)*len(hops)*len(nodes)*len(placements)*len(shards)*
			len(faults)*len(windows)*len(froutings)*len(kinds)*len(sizes)*len(seeds)*len(cores))
	for _, d := range designs {
		for _, tp := range topos {
			for _, rt := range routings {
				for _, h := range hops {
					if h == 0 {
						// Resolve "default" now so the point's metadata
						// (label, Format, CSV, JSON) reports the hop count
						// actually simulated.
						h = s.base.DefaultHops
					}
					for _, nn := range nodes {
						if nn < 1 {
							nn = 1
						}
						// A named placement on a single-node point is carried
						// through so check() can reject the combination.
						for _, pl := range placements {
							for _, fr := range faults {
								for _, win := range windows {
									for _, fab := range froutings {
										for _, k := range kinds {
											// Scenario and service points don't span the Size and
											// Core axes (the scenario or service spec defines
											// both), so they collapse to one point per
											// design/topology/routing/hops/seed combination; the
											// hedge axis spans only service points, and the shard
											// axis only multi-node workload/service points (the
											// only run kinds whose cluster can shard).
											szs, crs := sizes, cores
											hds := []int64{0}
											ks := []int{1}
											if k.mode == WorkloadMode || k.mode == ServiceMode {
												szs, crs = []int{0}, []int{0}
												if nn > 1 {
													ks = shards
												}
											}
											if k.mode == ServiceMode {
												hds = hedges
											}
											for _, sh := range ks {
												if sh < 1 {
													sh = 1
												}
												for _, hd := range hds {
													for _, sz := range szs {
														for _, sd := range seeds {
															for _, c := range crs {
																cfg := s.base
																cfg.Design, cfg.Topology, cfg.Routing, cfg.Seed = d, tp, rt, sd
																pts = append(pts, Point{Config: cfg, Mode: k.mode, Size: sz,
																	Hops: h, Core: c, Scenario: k.scenario, Nodes: nn,
																	Placement: pl,
																	Faults:    fr, Window: win, FabricRouting: fab,
																	Shards: sh, Arrival: k.arrival, Hedge: hd})
															}
														}
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// orDefault returns an axis's values, or the single default value when
// the axis is unset.
func orDefault[T any](axis []T, def T) []T {
	if len(axis) == 0 {
		return []T{def}
	}
	return axis
}

// Run expands the sweep and executes it; shorthand for
// NewRunner(opts).Run(s.Points()).
func (s *Sweep) Run(opts Options) (Results, error) {
	return NewRunner(opts).Run(s.Points())
}

// Options configures a Runner.
type Options struct {
	// Parallel is the requested worker-pool size; values below 2 run
	// points serially. The effective pool is min(Parallel,
	// runtime.NumCPU(), number of points): simulation points are pure
	// CPU work, so workers beyond the machine's cores only add scheduler
	// overhead — on a single-core container an oversubscribed pool ran
	// ~20% slower than serial. Points are independent simulations, so
	// any degree of parallelism yields bit-identical results in the same
	// order.
	Parallel int
	// Uncapped skips the core-count cap on Parallel: exactly that many
	// workers run (still at most one per point) even beyond the
	// machine's cores. Simulation gains nothing from oversubscription —
	// the override exists for callers whose Progress callbacks block on
	// external coordination and need that many points genuinely
	// in flight at once.
	Uncapped bool
	// Context, when non-nil, cancels the run: in-flight simulations abort
	// at their next cancellation poll and not-yet-started points are
	// skipped. Run returns the context's error.
	Context context.Context
	// Progress, when non-nil, is invoked after each point completes with
	// the completed count, the total, and that point's result. The done
	// count is a consistent snapshot, but calls are NOT serialized: under
	// parallelism they may arrive concurrently and out of done order — a
	// slow callback must not be able to stall the other workers'
	// simulations behind a lock.
	Progress func(done, total int, r Result)
}

// Result is one executed point and its outcome. Exactly one of Sync, BW,
// WL and SVC is set on success (matching the point's mode); a point
// skipped because the run was cancelled before it started has all of them
// and Err nil.
type Result struct {
	Point Point
	Sync  *SyncResult
	BW    *BWResult
	WL    *WorkloadResult
	SVC   *ServiceResult
	Err   error
	Wall  time.Duration
}

// skipped reports whether the point never produced a result or error.
func (r Result) skipped() bool {
	return r.Sync == nil && r.BW == nil && r.WL == nil && r.SVC == nil && r.Err == nil
}

// Results is an ordered collection of point outcomes: index i holds point i
// of the executed list regardless of completion order.
type Results []Result

// Runner executes sweep points, optionally on a worker pool.
type Runner struct {
	opts Options
}

// NewRunner returns a runner with the given options.
func NewRunner(opts Options) *Runner { return &Runner{opts: opts} }

// Run executes the points and returns their outcomes in point order. A
// point failure fails fast: remaining points are abandoned (in-flight ones
// abort at their next cancellation poll) and Run returns the first point
// error in point order. Cancellation through Options.Context returns the
// context's error — unless every point had already completed, in which
// case the full result set stands. The Results are returned alongside any
// error so callers can inspect partial outcomes.
func (r *Runner) Run(points []Point) (Results, error) {
	ctx := r.opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// runCtx additionally cancels on the first point failure so a long
	// sweep does not keep simulating doomed work (fail-fast, matching the
	// serial loops the sweep API replaced).
	runCtx, abort := context.WithCancel(ctx)
	defer abort()
	res := make(Results, len(points))
	for i := range res {
		res[i].Point = points[i]
	}
	cores := runtime.NumCPU()
	if r.opts.Uncapped {
		cores = math.MaxInt
	}
	workers := effectiveWorkers(r.opts.Parallel, len(points), cores)
	var (
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup
	)
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range points {
			select {
			case idx <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res[i] = runPoint(runCtx, points[i])
				if res[i].Err != nil {
					abort()
				}
				// Snapshot the count under the lock, invoke the callback
				// outside it: a blocking Progress must stall only its own
				// worker, never serialize the whole pool.
				mu.Lock()
				done++
				dn := done
				mu.Unlock()
				if r.opts.Progress != nil {
					r.opts.Progress(dn, len(points), res[i])
				}
			}
		}()
	}
	wg.Wait()
	for i := range res {
		if res[i].Err != nil {
			return res, fmt.Errorf("rackni: point %d (%s): %w", i, points[i].label(), res[i].Err)
		}
	}
	if err := ctx.Err(); err != nil {
		// Report the cancellation only if it actually cost us a point; a
		// deadline landing after the last point completed should not
		// discard a whole result set.
		for i := range res {
			if res[i].skipped() {
				return res, err
			}
		}
	}
	return res, nil
}

// effectiveWorkers resolves the requested pool size against the machine:
// at least 1, at most the core count, at most one worker per point.
// CPU-bound work gains nothing from more workers than cores; on a
// single-core machine an oversubscribed pool is measurably SLOWER than
// serial (goroutine churn between simulation points — the ~20% regression
// BENCH_paperrepro.json carried since PR 2).
func effectiveWorkers(requested, points, cores int) int {
	w := requested
	if w < 1 {
		w = 1
	}
	if w > cores {
		w = cores
	}
	if w > points {
		w = points
	}
	if w < 1 {
		w = 1
	}
	return w
}

// check validates the point's fault/window knobs against the rest of its
// shape; it is the per-point core of CheckSweepPoints.
func (p Point) check() error {
	switch {
	case !validDropRate(p.Faults):
		return fmt.Errorf("rackni: drop rate %g out of range [0, 1)", p.Faults)
	case p.Faults > 0 && p.nodeCount() <= 1:
		return fmt.Errorf("rackni: fault injection (drop rate %g) requires a multi-node point (-nodes > 1); the single-node rack emulation has no inter-node fabric to fault", p.Faults)
	case p.Window < 0:
		return fmt.Errorf("rackni: negative QP window %d", p.Window)
	case p.FabricRouting != RouteNone && p.nodeCount() <= 1:
		return fmt.Errorf("rackni: fabric routing %v requires a multi-node point (-nodes > 1); the single-node rack emulation has no inter-node links to congest", p.FabricRouting)
	case !p.Placement.IsZero() && p.nodeCount() <= 1:
		return fmt.Errorf("rackni: the %s placement requires a multi-node point (-nodes > 1); the single-node rack emulation has no torus to place nodes on", p.Placement)
	case p.Hedge < 0:
		return fmt.Errorf("rackni: negative hedge delay %d", p.Hedge)
	case p.Shards < 0:
		return fmt.Errorf("rackni: negative shard count %d", p.Shards)
	case p.Shards > 1 && p.nodeCount() <= 1:
		return fmt.Errorf("rackni: %d engine shards require a multi-node point (-nodes > 1); the single-node rack emulation runs one engine", p.Shards)
	case p.Shards > 1 && p.Mode != WorkloadMode && p.Mode != ServiceMode:
		return fmt.Errorf("rackni: %d engine shards require a workload or service point; the %v microbenchmark coordinates cluster-wide on one engine", p.Shards, p.Mode)
	}
	if p.Mode == ServiceMode {
		if _, err := load.ParseKind(p.Arrival.Kind); err != nil {
			return err
		}
		if !validRate(p.Arrival.Rate) {
			return fmt.Errorf("rackni: service arrival rate %g must be positive and finite (requests per 1000 cycles per client)", p.Arrival.Rate)
		}
	}
	return nil
}

// materialize resolves the point's fault/window knobs into the Config the
// run will use: Window > 0 caps QPWindow, and a faulty point with no
// configured request timeout arms DefaultReqTimeout so drops recover by
// retransmission.
func (p Point) materialize() (Config, error) {
	if err := p.check(); err != nil {
		return p.Config, err
	}
	cfg := p.Config
	if p.Window > 0 {
		cfg.QPWindow = p.Window
	}
	if p.Faults > 0 && cfg.ReqTimeout == 0 {
		cfg.ReqTimeout = DefaultReqTimeout
	}
	return cfg, nil
}

// faultSpec builds the point's deterministic fault plan (nil when the
// point is fault-free). The plan's RNG is seeded from the point's
// simulation seed, so the fault schedule — like everything else about a
// point — is a pure function of the point.
func (p Point) faultSpec() *FaultSpec {
	if p.Faults <= 0 {
		return nil
	}
	return &FaultSpec{Seed: p.Config.Seed, DropProb: p.Faults}
}

// CheckSweepPoints validates a point list up front — fault/window knob
// ranges, torus capacity, node counts, core and size bounds, scenario
// names — returning the first problem with its point's index and label.
// Runners applying the points would surface the same errors, but only
// after every earlier point had simulated; front-loading the check lets
// CLIs reject a bad flag combination before burning minutes of work.
func CheckSweepPoints(pts []Point) error {
	for i, p := range pts {
		if err := p.checkShape(); err != nil {
			return fmt.Errorf("point %d (%s): %w", i, p.label(), err)
		}
	}
	return nil
}

// checkShape is the full up-front validation of one point: the fault and
// window knobs plus the structural checks NewNode/NewClusterSpec and the
// run entry points would otherwise only raise mid-sweep.
func (p Point) checkShape() error {
	if err := p.check(); err != nil {
		return err
	}
	cfg := p.Config
	if err := cfg.Validate(); err != nil {
		return err
	}
	if p.Hops < 0 {
		return fmt.Errorf("rackni: negative hop count %d", p.Hops)
	}
	if p.Nodes > fabric.MaxNodes {
		return fmt.Errorf("rackni: %d nodes exceeds the %d-node addressing limit", p.Nodes, fabric.MaxNodes)
	}
	if !p.Placement.IsZero() || p.FabricRouting != RouteNone {
		// Both real torus placement and the congestion fabric (which routes
		// hop-by-hop over torus coordinates) need every node on the torus.
		if cube := cfg.TorusRadix * cfg.TorusRadix * cfg.TorusRadix; p.nodeCount() > cube {
			return fmt.Errorf("rackni: %d nodes exceed the %d-node torus (radix %d)",
				p.nodeCount(), cube, cfg.TorusRadix)
		}
	}
	if !p.Placement.IsZero() {
		// Reject malformed policies (an unknown kind, say) by name before
		// the sweep burns cycles; capacity was already checked above.
		if _, err := p.Placement.Coordinates(p.nodeCount(), cfg.TorusRadix); err != nil {
			return err
		}
	}
	switch p.Mode {
	case Latency:
		if p.Core < 0 || p.Core >= cfg.Tiles() {
			return fmt.Errorf("rackni: core %d out of range [0, %d)", p.Core, cfg.Tiles())
		}
		return checkSize(&cfg, p.Size)
	case Bandwidth:
		return checkSize(&cfg, p.Size)
	case WorkloadMode:
		_, err := ParseScenario(p.Scenario)
		return err
	case ServiceMode:
		return nil // arrival and hedge were validated in check above
	}
	return fmt.Errorf("rackni: unknown mode %v", p.Mode)
}

// runPoint executes one point: builds its node (or, for Nodes > 1, its
// cluster), attaches the context, and runs the point's microbenchmark.
func runPoint(ctx context.Context, p Point) Result {
	out := Result{Point: p}
	if err := ctx.Err(); err != nil {
		return out // cancelled before start: leave the point skipped
	}
	t0 := time.Now()
	// Service points always run the Cluster path (replica placement and
	// explicit node targeting need the real fabric), even at one node.
	if p.nodeCount() > 1 || p.Mode == ServiceMode {
		runClusterPoint(ctx, p, &out)
		if errors.Is(out.Err, context.Canceled) || errors.Is(out.Err, context.DeadlineExceeded) {
			out.Sync, out.BW, out.WL, out.SVC, out.Err = nil, nil, nil, nil, nil
		}
		out.Wall = time.Since(t0)
		return out
	}
	cfg, err := p.materialize()
	if err != nil {
		out.Err = err
		out.Wall = time.Since(t0)
		return out
	}
	n, err := NewNode(cfg, p.Hops)
	if err != nil {
		out.Err = err
		out.Wall = time.Since(t0)
		return out
	}
	n.SetContext(ctx)
	switch p.Mode {
	case Latency:
		r, err := n.RunSyncLatency(p.Size, p.Core)
		if err != nil {
			out.Err = err
		} else {
			out.Sync = &r
		}
	case Bandwidth:
		r, err := n.RunBandwidth(p.Size)
		if err != nil {
			out.Err = err
		} else {
			out.BW = &r
		}
	case WorkloadMode:
		sc, err := ParseScenario(p.Scenario)
		if err != nil {
			out.Err = err
			break
		}
		r, err := n.RunScenario(sc, 0)
		if err != nil {
			out.Err = err
		} else {
			out.WL = &r
		}
	default:
		out.Err = fmt.Errorf("rackni: unknown mode %v", p.Mode)
	}
	if errors.Is(out.Err, context.Canceled) || errors.Is(out.Err, context.DeadlineExceeded) {
		// A cancelled in-flight run has no result worth keeping; mark it
		// skipped so renderers drop it. Genuine point errors (bad config,
		// unstable run) are preserved even if cancellation raced them.
		out.Sync, out.BW, out.WL, out.SVC, out.Err = nil, nil, nil, nil, nil
	}
	out.Wall = time.Since(t0)
	return out
}

// runClusterPoint executes a multi-node point on a real Cluster,
// reporting the cross-node aggregate.
func runClusterPoint(ctx context.Context, p Point, out *Result) {
	cfg, err := p.materialize()
	if err != nil {
		out.Err = err
		return
	}
	spec := ClusterSpec{Nodes: p.nodeCount(), Hops: p.Hops, Faults: p.faultSpec(),
		FabricRouting: p.FabricRouting, Shards: p.Shards, Place: p.Placement}
	c, err := NewClusterSpec(cfg, spec)
	if err != nil {
		out.Err = err
		return
	}
	c.SetContext(ctx)
	switch p.Mode {
	case Latency:
		r, err := c.RunSyncLatency(p.Size, p.Core)
		if err != nil {
			out.Err = err
		} else {
			out.Sync = &r.Aggregate
		}
	case Bandwidth:
		r, err := c.RunBandwidth(p.Size)
		if err != nil {
			out.Err = err
		} else {
			out.BW = &r.Aggregate
		}
	case WorkloadMode:
		sc, err := ParseScenario(p.Scenario)
		if err != nil {
			out.Err = err
			return
		}
		r, err := c.RunScenario(sc, 0)
		if err != nil {
			out.Err = err
		} else {
			out.WL = &r.Aggregate
		}
	case ServiceMode:
		r, err := c.RunService(ServiceSpec{Arrival: p.Arrival, Hedge: p.Hedge}, 0)
		if err != nil {
			out.Err = err
		} else {
			out.SVC = &r
		}
	default:
		out.Err = fmt.Errorf("rackni: unknown mode %v", p.Mode)
	}
}

// axisColumn is one optional axis of a result set: how the four renderers
// show it. An axis's Format and CSV columns appear only when some point
// of the set has it present, so the paper's own runs, which use none of
// these axes, keep their original tables. JSON fields and label suffixes
// are decided per point.
type axisColumn struct {
	present func(Point) bool
	head    string             // Format header, each cell with a leading space
	cell    func(Point) string // Format cells, each with a leading space
	csvHead string             // CSV headers, each with a trailing comma
	csvCell func(Point) string // CSV cells, each with a trailing comma
	// csvMetricHead and csvMetrics are the axis's own CSV metric columns,
	// after the workload metrics; nil csvMetrics means none.
	csvMetricHead string
	csvMetrics    func(Result) string
	// wlNote extends Format's workload result text; nil means none.
	wlNote func(*WorkloadResult) string
	json   func(*resultJSON, Result) // sets the axis fields of a point's record
	label  func(Point) string        // label suffix of a point it is present on
}

// axisColumns is the registry of optional axes, in column and label
// order. A new axis is one entry here.
var axisColumns = []axisColumn{
	{ // nodes: a real Cluster ran the point
		present: func(p Point) bool { return p.nodeCount() > 1 },
		head:    fmt.Sprintf(" %5s", "nodes"),
		cell:    func(p Point) string { return fmt.Sprintf(" %5d", p.nodeCount()) },
		csvHead: "nodes,",
		csvCell: func(p Point) string { return fmt.Sprintf("%d,", p.nodeCount()) },
		json: func(j *resultJSON, r Result) {
			if n := r.Point.nodeCount(); n > 1 {
				j.Nodes = n
			}
		},
		label: func(p Point) string { return fmt.Sprintf("/%dnodes", p.nodeCount()) },
	},
	{ // placement: a named policy put the nodes on the rack torus. A
		// rejected single-node point shows its policy in Format and CSV
		// only.
		present: func(p Point) bool { return !p.Placement.IsZero() },
		head:    fmt.Sprintf(" %-10s", "placement"),
		cell:    func(p Point) string { return fmt.Sprintf(" %-10s", p.Placement) },
		csvHead: "placement,",
		csvCell: func(p Point) string { return fmt.Sprintf("%s,", p.Placement) },
		json: func(j *resultJSON, r Result) {
			if p := r.Point; p.nodeCount() > 1 && !p.Placement.IsZero() {
				j.Placement = p.Placement.String()
			}
		},
		label: func(p Point) string {
			if p.nodeCount() <= 1 {
				return ""
			}
			return "-" + p.Placement.String()
		},
	},
	{ // shards: the cluster ran on more than one engine
		present: func(p Point) bool { return p.Shards > 1 },
		head:    fmt.Sprintf(" %6s", "shards"),
		cell:    func(p Point) string { return fmt.Sprintf(" %6d", max(p.Shards, 1)) },
		csvHead: "shards,",
		csvCell: func(p Point) string { return fmt.Sprintf("%d,", max(p.Shards, 1)) },
		json: func(j *resultJSON, r Result) {
			if p := r.Point; p.nodeCount() > 1 && p.Shards > 1 {
				j.Shards = p.Shards
			}
		},
		label: func(p Point) string {
			if p.nodeCount() <= 1 {
				return ""
			}
			return fmt.Sprintf("/%dshards", p.Shards)
		},
	},
	{ // faults: fabric drops or a QP credit window
		present: func(p Point) bool { return p.Faults > 0 || p.Window > 0 },
		head:    fmt.Sprintf(" %6s %4s", "drop", "win"),
		cell:    func(p Point) string { return fmt.Sprintf(" %6g %4d", p.Faults, p.Window) },
		csvHead: "drop_rate,window,",
		csvCell: func(p Point) string { return fmt.Sprintf("%g,%d,", p.Faults, p.Window) },
		wlNote: func(w *WorkloadResult) string {
			return fmt.Sprintf(", retries=%d, failed=%d", w.Retries, w.Failed)
		},
		json: func(j *resultJSON, r Result) { j.DropRate, j.Window = r.Point.Faults, r.Point.Window },
		label: func(p Point) string {
			l := ""
			if p.Faults > 0 {
				l += fmt.Sprintf("/drop%g", p.Faults)
			}
			if p.Window > 0 {
				l += fmt.Sprintf("/win%d", p.Window)
			}
			return l
		},
	},
	{ // fabric: the congestion-faithful link-level fabric
		present: func(p Point) bool { return p.FabricRouting != RouteNone },
		head:    fmt.Sprintf(" %8s", "fabric"),
		cell:    func(p Point) string { return fmt.Sprintf(" %8s", p.FabricRouting) },
		csvHead: "fabric_routing,",
		csvCell: func(p Point) string { return fmt.Sprintf("%s,", p.FabricRouting) },
		json: func(j *resultJSON, r Result) {
			if r.Point.FabricRouting != RouteNone {
				j.Fabric = r.Point.FabricRouting.String()
			}
		},
		label: func(p Point) string { return "/" + p.FabricRouting.String() },
	},
	{ // service: the open-loop replicated KV service
		present: func(p Point) bool { return p.Mode == ServiceMode },
		head:    fmt.Sprintf(" %-13s %6s", "arrival", "hedge"),
		cell: func(p Point) string {
			arr := "-"
			if p.Mode == ServiceMode {
				arr = p.Arrival.String()
			}
			return fmt.Sprintf(" %-13s %6d", arr, p.Hedge)
		},
		csvHead: "arrival,rate,hedge,",
		csvCell: func(p Point) string {
			if p.Mode != ServiceMode {
				return ",,,"
			}
			return fmt.Sprintf("%s,%g,%d,", p.Arrival.Kind, p.Arrival.Rate, p.Hedge)
		},
		csvMetricHead: "offered,goodput,svc_mean,svc_p50,svc_p99,svc_p999,hedged,hedge_wins,cancelled,svc_failed,svc_drained,",
		csvMetrics: func(r Result) string {
			if r.SVC == nil {
				return ",,,,,,,,,,,"
			}
			return fmt.Sprintf("%.4f,%.4f,%.2f,%d,%d,%d,%d,%d,%d,%d,%v,",
				r.SVC.Offered, r.SVC.Goodput, r.SVC.MeanE2E, r.SVC.P50, r.SVC.P99,
				r.SVC.P999, r.SVC.Hedged, r.SVC.HedgeWins, r.SVC.Cancelled,
				r.SVC.Failed, r.SVC.Drained)
		},
		json: func(j *resultJSON, r Result) {
			if p := r.Point; p.Mode == ServiceMode {
				j.Arrival, j.Rate, j.Hedge, j.Service = p.Arrival.Kind, p.Arrival.Rate, p.Hedge, r.SVC
			}
		},
		label: func(p Point) string {
			l := "/" + p.Arrival.String()
			if p.Hedge > 0 {
				l += fmt.Sprintf("/hedge%d", p.Hedge)
			}
			return l
		},
	},
}

// columns returns the registry entries present in at least one point of
// the set, in column order.
func (rs Results) columns() []axisColumn {
	var cols []axisColumn
	for _, c := range axisColumns {
		if slices.ContainsFunc(rs, func(r Result) bool { return c.present(r.Point) }) {
			cols = append(cols, c)
		}
	}
	return cols
}

// Format renders the results as an aligned table, one row per point.
// Workload points report ops, mean and tail percentiles; skipped points
// render as "-"; failed points show their error. Each optional axis of
// the axisColumns registry adds its columns after seed when any point of
// the set uses it; the faults axis also appends retry and
// permanent-failure counts to workload rows.
func (rs Results) Format() string {
	var b strings.Builder
	cols := rs.columns()
	fmt.Fprintf(&b, "%-12s %-8s %-7s %-13s %8s %5s %5s %6s",
		"design", "topology", "routing", "mode", "size(B)", "hops", "core", "seed")
	for _, c := range cols {
		b.WriteString(c.head)
	}
	b.WriteString("  result\n")
	for _, r := range rs {
		p := r.Point
		fmt.Fprintf(&b, "%-12v %-8v %-7v %-13v %8d %5d %5d %6d",
			p.Config.Design, p.Config.Topology, p.Config.Routing, p.modeLabel(),
			p.Size, p.Hops, p.Core, p.Config.Seed)
		for _, c := range cols {
			b.WriteString(c.cell(p))
		}
		b.WriteString("  ")
		switch {
		case r.Err != nil:
			fmt.Fprintf(&b, "error: %v\n", r.Err)
		case r.Sync != nil:
			fmt.Fprintf(&b, "%.0f cycles (%.0f ns)\n", r.Sync.MeanCycles, r.Sync.MeanNS)
		case r.BW != nil:
			fmt.Fprintf(&b, "app %.1f GB/s (NOC %.1f, bisection %.1f, stable=%v)\n",
				r.BW.AppGBps, r.BW.NOCGBps, r.BW.BisectionGBps, r.BW.Stable)
		case r.SVC != nil:
			fmt.Fprintf(&b, "offered %.2f goodput %.2f req/kcyc, p99/p99.9 %d/%d cyc, hedged %d (wins %d), drained=%v\n",
				r.SVC.Offered, r.SVC.Goodput, r.SVC.P99, r.SVC.P999,
				r.SVC.Hedged, r.SVC.HedgeWins, r.SVC.Drained)
		case r.WL != nil:
			fmt.Fprintf(&b, "%d ops, mean %.0f cyc, p50/p95/p99 %d/%d/%d, drained=%v",
				r.WL.Completed, r.WL.MeanLatency, r.WL.P50, r.WL.P95, r.WL.P99,
				r.WL.AllExhausted)
			for _, c := range cols {
				if c.wlNote != nil {
					b.WriteString(c.wlNote(r.WL))
				}
			}
			b.WriteString("\n")
		default:
			b.WriteString("-\n")
		}
	}
	return b.String()
}

// CSV renders the results as a comma-separated table with a header row.
// Metric columns not applicable to a point's mode are left empty. The CSV
// carries simulation results only (no wall-clock timing), so it is
// deterministic: identical runs — serial or parallel — diff clean. Each
// optional axis of the axisColumns registry adds its columns after seed
// when any point of the set uses it; the service axis also adds its
// metric columns before error.
func (rs Results) CSV() string {
	var b strings.Builder
	cols := rs.columns()
	b.WriteString("design,topology,routing,mode,size_bytes,hops,core,seed,")
	for _, c := range cols {
		b.WriteString(c.csvHead)
	}
	b.WriteString("latency_cycles,latency_ns,app_gbps,noc_gbps,bisection_gbps,stable," +
		"completed,wl_mean_cycles,wl_p50,wl_p95,wl_p99,wl_drained,")
	for _, c := range cols {
		b.WriteString(c.csvMetricHead)
	}
	b.WriteString("error\n")
	for _, r := range rs {
		p := r.Point
		fmt.Fprintf(&b, "%v,%v,%v,%v,%d,%d,%d,%d,",
			p.Config.Design, p.Config.Topology, p.Config.Routing, p.modeLabel(),
			p.Size, p.Hops, p.Core, p.Config.Seed)
		for _, c := range cols {
			b.WriteString(c.csvCell(p))
		}
		switch {
		case r.Sync != nil:
			fmt.Fprintf(&b, "%.2f,%.2f,,,,,,,,,,,", r.Sync.MeanCycles, r.Sync.MeanNS)
		case r.BW != nil:
			fmt.Fprintf(&b, ",,%.3f,%.3f,%.3f,%v,,,,,,,", r.BW.AppGBps, r.BW.NOCGBps,
				r.BW.BisectionGBps, r.BW.Stable)
		case r.WL != nil:
			fmt.Fprintf(&b, ",,,,,,%d,%.2f,%d,%d,%d,%v,", r.WL.Completed,
				r.WL.MeanLatency, r.WL.P50, r.WL.P95, r.WL.P99, r.WL.AllExhausted)
		default:
			b.WriteString(",,,,,,,,,,,,")
		}
		for _, c := range cols {
			if c.csvMetrics != nil {
				b.WriteString(c.csvMetrics(r))
			}
		}
		if r.Err != nil {
			// RFC-4180 quoting: wrap in quotes, double embedded quotes.
			fmt.Fprintf(&b, `"%s"`, strings.ReplaceAll(r.Err.Error(), `"`, `""`))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// resultJSON is the machine-readable per-point record emitted by JSON.
type resultJSON struct {
	Design    string          `json:"design"`
	Topology  string          `json:"topology"`
	Routing   string          `json:"routing"`
	Mode      string          `json:"mode"`
	Scenario  string          `json:"scenario,omitempty"`
	SizeBytes int             `json:"size_bytes"`
	Hops      int             `json:"hops"`
	Core      int             `json:"core"`
	Seed      uint64          `json:"seed"`
	Nodes     int             `json:"nodes,omitempty"`          // > 1: a real Cluster ran this point
	Shards    int             `json:"shards,omitempty"`         // > 1: the cluster ran on this many parallel engines
	Placement string          `json:"placement,omitempty"`      // named policy ("identity", "clustered", ...): real 3D-torus coordinates
	DropRate  float64         `json:"drop_rate,omitempty"`      // > 0: fabric fault injection was active
	Window    int             `json:"window,omitempty"`         // > 0: QP credit window cap
	Fabric    string          `json:"fabric_routing,omitempty"` // "dor"/"adaptive": congestion fabric active
	Arrival   string          `json:"arrival,omitempty"`        // service points: arrival-process kind
	Rate      float64         `json:"rate,omitempty"`           // service points: arrivals per kcycle per client
	Hedge     int64           `json:"hedge,omitempty"`          // service points: hedge delay in cycles
	Latency   *SyncResult     `json:"latency,omitempty"`
	Bandwidth *BWResult       `json:"bandwidth,omitempty"`
	Workload  *WorkloadResult `json:"workload,omitempty"`
	Service   *ServiceResult  `json:"service,omitempty"`
	WallMS    float64         `json:"wall_ms"`
	Skipped   bool            `json:"skipped,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// JSON renders the results as an indented JSON array, one record per
// point. Unlike Format and CSV, each record includes wall_ms — per-point
// wall-clock execution time, the one field that varies between otherwise
// identical runs.
func (rs Results) JSON() ([]byte, error) {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		p := r.Point
		out[i] = resultJSON{
			Design:    p.Config.Design.String(),
			Topology:  p.Config.Topology.String(),
			Routing:   p.Config.Routing.String(),
			Mode:      p.Mode.String(),
			Scenario:  p.Scenario,
			SizeBytes: p.Size,
			Hops:      p.Hops,
			Core:      p.Core,
			Seed:      p.Config.Seed,
			Latency:   r.Sync,
			Bandwidth: r.BW,
			Workload:  r.WL,
			WallMS:    float64(r.Wall.Microseconds()) / 1000,
			Skipped:   r.skipped(),
		}
		for _, c := range axisColumns {
			c.json(&out[i], r)
		}
		if r.Err != nil {
			out[i].Error = r.Err.Error()
		}
	}
	return json.MarshalIndent(out, "", "  ")
}
