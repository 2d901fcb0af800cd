package node

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rackni/internal/config"
	"rackni/internal/cpu"
	"rackni/internal/fabric"
	"rackni/internal/place"
	"rackni/internal/sim"
	"rackni/internal/stats"
)

// ClusterSpec sizes and places a multi-node cluster.
type ClusterSpec struct {
	// Nodes is the number of fully simulated nodes (>= 1).
	Nodes int
	// Hops is the uniform pairwise inter-node distance used when
	// Placement is nil — the degenerate geometry of the paper's fixed-hop
	// emulation, under which every pair of nodes (including a node and
	// itself) is Hops apart. 0 means the configuration's DefaultHops.
	Hops int
	// Place, when non-zero, is a named placement policy (identity,
	// clustered, scattered, random:<seed>) expanded into torus coordinates
	// at construction — the first-class way to give the cluster real
	// geometry. Mutually exclusive with Placement.
	Place place.Policy
	// Placement, when non-nil, names each node's coordinate on the rack's
	// 3D torus (cfg.TorusRadix per dimension); pairwise distances are then
	// real torus hop counts, so skewed placements and non-uniform
	// distances — inexpressible under the mirror emulation — emerge
	// naturally. The raw escape hatch under the named Place policies;
	// coordinates must be distinct and on the torus.
	Placement []int
	// Faults, when non-nil and active, installs a deterministic fault plan
	// on the interconnect (see fabric.FaultSpec). A nil or zero spec is a
	// lossless fabric.
	Faults *fabric.FaultSpec
	// FabricRouting, when not RouteNone, enables the link-level congestion
	// model on the inter-node fabric: blocks route hop by hop over
	// per-link credit queues under the given policy (fabric.RouteDOR or
	// fabric.RouteAdaptive) instead of taking lump-sum hop delays.
	// Congestion is a property of real torus geometry, so a spec without a
	// Placement gets the identity placement (node i at coordinate i). The
	// link knobs come from Config.LinkCredits / Config.LinkFlitCycles.
	FabricRouting fabric.RoutePolicy
	// Shards partitions the nodes across this many event engines, each
	// advanced by its own goroutine under conservative-window
	// synchronization, for parallel wall-clock execution of workload and
	// service runs. Results are bit-identical for every shard count.
	// Values outside [1, Nodes] are clamped; 0 means 1 (the classic
	// single-engine cluster). Sharding needs conservative lookahead —
	// every cross-node message at least one cycle in flight — so the
	// count is coerced to 1 when the congestion model is on (its link
	// state is cluster-global), when Config.NetHopCycles() < 1, or when
	// any two distinct nodes sit zero hops apart.
	Shards int
}

// Cluster is N fully simulated nodes sharing one event engine, connected
// by a real inter-node fabric that delivers every remote request to the
// target node's actual RRPPs. It is the simulated counterpart of the
// paper's emulated rack: a symmetric 2-node cluster running mirror-image
// workloads reproduces the emulation's traffic, which is how the two are
// cross-validated (cluster_equiv_test.go).
type Cluster struct {
	Eng   *sim.Engine    // shard 0's engine (the only engine when unsharded)
	Engs  []*sim.Engine  // one engine per shard; Engs[0] == Eng
	Cfg   *config.Config // shared configuration (one clock domain)
	Nodes []*Node
	Inter *fabric.Interconnect

	ctx       context.Context
	watch     *sim.CancelWatch
	session   *Session
	placed    place.Policy // named policy the spec was built with (zero otherwise)
	shardSize int          // contiguous nodes per shard: ceil(Nodes/len(Engs))
}

// Placed returns the named placement policy the cluster was built with —
// the zero policy for uniform-hop clusters, raw coordinate lists, and the
// congestion model's automatic identity placement.
func (c *Cluster) Placed() place.Policy { return c.placed }

// Sharded reports whether the cluster's nodes span more than one engine.
func (c *Cluster) Sharded() bool { return len(c.Engs) > 1 }

// NumShards returns the number of engines the nodes are partitioned over.
func (c *Cluster) NumShards() int { return len(c.Engs) }

// shardOf returns the shard owning node i. Nodes are assigned in
// contiguous blocks so a shard's members are as fabric-local as the
// placement allows.
func (c *Cluster) shardOf(i int) int { return i / c.shardSize }

// NewCluster builds a cluster of identical nodes per the spec. All nodes
// share cfg — and therefore one clock domain; per-node state (caches,
// queue pairs, RMC pipelines, statistics) is fully independent.
func NewCluster(cfg config.Config, spec ClusterSpec) (*Cluster, error) {
	if spec.Nodes < 1 {
		return nil, fmt.Errorf("node: cluster needs at least 1 node, got %d", spec.Nodes)
	}
	hops := spec.Hops
	if hops == 0 {
		hops = cfg.DefaultHops
	}
	if hops < 0 {
		return nil, fmt.Errorf("node: negative hop count %d", hops)
	}
	topo := fabric.NewTorus3D(cfg.TorusRadix)
	if !spec.Place.IsZero() {
		if spec.Placement != nil {
			return nil, fmt.Errorf("node: ClusterSpec sets both a %s placement policy and explicit coordinates", spec.Place)
		}
		coords, err := spec.Place.Coordinates(spec.Nodes, cfg.TorusRadix)
		if err != nil {
			return nil, fmt.Errorf("node: %w", err)
		}
		spec.Placement = coords
	}
	if spec.FabricRouting != fabric.RouteNone && spec.Placement == nil {
		// The congestion model contends real torus links, so give the
		// cluster real geometry: node i at torus coordinate i, as the
		// identity placement policy assigns.
		if spec.Nodes > topo.Nodes() {
			return nil, fmt.Errorf("node: %d nodes exceed the %d-node torus (radix %d) the congestion model routes over",
				spec.Nodes, topo.Nodes(), cfg.TorusRadix)
		}
		spec.Placement = make([]int, spec.Nodes)
		for i := range spec.Placement {
			spec.Placement[i] = i
		}
	}
	if spec.Placement != nil {
		if len(spec.Placement) != spec.Nodes {
			return nil, fmt.Errorf("node: placement names %d positions for %d nodes", len(spec.Placement), spec.Nodes)
		}
		// Out-of-range or duplicate coordinates would silently yield bogus
		// (even zero-hop) pairwise distances that poison the sharded
		// engines' conservative lookahead — reject them here, naming the
		// offending node, before any member is built.
		if err := place.Validate(spec.Placement, cfg.TorusRadix); err != nil {
			return nil, fmt.Errorf("node: %w", err)
		}
	}
	// Pairwise distances are needed before the interconnect exists (each
	// node's tomography wants its default-peer distance), so compute them
	// the same way the interconnect will.
	dist := func(a, b int) int {
		if spec.Placement == nil {
			return hops
		}
		return topo.Hops(spec.Placement[a], spec.Placement[b])
	}
	shards := spec.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > spec.Nodes {
		shards = spec.Nodes
	}
	if shards > 1 {
		// Conservative-window sharding needs every cross-node message to
		// spend at least one cycle in flight; the congestion model's link
		// state is cluster-global. Either condition failing degrades
		// gracefully to the classic single-engine cluster.
		minCross := hops
		if spec.Placement != nil {
			minCross = int(^uint(0) >> 1)
			for a := 0; a < spec.Nodes; a++ {
				for b := 0; b < spec.Nodes; b++ {
					if a != b && dist(a, b) < minCross {
						minCross = dist(a, b)
					}
				}
			}
		}
		if spec.FabricRouting != fabric.RouteNone || cfg.NetHopCycles() < 1 || minCross < 1 {
			shards = 1
		}
	}
	engs := make([]*sim.Engine, shards)
	for s := range engs {
		engs[s] = sim.NewEngine()
	}
	c := &Cluster{Eng: engs[0], Engs: engs, placed: spec.Place, shardSize: (spec.Nodes + shards - 1) / shards}
	c.watch = sim.NewCancelWatch(engs[0], cancelCheckCycles, func() context.Context { return c.ctx })

	// Member pipelines are independent of one another, so each shard's
	// goroutine builds its own members — construction wall-clock scales
	// with the shard count just like execution, which is what makes
	// multi-hundred-node clusters affordable to stand up.
	c.Nodes = make([]*Node, spec.Nodes)
	build := func(s int) error {
		lo, hi := s*c.shardSize, (s+1)*c.shardSize
		if hi > spec.Nodes {
			hi = spec.Nodes
		}
		for i := lo; i < hi; i++ {
			peer := (i + 1) % spec.Nodes
			n, err := NewMember(engs[s], cfg, dist(i, peer))
			if err != nil {
				return err
			}
			c.Nodes[i] = n
		}
		return nil
	}
	if shards == 1 {
		if err := build(0); err != nil {
			return nil, err
		}
	} else {
		errs := make([]error, shards)
		var wg sync.WaitGroup
		wg.Add(shards)
		for s := 0; s < shards; s++ {
			go func(s int) {
				defer wg.Done()
				errs[s] = build(s)
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	ports := make([]fabric.NodePort, spec.Nodes)
	for i, n := range c.Nodes {
		ports[i] = n.Port()
	}
	c.Cfg = c.Nodes[0].Cfg
	inter, err := fabric.NewInterconnect(topo, spec.Placement, hops, ports)
	if err != nil {
		return nil, err
	}
	c.Inter = inter
	if spec.FabricRouting != fabric.RouteNone {
		credits, flitCycles := cfg.LinkCredits, int64(cfg.LinkFlitCycles)
		if credits == 0 {
			credits = config.DefaultLinkCredits
		}
		if flitCycles == 0 {
			flitCycles = config.DefaultLinkFlitCycles
		}
		if err := inter.EnableCongestion(spec.FabricRouting, credits, flitCycles); err != nil {
			return nil, err
		}
	}
	if err := inter.SetFaults(spec.Faults); err != nil {
		return nil, err
	}
	c.session = newSession(engs, c.watch, c.Nodes, inter)
	return c, nil
}

// runWindowed executes one run as a sequence of conservative windows:
// every shard's engine advances to the window boundary (on its own
// goroutine when there are several), then all shards rendezvous at a
// barrier where buffered cross-shard deliveries are exchanged in canonical
// order. The window width is the fabric's lookahead — the minimum cycles
// any inter-node message spends in flight — so no message can arrive
// inside the window it was sent in, and every delivery lands through the
// same canonical calendar regardless of which shard sent it. done is
// polled at each barrier, never mid-window: a run therefore always ends on
// a window boundary, and since the lookahead is computed over node pairs
// (not shard pairs) the boundaries — and with them the residual events a
// finishing run still executes — are identical at every shard count.
// That window-edge stop is what makes results bit-identical across K; a
// mid-window engine Stop at the last driver's idle would cut off
// in-flight bookkeeping at a point other shards cannot reproduce.
// Cancellation is polled at barriers too (the per-engine cancel watch
// stays disarmed: it would race across shards). Returns whether done
// reported completion before the budget ran out.
func (c *Cluster) runWindowed(budget int64, done func() bool) (bool, error) {
	w := c.Inter.Lookahead()
	if w > budget {
		w = budget
	}
	if w < 1 {
		w = 1 // unreachable: NewCluster coerces zero-lookahead specs to one shard
	}
	var wg sync.WaitGroup
	for wend := w - 1; ; wend += w {
		if wend > budget {
			wend = budget
		}
		if len(c.Engs) == 1 {
			c.Engs[0].Run(wend)
		} else {
			wg.Add(len(c.Engs))
			for _, e := range c.Engs {
				go func(e *sim.Engine) {
					defer wg.Done()
					e.Run(wend)
				}(e)
			}
			wg.Wait()
			c.Inter.FlushWindow()
		}
		if done() {
			return true, nil
		}
		if c.ctx != nil {
			if err := c.ctx.Err(); err != nil {
				return false, err
			}
		}
		if wend >= budget {
			return false, nil
		}
	}
}

// SetFaults installs (or, with a nil or inactive spec, clears) the
// interconnect's fault plan between runs. The next Session.Begin rewinds
// the plan's generator, so every run replays the spec's schedule from the
// start.
func (c *Cluster) SetFaults(spec *fabric.FaultSpec) error {
	return c.Inter.SetFaults(spec)
}

// SetContext attaches ctx to the cluster. Subsequent runs poll it
// periodically and abort with the context's error once it is cancelled.
// The cluster arms exactly one watchdog for the shared engine; member
// nodes never arm their own.
func (c *Cluster) SetContext(ctx context.Context) { c.ctx = ctx }

// ClusterSyncResult is the outcome of a cluster-wide synchronous-latency
// run: every node runs the same single-core latency microbenchmark
// concurrently (each node both issues requests to its peer and services
// its peer's), so PerNode[i] is node i's unloaded remote-read latency
// through the real fabric. Aggregate averages across nodes.
type ClusterSyncResult struct {
	Aggregate SyncResult
	PerNode   []SyncResult
}

// RunSyncLatency runs the §5 latency microbenchmark on every node
// simultaneously: one core per node issues synchronous remote reads of
// the given size to its default peer. All nodes use identical per-core
// seeds, making the cluster a set of mirror images of one another — the
// multi-node realization of the paper's rate-matching mirror emulation.
func (c *Cluster) RunSyncLatency(size, onCore int) (ClusterSyncResult, error) {
	if c.Sharded() {
		return ClusterSyncResult{}, fmt.Errorf("node: the sync-latency microbenchmark coordinates completion cluster-wide on one engine; build the cluster with Shards=1")
	}
	// The microbenchmarks keep the legacy wheel delivery order their
	// cross-validation against the mirror emulation was calibrated on.
	c.Inter.SetCanonical(false)
	c.session.Begin()
	cfg := c.Cfg
	total := uint64(cfg.WarmupRequests + cfg.MeasureReqs)
	remaining := 0
	drivers := make([]*cpu.Driver, len(c.Nodes))
	for i, n := range c.Nodes {
		wl := cpu.NewUniformReads(size,
			SourceBase, SourceSpan,
			LocalBase+uint64(onCore)*LocalStride, LocalStride,
			total, cfg.Seed+uint64(onCore))
		d := cpu.NewDriver(c.Eng, n.Cfg, onCore, n.Agents[onCore], n.QPs[onCore], n.Stats, wl, cpu.Sync)
		n.Drivers = append(n.Drivers, d)
		drivers[i] = d
		remaining++
		d.OnIdle = func() {
			remaining--
			if remaining == 0 {
				c.Eng.Stop()
			}
		}
		d.Start()
	}
	c.session.Run(cfg.MaxCycles)
	if err := c.session.End(); err != nil {
		return ClusterSyncResult{}, err
	}
	res := ClusterSyncResult{PerNode: make([]SyncResult, len(c.Nodes))}
	for i, n := range c.Nodes {
		d := drivers[i]
		if remaining > 0 || d.Completed() < total {
			return ClusterSyncResult{}, fmt.Errorf("cluster sync run did not finish: node %d at %d/%d by cycle %d",
				i, d.Completed(), total, c.Eng.Now())
		}
		bd := n.breakdown(d.Retired[cfg.WarmupRequests:])
		res.PerNode[i] = SyncResult{
			MeanCycles: bd.Total,
			MeanNS:     bd.Total * cfg.NsPerCycle(),
			Breakdown:  bd,
		}
	}
	res.Aggregate = meanSync(res.PerNode)
	return res, nil
}

// meanSync averages per-node sync results into one aggregate.
func meanSync(per []SyncResult) SyncResult {
	var agg SyncResult
	k := float64(len(per))
	for _, r := range per {
		agg.MeanCycles += r.MeanCycles / k
		agg.MeanNS += r.MeanNS / k
		b := &agg.Breakdown
		b.WQWrite += r.Breakdown.WQWrite / k
		b.WQRead += r.Breakdown.WQRead / k
		b.Dispatch += r.Breakdown.Dispatch / k
		b.Generate += r.Breakdown.Generate / k
		b.NetOut += r.Breakdown.NetOut / k
		b.NetBack += r.Breakdown.NetBack / k
		b.Remote += r.Breakdown.Remote / k
		b.Complete += r.Breakdown.Complete / k
		b.CQWrite += r.Breakdown.CQWrite / k
		b.CQRead += r.Breakdown.CQRead / k
		b.Total += r.Breakdown.Total / k
		b.RRPPLat += r.Breakdown.RRPPLat / k
		b.Samples += r.Breakdown.Samples
	}
	return agg
}

// ClusterBWResult is the outcome of a cluster-wide bandwidth run.
// Aggregate sums application and NOC bandwidth across nodes; PerNode
// holds each node's share over the same measurement interval.
type ClusterBWResult struct {
	Aggregate BWResult
	PerNode   []BWResult
}

// RunBandwidth runs the §5 bandwidth microbenchmark on every node
// simultaneously: all cores of all nodes issue asynchronous remote reads
// to their node's default peer until the cluster-wide windowed
// application bandwidth stabilizes (or MaxCycles).
func (c *Cluster) RunBandwidth(size int) (ClusterBWResult, error) {
	if c.Sharded() {
		return ClusterBWResult{}, fmt.Errorf("node: the bandwidth microbenchmark's stability monitor is cluster-global on one engine; build the cluster with Shards=1")
	}
	c.Inter.SetCanonical(false)
	c.session.Begin()
	start := c.Eng.Now()
	cfg := c.Cfg
	tiles := cfg.Tiles()
	for _, n := range c.Nodes {
		for core := 0; core < tiles; core++ {
			wl := cpu.NewUniformReads(size,
				SourceBase, SourceSpan,
				LocalBase+uint64(core)*LocalStride, LocalStride,
				0, cfg.Seed+uint64(core)*7919+1)
			d := cpu.NewDriver(c.Eng, n.Cfg, core, n.Agents[core], n.QPs[core], n.Stats, wl, cpu.Async)
			n.Drivers = append(n.Drivers, d)
			d.Start()
		}
	}
	appBytes := func(n *Node) int64 { return n.Stats.RCPBytes + n.Stats.RRPPBytes }
	sumBytes := func() int64 {
		var s int64
		for _, n := range c.Nodes {
			s += appBytes(n)
		}
		return s
	}
	mon := stats.NewBandwidthMonitor(cfg.WindowCycles, cfg.StableDelta, 3)
	nvals := len(c.Nodes)
	flits0 := make([]int64, nvals)
	bis0 := make([]int64, nvals)
	inj0 := make([]int64, nvals)
	app0 := make([]int64, nvals)
	var cycles0 int64
	stable := false
	var tick func()
	tick = func() {
		if mon.Observe(sumBytes()) {
			stable = true
			c.Eng.Stop()
			return
		}
		c.Eng.Schedule(cfg.WindowCycles, tick)
	}
	// Skip the first window as warmup, then baseline every node's NOC and
	// application counters over one shared measurement interval.
	c.Eng.Schedule(cfg.WindowCycles, func() {
		for i, n := range c.Nodes {
			if n.Mesh != nil {
				flits0[i] = n.Mesh.FlitsCarried()
				bis0[i] = n.Mesh.BisectionFlits()
				inj0[i] = n.Mesh.BytesInjected()
			} else if n.NOCOut != nil {
				flits0[i] = n.NOCOut.FlitsCarried()
				inj0[i] = n.NOCOut.BytesInjected()
			}
			app0[i] = appBytes(n)
		}
		cycles0 = c.Eng.Now()
		mon.Reset(sumBytes())
		c.Eng.Schedule(cfg.WindowCycles, tick)
	})
	c.session.Run(cfg.MaxCycles)
	if err := c.session.End(); err != nil {
		return ClusterBWResult{}, err
	}
	elapsed := c.Eng.Now() - cycles0
	if elapsed <= 0 {
		return ClusterBWResult{}, fmt.Errorf("cluster bandwidth run made no progress")
	}
	ghz := cfg.ClockGHz
	res := ClusterBWResult{PerNode: make([]BWResult, nvals)}
	for i, n := range c.Nodes {
		r := BWResult{
			AppGBps:   stats.GBps(float64(appBytes(n)-app0[i])/float64(elapsed), ghz),
			Cycles:    c.Eng.Now() - start,
			Stable:    stable,
			Completed: n.Stats.Completed,
		}
		if n.Mesh != nil {
			r.NOCGBps = stats.GBps(float64(n.Mesh.BytesInjected()-inj0[i])/float64(elapsed), ghz)
			r.FlitHopGBps = stats.GBps(float64((n.Mesh.FlitsCarried()-flits0[i])*int64(cfg.LinkBytes))/float64(elapsed), ghz)
			r.BisectionGBps = stats.GBps(float64((n.Mesh.BisectionFlits()-bis0[i])*int64(cfg.LinkBytes))/float64(elapsed), ghz)
		} else if n.NOCOut != nil {
			r.NOCGBps = stats.GBps(float64(n.NOCOut.BytesInjected()-inj0[i])/float64(elapsed), ghz)
			r.FlitHopGBps = stats.GBps(float64((n.NOCOut.FlitsCarried()-flits0[i])*int64(cfg.LinkBytes))/float64(elapsed), ghz)
		}
		res.PerNode[i] = r
		res.Aggregate.AppGBps += r.AppGBps
		res.Aggregate.NOCGBps += r.NOCGBps
		res.Aggregate.FlitHopGBps += r.FlitHopGBps
		res.Aggregate.BisectionGBps += r.BisectionGBps
		res.Aggregate.Completed += r.Completed
	}
	res.Aggregate.Cycles = c.Eng.Now() - start
	res.Aggregate.Stable = stable
	return res, nil
}

// ClusterWorkloadResult is the outcome of a cluster-wide closed-loop
// workload run. Aggregate merges every node (PerCore entries carry
// node-global core ids: node*Tiles+core); PerNode holds each node's own
// view.
type ClusterWorkloadResult struct {
	Aggregate WorkloadResult
	PerNode   []WorkloadResult
}

// RunApp drives every core of every node whose factory returns a non-nil
// v2 App, until all drivers on all nodes finish (including draining
// in-flight requests) or maxCycles elapse. The factory receives the node
// index alongside the core, so callers can decorrelate per-node seeds or
// shard roles across the rack.
func (c *Cluster) RunApp(factory func(node, core int) cpu.App, maxCycles int64) (ClusterWorkloadResult, error) {
	if maxCycles <= 0 {
		maxCycles = c.Cfg.MaxCycles
	}
	// Workload runs use the canonical delivery order — the one that is
	// reproducible across shard counts — and the windowed run loop at
	// EVERY shard count (windowed is what pins the run's stop cycle to a
	// shard-count-invariant window boundary), so Shards is a pure
	// wall-clock knob: K=1 and K=8 produce identical results. Geometries
	// the canonical calendar can't order (one node, zero-delay hops, the
	// congestion model) keep the legacy engine-Stop path; NewCluster
	// coerces exactly those to a single shard.
	windowed := c.Inter.SetCanonical(true)
	c.session.Begin()
	start := c.Eng.Now()
	lastIdle := make([]int64, len(c.Engs))
	var active atomic.Int64
	for i, n := range c.Nodes {
		for core := 0; core < n.Cfg.Tiles(); core++ {
			app := factory(i, core)
			if app == nil {
				continue
			}
			d := cpu.NewAppDriver(n.Eng, n.Cfg, core, n.Agents[core], n.QPs[core], n.Stats, app)
			// The issue boundary of the cluster addressing contract: a
			// workload that manufactures a remote address with stray bits in
			// the node-selector field fails its run loudly here instead of
			// being silently mis-routed (see fabric.CheckRemoteAddr).
			d.CheckAddr = c.Inter.CheckAddr
			active.Add(1)
			if windowed {
				s, eng := c.shardOf(i), n.Eng
				d.OnIdle = func() {
					// The run's reported Cycles is the cycle the last
					// driver idles; each shard tracks its own and the
					// windowed loop takes the max. The engines keep
					// running to the window boundary — the same residual
					// events at every shard count.
					lastIdle[s] = eng.Now()
					active.Add(-1)
				}
			} else {
				d.OnIdle = func() {
					if active.Add(-1) == 0 {
						c.Eng.Stop()
					}
				}
			}
			n.AppDrivers = append(n.AppDrivers, d)
			d.Start()
		}
	}
	if active.Load() == 0 {
		return ClusterWorkloadResult{}, fmt.Errorf("node: no cores have workloads")
	}
	var finish int64
	if !windowed {
		c.session.Run(maxCycles)
		if err := c.session.End(); err != nil {
			return ClusterWorkloadResult{}, err
		}
		finish = c.Eng.Now()
	} else {
		quiesced, err := c.runWindowed(maxCycles, func() bool { return active.Load() == 0 })
		if eerr := c.session.End(); err == nil {
			err = eerr
		}
		if err != nil {
			return ClusterWorkloadResult{}, err
		}
		if quiesced {
			for _, v := range lastIdle {
				if v > finish {
					finish = v
				}
			}
		} else {
			finish = maxCycles + 1 // where a budget-cut engine parks
		}
	}
	res := ClusterWorkloadResult{PerNode: make([]WorkloadResult, len(c.Nodes))}
	merged := stats.NewLatencyHistogram()
	var appErr error
	var latSum float64
	var latCount int64
	tiles := c.Cfg.Tiles()
	for i, n := range c.Nodes {
		nodeMerged := stats.NewLatencyHistogram()
		nr := WorkloadResult{
			Completed:    n.Stats.Completed,
			Cycles:       finish - start,
			MeanLatency:  n.Stats.ReqLat.Mean(),
			AppBytes:     n.Stats.RCPBytes + n.Stats.RRPPBytes,
			Retries:      n.Stats.Retries,
			Failed:       n.Stats.FailedOps,
			AllExhausted: active.Load() == 0,
			PerCore:      make([]CoreStats, 0, len(n.AppDrivers)),
		}
		for _, d := range n.AppDrivers {
			if err := d.Err(); err != nil && appErr == nil {
				appErr = fmt.Errorf("node %d: %w", i, err)
			}
			nodeMerged.Merge(d.Hist)
			merged.Merge(d.Hist)
			cs := CoreStats{
				Core:        d.ID(),
				Issued:      int64(d.Issued()),
				Completed:   int64(d.Completed()),
				MeanLatency: d.Hist.Mean(),
				P50:         d.Hist.Percentile(50),
				P95:         d.Hist.Percentile(95),
				P99:         d.Hist.Percentile(99),
			}
			nr.PerCore = append(nr.PerCore, cs)
			cs.Core = i*tiles + d.ID()
			res.Aggregate.PerCore = append(res.Aggregate.PerCore, cs)
		}
		nr.P50 = nodeMerged.Percentile(50)
		nr.P95 = nodeMerged.Percentile(95)
		nr.P99 = nodeMerged.Percentile(99)
		res.PerNode[i] = nr
		res.Aggregate.Completed += nr.Completed
		res.Aggregate.AppBytes += nr.AppBytes
		res.Aggregate.Retries += nr.Retries
		res.Aggregate.Failed += nr.Failed
		latSum += nr.MeanLatency * float64(n.Stats.ReqLat.Count())
		latCount += n.Stats.ReqLat.Count()
	}
	res.Aggregate.Cycles = finish - start
	res.Aggregate.AllExhausted = active.Load() == 0
	if latCount > 0 {
		res.Aggregate.MeanLatency = latSum / float64(latCount)
	}
	res.Aggregate.P50 = merged.Percentile(50)
	res.Aggregate.P95 = merged.Percentile(95)
	res.Aggregate.P99 = merged.Percentile(99)
	if appErr != nil {
		res.Aggregate.AllExhausted = false
		return res, appErr
	}
	return res, nil
}
