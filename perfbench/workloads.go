package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"rackni"
	"rackni/internal/cpu"
	"rackni/internal/fabric"
	"rackni/internal/node"
)

// workload is one benchmark workload. run executes it once in this
// process, filling the repetition's record.
type workload struct {
	name string
	why  string
	run  func(r *rep) error
}

// workloads is the benchmark's workload list. Each why is the one-line
// reason the workload exists; BENCHMARK.json repeats it.
var workloads = []workload{
	{"chip-sweep", "the paper's own artifacts on one 64-core Table 2 chip via the sweep Runner; densest events per cycle, so sim, noc, coherence and core dominate", runChipSweep},
	{"rack-sparse", "32 full-fidelity 64-core nodes, 2 busy cores each, on 2 shards with drops; host cost is idle hardware, memory per node and the shard barrier", runRackSparse},
	{"rack-service", "64-node congested open-loop KV service with hedging on the link-level fabric; one engine, so fabric links, hedges, load and stats dominate", runRackService},
}

// threads is how many threads a repetition of w keeps busy: rack-sparse's
// shards, one for the single-engine workloads.
func (w workload) threads() int {
	if w.name == "rack-sparse" {
		return defaultShards()
	}
	return 1
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSeed is the workload seed used when none is given.
const defaultSeed = 1

// setupRepeats is how many times each repetition builds its nodes or
// cluster; setup_s is the median build, so one slow build does not move it.
const setupRepeats = 5

// defaultShards is rack-sparse's engine shard count: 2, or fewer on a
// host with fewer CPUs (results are identical at every shard count).
func defaultShards() int {
	return min(2, runtime.NumCPU())
}

// repRecord is what one repetition reports to the parent.
type repRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Host      string             `json:"host"`
	Points    int                `json:"points"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	RunS      float64            `json:"run_s"`
	SimCycles int64              `json:"sim_cycles"`
	Model     []modelValue       `json:"model"`
	Digest    string             `json:"digest"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Profile   string             `json:"profile,omitempty"`
}

// simRate is simulated kilocycles per host second inside the run calls.
func (r repRecord) simRate() float64 {
	if r.RunS <= 0 {
		return 0
	}
	return float64(r.SimCycles) / 1000 / r.RunS
}

// modelValue is one simulated output, formatted exactly.
type modelValue struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// rep is the state of one repetition while it runs.
type rep struct {
	rec    *repRecord
	seed   uint64
	shards int
	tr     *tracer // nil when untraced
	root   int     // the workload span
	layers map[string]float64
	bad    map[string]bool // points already counted as failed
}

// model records one simulated output.
func (r *rep) model(name string, v any) {
	var s string
	switch x := v.(type) {
	case float64:
		s = strconv.FormatFloat(x, 'g', -1, 64)
	default:
		s = fmt.Sprint(x)
	}
	r.rec.Model = append(r.rec.Model, modelValue{name, s})
}

// fail records a named failure of one point, counting the point once.
func (r *rep) fail(point, format string, args ...any) {
	r.rec.Failures = append(r.rec.Failures, fmt.Sprintf("%s: %s: %s", r.rec.Workload, point, fmt.Sprintf(format, args...)))
	if !r.bad[point] {
		r.bad[point] = true
		r.rec.Failed++
	}
}

// layer sets a per-layer metric; untraced repetitions record none.
func (r *rep) layer(name string, v float64) {
	if r.layers != nil {
		r.layers[name] = v
	}
}

// timedBuilds builds setupRepeats times and returns the last result and
// the median build time. The discarded builds are collected before the
// next one, so at most one extra build is live at a time.
func timedBuilds[T any](r *rep, build func() (T, error)) (T, float64, error) {
	var out T
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			var zero T
			out = zero
			runtime.GC()
		}
		sp := r.tr.begin("node.build", r.root)
		t0 := time.Now()
		v, err := build()
		times = append(times, time.Since(t0).Seconds())
		r.tr.end(sp, nil)
		if err != nil {
			return out, 0, err
		}
		out = v
	}
	return out, median(times), nil
}

// heapPerNode records the heap a cluster build added, per node, measured
// after a collection (traced repetitions only: the collection costs time).
func heapPerNode(r *rep, heap0 float64, nodes int) {
	if r.layers == nil {
		return
	}
	runtime.GC()
	r.layer("node.heap_mb_per_node", (heapObjectsBytes()-heap0)/float64(nodes)/(1<<20))
}

// processCPU returns this process's user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// ---------------------------------------------------------------- chip-sweep

// chip-sweep shape: zero-load sync latency at four sizes plus loaded async
// bandwidth at 1 KiB, for each NI design on mesh and NOC-Out. Bandwidth
// points run a fixed cycle budget (StableDelta=0 never declares a window
// stable); latency points issue chipWarmup+chipMeasure blocking reads.
const (
	chipWarmup   = 2
	chipMeasure  = 8
	chipBWSize   = 1024
	chipBWBudget = 12_000
	chipBWWindow = 4_000
)

var (
	chipLatencySizes = []int{64, 1024, 4096, 16384}
	chipTopologies   = []rackni.Topology{rackni.Mesh, rackni.NOCOut}
	chipDesigns      = []rackni.Design{rackni.NIEdge, rackni.NIPerTile, rackni.NISplit}
)

// chipConfig is the paper's Table 2 chip with the benchmark's request
// counts and bandwidth budget.
func chipConfig(seed uint64, topo rackni.Topology, design rackni.Design) rackni.Config {
	cfg := rackni.DefaultConfig()
	cfg.Seed = seed
	cfg.Topology, cfg.Design = topo, design
	cfg.WarmupRequests, cfg.MeasureReqs = chipWarmup, chipMeasure
	cfg.StableDelta = 0
	cfg.WindowCycles = chipBWWindow
	return cfg
}

// chipPoints is the fixed point list, in run order.
func chipPoints(seed uint64) []rackni.Point {
	var pts []rackni.Point
	for _, topo := range chipTopologies {
		for _, d := range chipDesigns {
			cfg := chipConfig(seed, topo, d)
			for _, size := range chipLatencySizes {
				pts = append(pts, rackni.Point{Config: cfg, Mode: rackni.Latency, Size: size, Hops: 1})
			}
			bw := cfg
			bw.MaxCycles = chipBWBudget
			pts = append(pts, rackni.Point{Config: bw, Mode: rackni.Bandwidth, Size: chipBWSize, Hops: 1})
		}
	}
	return pts
}

// pointName is a stable short label for a chip-sweep point.
func pointName(p rackni.Point) string {
	if p.Mode == rackni.Bandwidth {
		return fmt.Sprintf("bw.%v.%v.%d", p.Config.Topology, p.Config.Design, p.Size)
	}
	return fmt.Sprintf("lat.%v.%v.%d", p.Config.Topology, p.Config.Design, p.Size)
}

func runChipSweep(r *rep) error {
	pts := chipPoints(r.seed)
	r.rec.Points = len(pts)
	// Set-up: the node builds the Runner does, one fresh node per point.
	_, setup, err := timedBuilds(r, func() (int, error) {
		for _, p := range pts {
			if _, err := rackni.NewNode(p.Config, p.Hops); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	r.rec.SetupS = setup
	r.layer("node.build_s_per_node", setup/float64(len(pts)))

	var res rackni.Results
	if r.tr == nil {
		res, err = rackni.NewRunner(rackni.Options{Parallel: 1}).Run(pts)
	} else {
		res = runChipDirect(r, pts)
	}
	if err != nil {
		r.fail("runner", "%v", err)
	}
	checkChip(r, pts, res)

	sp := r.tr.begin("render", r.root)
	t0 := time.Now()
	text := res.Format()
	blob, jerr := res.JSON()
	r.layer("rackni.render_s", time.Since(t0).Seconds())
	r.tr.end(sp, nil)
	if text == "" || jerr != nil || !json.Valid(blob) {
		r.fail("render", "Format/JSON failed: %v", jerr)
	}
	return nil
}

// checkChip audits every point and records its simulated outputs.
func checkChip(r *rep, pts []rackni.Point, res rackni.Results) {
	sp := r.tr.begin("check", r.root)
	defer r.tr.end(sp, nil)
	var run time.Duration
	for i, p := range pts {
		name := pointName(p)
		if i >= len(res) {
			r.fail(name, "no result")
			continue
		}
		out := res[i]
		run += out.Wall
		switch {
		case out.Err != nil:
			r.fail(name, "%v", out.Err)
		case p.Mode == rackni.Latency && out.Sync != nil:
			s := out.Sync
			if !(s.MeanCycles > 0) || s.Breakdown.Samples != chipMeasure {
				r.fail(name, "latency point measured %d samples, mean %g cycles", s.Breakdown.Samples, s.MeanCycles)
			}
			// A sync run is serial, so its simulated time is about the
			// requests times their mean latency.
			r.rec.SimCycles += int64(s.MeanCycles * (chipWarmup + chipMeasure))
			r.model(name+".mean_cycles", s.MeanCycles)
			r.model(name+".rrpp_cycles", s.Breakdown.RRPPLat)
		case p.Mode == rackni.Bandwidth && out.BW != nil:
			b := out.BW
			// audit: a fixed-budget point must run its whole budget.
			if b.Cycles < p.Config.MaxCycles || b.Stable {
				r.fail(name, "bandwidth point ran %d of its %d-cycle budget (stable=%v)", b.Cycles, p.Config.MaxCycles, b.Stable)
			}
			r.rec.SimCycles += b.Cycles
			r.model(name+".app_gbps", b.AppGBps)
			r.model(name+".noc_gbps", b.NOCGBps)
			r.model(name+".cycles", b.Cycles)
			r.model(name+".completed", b.Completed)
		default:
			r.fail(name, "no result")
		}
	}
	r.rec.RunS = run.Seconds()
}

// runChipDirect runs the points the way the Runner does (one fresh node
// per point, serially) but through internal/node, so the traced run can
// read the node's layer counters.
func runChipDirect(r *rep, pts []rackni.Point) rackni.Results {
	res := make(rackni.Results, len(pts))
	var flits, nocoutFlits, completed, retries, failedOps, issued, drvDone, drvFailed, blocks int64
	var run time.Duration
	for i, p := range pts {
		res[i].Point = p
		sp := r.tr.begin("node.build", r.root)
		var n *node.Node
		var err error
		if p.Config.Topology == rackni.NOCOut {
			n, err = node.NewNOCOut(p.Config, p.Hops)
		} else {
			n, err = node.New(p.Config, p.Hops)
		}
		r.tr.end(sp, nil)
		if err != nil {
			res[i].Err = err
			continue
		}
		sp = r.tr.begin("node.run", r.root)
		t0 := time.Now()
		switch p.Mode {
		case rackni.Latency:
			s, err := n.RunSyncLatency(p.Size, p.Core)
			res[i].Sync, res[i].Err = &s, err
		case rackni.Bandwidth:
			b, err := n.RunBandwidth(p.Size)
			res[i].BW, res[i].Err = &b, err
		}
		res[i].Wall = time.Since(t0)
		run += res[i].Wall
		if n.Mesh != nil {
			flits += n.Mesh.FlitsCarried()
		}
		if n.NOCOut != nil {
			nocoutFlits += n.NOCOut.FlitsCarried()
		}
		completed += n.Stats.Completed
		retries += n.Stats.Retries
		failedOps += n.Stats.FailedOps
		blocks += n.Rack.RequestsOut + n.Rack.ResponsesOut
		for _, d := range n.Drivers {
			issued += int64(d.Issued())
			drvDone += int64(d.Completed())
			drvFailed += int64(d.Failed())
			// audit: a drained (latency) run retires every issued request;
			// bandwidth runs stop at their budget with requests in flight.
			if p.Mode == rackni.Latency && d.Issued() != d.Completed()+d.Failed() {
				r.fail(pointName(p), "cpu ledger: issued %d != completed %d + failed %d", d.Issued(), d.Completed(), d.Failed())
			}
		}
		r.tr.end(sp, map[string]float64{"noc.flits": float64(flits), "core.completed": float64(completed)})
		if res[i].Err != nil {
			res[i].Sync, res[i].BW = nil, nil
		}
	}
	r.layer("noc.flits", float64(flits))
	r.layer("nocout.flits", float64(nocoutFlits))
	r.layer("noc.host_ns_per_flit", perUnit(run.Seconds()*1e9, flits+nocoutFlits))
	recordCore(r, completed, retries, failedOps, run.Seconds())
	r.layer("cpu.issued", float64(issued))
	r.layer("cpu.completed", float64(drvDone))
	r.layer("cpu.failed", float64(drvFailed))
	r.layer("fabric.blocks", float64(blocks))
	r.layer("fabric.host_ns_per_block", perUnit(run.Seconds()*1e9, blocks))
	r.layer("node.shards", 1)
	return res
}

// recordCore sets the core layer's counters and ratios.
func recordCore(r *rep, completed, retries, failed int64, runS float64) {
	r.layer("core.completed", float64(completed))
	r.layer("core.retries", float64(retries))
	r.layer("core.failed", float64(failed))
	r.layer("core.retry_ratio", perUnit(float64(retries), completed))
	r.layer("core.host_us_per_req", perUnit(runS*1e6, completed))
}

// perUnit divides, reporting 0 when there is no unit of work.
func perUnit(total float64, units int64) float64 {
	if units == 0 {
		return 0
	}
	return total / float64(units)
}

// --------------------------------------------------------------- rack-sparse

// rack-sparse shape: sparseNodes Table 2 nodes on the 8x8x8 torus under
// clustered placement, lump-sum fabric with leg drops and request
// timeouts; sparseClients cores per node run a closed loop of sparseOps
// 1 KiB ops (window 4, every 4th a write) to seeded target nodes.
const (
	sparseNodes      = 32
	sparseClients    = 2
	sparseWindow     = 4
	sparseOps        = 32
	sparseSize       = 1024
	sparseObjects    = 100_000
	sparseWriteEvery = 4
	sparseDropProb   = 0.001
	// sparseTimeout is a few unloaded round trips, so a drop costs a short
	// retry rather than a run-length tail.
	sparseTimeout = 3_000
)

func runRackSparse(r *rep) error {
	return runSparseShape(r, sparseNodes, r.shards, sparseOps)
}

// streamSeed derives one client's stream seed from the workload seed
// (splitmix64 of the seed, node and core).
func streamSeed(seed uint64, nodeIdx, core int) uint64 {
	z := seed + uint64(nodeIdx)<<20 + uint64(core) + 0x9E37_79B9_7F4A_7C15
	z = (z ^ (z >> 30)) * 0xBF58_476D_1CE4_E5B9
	z = (z ^ (z >> 27)) * 0x94D0_49BB_1331_11EB
	return z ^ (z >> 31)
}

// runSparseShape runs the rack-sparse workload at the given size; the
// tests use small shapes.
func runSparseShape(r *rep, nodes, shards int, ops uint64) error {
	r.rec.Points = 1
	cfg := rackni.DefaultConfig()
	cfg.Seed = r.seed
	cfg.ReqTimeout = sparseTimeout
	spec := node.ClusterSpec{Nodes: nodes, Place: rackni.PlaceClustered, Shards: shards,
		Faults: &fabric.FaultSpec{Seed: r.seed, DropProb: sparseDropProb}}
	heap0 := heapObjectsBytes()
	c, setup, err := timedBuilds(r, func() (*node.Cluster, error) { return node.NewCluster(cfg, spec) })
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	r.rec.SetupS = setup
	r.layer("node.build_s_per_node", setup/float64(nodes))
	heapPerNode(r, heap0, nodes)
	r.layer("node.shards", float64(c.NumShards()))

	factory := func(nd, core int) cpu.App {
		if core >= sparseClients {
			return nil
		}
		app := rackni.NewMixedUpdate(sparseWindow, ops, sparseSize, sparseObjects, sparseWriteEvery, streamSeed(r.seed, nd, core))
		return rackni.ShardRemote(app, nd, nodes)
	}
	sp := r.tr.begin("node.run", r.root)
	cpu0, t0 := processCPU(), time.Now()
	res, err := c.RunApp(factory, 0)
	r.rec.RunS = time.Since(t0).Seconds()
	runCPU := processCPU() - cpu0
	r.tr.end(sp, nil)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	r.layer("node.parallel_eff", runCPU/(r.rec.RunS*float64(c.NumShards())))

	sp = r.tr.begin("check", r.root)
	defer r.tr.end(sp, nil)
	a := res.Aggregate
	r.rec.SimCycles = a.Cycles
	const point = "rack"
	if !a.AllExhausted {
		r.fail(point, "run did not drain within %d cycles", cfg.MaxCycles)
	}
	var issued, done, failed, flits, completed, retries, failedOps int64
	for i, n := range c.Nodes {
		for _, d := range n.AppDrivers {
			// audit: every issued request completed or failed.
			if d.Issued() != d.Completed()+d.Failed() {
				r.fail(point, "cpu ledger node %d core %d: issued %d != completed %d + failed %d",
					i, d.ID(), d.Issued(), d.Completed(), d.Failed())
			}
			issued += int64(d.Issued())
			done += int64(d.Completed())
			failed += int64(d.Failed())
		}
		flits += n.Mesh.FlitsCarried()
		completed += n.Stats.Completed
		retries += n.Stats.Retries
		failedOps += n.Stats.FailedOps
	}
	if want := int64(nodes * sparseClients * int(ops)); issued != want {
		r.fail(point, "issued %d requests, want %d", issued, want)
	}
	var blocks, drops int64
	for _, ls := range c.Inter.Counters {
		blocks += ls.RequestsOut + ls.ResponsesOut
		drops += ls.Drops
	}
	r.model("cycles", a.Cycles)
	r.model("completed", a.Completed)
	r.model("failed", a.Failed)
	r.model("retries", a.Retries)
	r.model("drops", drops)
	r.model("app_bytes", a.AppBytes)
	r.model("mean_latency", a.MeanLatency)
	r.model("p50", a.P50)
	r.model("p95", a.P95)
	r.model("p99", a.P99)

	r.layer("noc.flits", float64(flits))
	r.layer("noc.host_ns_per_flit", perUnit(r.rec.RunS*1e9, flits))
	recordCore(r, completed, retries, failedOps, r.rec.RunS)
	r.layer("cpu.issued", float64(issued))
	r.layer("cpu.completed", float64(done))
	r.layer("cpu.failed", float64(failed))
	r.layer("fabric.blocks", float64(blocks))
	r.layer("fabric.drops", float64(drops))
	r.layer("fabric.peak_inflight", float64(c.Inter.PeakInFlight()))
	r.layer("fabric.host_ns_per_block", perUnit(r.rec.RunS*1e9, blocks))
	return nil
}

// -------------------------------------------------------------- rack-service

// rack-service shape: the 64-node study on the reduced study chip (4x2
// mesh, 2 MiB LLC), link-level fabric with adaptive routing and rare
// 20k-cycle hiccups, open-loop Poisson KV GETs (Zipf 0.99, R=3) below the
// knee, hedged at 1200 cycles.
const (
	serviceNodes      = 64
	serviceRate       = 0.5 // requests per 1000 cycles per client
	serviceRequests   = 48  // arrivals per client
	serviceHedge      = 1200
	serviceHiccupProb = 0.002
	serviceHiccup     = 20_000
)

// serviceConfig is the reduced study chip of rackbench's cluster studies.
func serviceConfig(seed uint64) rackni.Config {
	cfg := rackni.DefaultConfig()
	cfg.Seed = seed
	cfg.MeshWidth, cfg.MeshHeight = 4, 2
	cfg.LLCSizeBytes = 2 << 20
	cfg.StableDelta = 0
	cfg.WindowCycles = 20_000
	cfg.MaxCycles = 2_000_000
	return cfg
}

func runRackService(r *rep) error {
	r.rec.Points = 1
	cfg := serviceConfig(r.seed)
	spec := rackni.ClusterSpec{Nodes: serviceNodes, FabricRouting: rackni.RouteAdaptive,
		Faults: &rackni.FaultSpec{Seed: r.seed, DelayProb: serviceHiccupProb, DelayCycles: serviceHiccup}}
	heap0 := heapObjectsBytes()
	c, setup, err := timedBuilds(r, func() (*rackni.Cluster, error) { return rackni.NewClusterSpec(cfg, spec) })
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	r.rec.SetupS = setup
	r.layer("node.build_s_per_node", setup/serviceNodes)
	heapPerNode(r, heap0, serviceNodes)
	r.layer("node.shards", float64(c.Interconnect().NumShards()))

	sp := r.tr.begin("node.run", r.root)
	t0 := time.Now()
	res, err := c.RunService(rackni.ServiceSpec{
		Arrival:  rackni.ArrivalSpec{Kind: "poisson", Rate: serviceRate},
		Requests: serviceRequests,
		Hedge:    serviceHedge,
	}, 0)
	r.rec.RunS = time.Since(t0).Seconds()
	r.tr.end(sp, nil)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	r.layer("node.parallel_eff", 1)

	sp = r.tr.begin("check", r.root)
	defer r.tr.end(sp, nil)
	r.rec.SimCycles = res.Cycles
	const point = "service"
	// audits: request accounting, drain, hedge accounting, link credits.
	if res.Arrivals != res.Completed+res.Failed {
		r.fail(point, "arrivals %d != completed %d + failed %d", res.Arrivals, res.Completed, res.Failed)
	}
	if want := int64(serviceNodes * res.Clients * serviceRequests); res.Arrivals != want {
		r.fail(point, "%d arrivals, want %d", res.Arrivals, want)
	}
	if !res.Drained {
		r.fail(point, "service run did not drain within %d cycles", cfg.MaxCycles)
	}
	if res.HedgeWins > res.Hedged {
		r.fail(point, "hedge wins %d exceed hedged %d", res.HedgeWins, res.Hedged)
	}
	inter := c.Interconnect()
	var linkFlits, queued, blocked, blocks, drops int64
	for _, l := range inter.LinkLedgers() {
		if l.Granted != l.Returned {
			r.fail(point, "link %d dim %d dir %+d: credits granted %d != returned %d", l.Coord, l.Dim, l.Dir, l.Granted, l.Returned)
		}
		linkFlits += l.Flits
	}
	for _, ls := range inter.Counters {
		queued += ls.FabricQueued
		blocked += ls.FabricBlocked
		blocks += ls.RequestsOut + ls.ResponsesOut
		drops += ls.Drops
	}
	var completed, retries, failedOps int64
	for i := 0; i < c.NodeCount(); i++ {
		st := c.NodeStats(i)
		completed += st.Completed
		retries += st.Retries
		failedOps += st.FailedOps
	}
	r.model("cycles", res.Cycles)
	r.model("arrivals", res.Arrivals)
	r.model("completed", res.Completed)
	r.model("failed", res.Failed)
	r.model("hedged", res.Hedged)
	r.model("hedge_wins", res.HedgeWins)
	r.model("cancelled", res.Cancelled)
	r.model("goodput", res.Goodput)
	r.model("p50", res.P50)
	r.model("p99", res.P99)
	r.model("p999", res.P999)
	r.model("queue_p99", res.QueueP99)
	r.model("link_flits", linkFlits)

	recordCore(r, completed, retries, failedOps, r.rec.RunS)
	r.layer("fabric.blocks", float64(blocks))
	r.layer("fabric.drops", float64(drops))
	r.layer("fabric.queued_cycles", float64(queued))
	r.layer("fabric.blocked_cycles", float64(blocked))
	r.layer("fabric.link_flits", float64(linkFlits))
	r.layer("fabric.peak_inflight", float64(inter.PeakInFlight()))
	r.layer("fabric.host_ns_per_block", perUnit(r.rec.RunS*1e9, blocks))
	r.layer("rackni.hedge_win_ratio", perUnit(float64(res.HedgeWins), res.Hedged))

	st := r.tr.begin("render", r.root)
	t1 := time.Now()
	text := res.Format()
	r.layer("rackni.render_s", time.Since(t1).Seconds())
	r.tr.end(st, nil)
	if text == "" {
		r.fail(point, "empty Format")
	}
	return nil
}
