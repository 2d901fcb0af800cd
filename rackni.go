// Package rackni is a cycle-level simulation library reproducing
// "Manycore Network Interfaces for In-Memory Rack-Scale Computing"
// (Daglis, Novaković, Bugnion, Falsafi, Grot — ISCA 2015).
//
// It models one 64-core tiled SoC of a rack-scale system in full detail —
// mesh or NOC-Out interconnect, MESI directory coherence, NUCA LLC, memory
// controllers, and the soNUMA Remote Memory Controller (RGP/RCP/RRPP
// pipelines with in-memory queue pairs) — under the three NI placements
// the paper studies (NIedge, NIper-tile, NIsplit), with the rest of the
// rack emulated by the paper's own methodology (rate-matching traffic
// generation, measured local RRPP latency, fixed 35 ns per network hop).
//
// Quick start:
//
//	cfg := rackni.DefaultConfig()
//	cfg.Design = rackni.NISplit
//	n, err := rackni.NewNode(cfg, 1) // one network hop to the peer
//	if err != nil { ... }
//	res, err := n.RunSyncLatency(64, 27) // 64-byte reads from core 27
//	fmt.Printf("remote read: %.0f ns\n", res.MeanNS)
//
// The Sweep/Runner API (sweep.go) composes design-space sweeps — NI
// placement × topology × routing × transfer size × hop count × seed — and
// executes their points on a worker pool with deterministic, ordered
// results. The Experiments API (experiments.go) defines every table and
// figure of the paper's evaluation as such sweeps; cmd/rackbench prints
// them and cmd/racksim runs arbitrary sweeps beyond the paper's.
package rackni

import (
	"context"
	"fmt"

	"rackni/internal/config"
	rmc "rackni/internal/core"
	"rackni/internal/cpu"
	"rackni/internal/fabric"
	"rackni/internal/node"
	"rackni/internal/place"
)

// Config is the full system parameter set (Table 2 defaults).
type Config = config.Config

// Design selects the NI architecture.
type Design = config.Design

// Topology selects the on-chip interconnect.
type Topology = config.Topology

// Routing selects the mesh routing policy.
type Routing = config.Routing

// Re-exported enumerators.
const (
	NIEdge    = config.NIEdge
	NIPerTile = config.NIPerTile
	NISplit   = config.NISplit
	NUMA      = config.NUMA

	Mesh   = config.Mesh
	NOCOut = config.NOCOut

	RoutingXY     = config.RoutingXY
	RoutingYX     = config.RoutingYX
	RoutingO1Turn = config.RoutingO1Turn
	RoutingCDR    = config.RoutingCDR
	RoutingCDRNI  = config.RoutingCDRNI
)

// DefaultConfig returns the paper's Table 2 configuration.
func DefaultConfig() Config { return config.Default() }

// QuickConfig returns a configuration with shorter measurement windows for
// fast iteration (results are slightly noisier than the paper-fidelity
// defaults).
func QuickConfig() Config {
	cfg := config.Default()
	cfg.WindowCycles = 50_000
	cfg.MaxCycles = 800_000
	cfg.MeasureReqs = 32
	return cfg
}

// DefaultReqTimeout is the request timeout (engine cycles) sweeps arm when
// a fault axis is enabled but Config.ReqTimeout was left at 0, so dropped
// blocks recover by retransmission instead of failing permanently.
const DefaultReqTimeout = config.DefaultReqTimeout

// SyncResult is a latency run's outcome; Breakdown is its tomography.
type SyncResult = node.SyncResult

// Breakdown is the per-request latency tomography (Tables 1 and 3).
type Breakdown = node.Breakdown

// BWResult is a bandwidth run's outcome.
type BWResult = node.BWResult

// Op is a one-sided operation type.
type Op = rmc.Op

// Operation kinds for custom workloads.
const (
	OpRead  = rmc.OpRead
	OpWrite = rmc.OpWrite
)

// Workload is the v1 open-loop workload contract, kept for compatibility:
// a positional script that can never observe a completion. New code should
// implement App (the v2 closed-loop contract, see scenario.go); v1 values
// still run everywhere through the Legacy adapter, bit-identically to the
// old driver.
type Workload = cpu.Workload

// Node is one simulated SoC plus its emulated rack.
type Node struct {
	n *node.Node
}

// NewNode builds a node for the configured topology and the given one-way
// intra-rack hop count to its peer.
func NewNode(cfg Config, hops int) (*Node, error) {
	if hops < 0 {
		return nil, fmt.Errorf("rackni: negative hop count %d", hops)
	}
	if hops == 0 {
		hops = cfg.DefaultHops
	}
	var inner *node.Node
	var err error
	if cfg.Topology == config.NOCOut {
		inner, err = node.NewNOCOut(cfg, hops)
	} else {
		inner, err = node.New(cfg, hops)
	}
	if err != nil {
		return nil, err
	}
	return &Node{n: inner}, nil
}

// RunSyncLatency measures unloaded remote-read latency: one core issues
// synchronous reads of size bytes (§5's latency microbenchmark).
func (n *Node) RunSyncLatency(size, core int) (SyncResult, error) {
	if err := checkSize(n.n.Cfg, size); err != nil {
		return SyncResult{}, err
	}
	if core < 0 || core >= n.n.Cfg.Tiles() {
		return SyncResult{}, fmt.Errorf("rackni: core %d out of range", core)
	}
	return n.n.RunSyncLatency(size, core)
}

// RunBandwidth measures aggregate application bandwidth: all cores issue
// asynchronous reads of size bytes until the windowed rate stabilizes
// (§5's bandwidth microbenchmark).
func (n *Node) RunBandwidth(size int) (BWResult, error) {
	if err := checkSize(n.n.Cfg, size); err != nil {
		return BWResult{}, err
	}
	return n.n.RunBandwidth(size)
}

// RunApp drives every core for which factory returns a non-nil v2 App as
// a closed-loop state machine, until all apps are Done and their in-flight
// requests have drained, or maxCycles elapse (maxCycles <= 0 uses the
// configuration's MaxCycles). A run cut short by maxCycles returns partial
// statistics with AllExhausted=false.
func (n *Node) RunApp(factory func(core int) App, maxCycles int64) (WorkloadResult, error) {
	return n.n.RunApp(factory, maxCycles)
}

// RunScenario runs a named scenario from the library (see Scenarios and
// ParseScenario) on this node.
func (n *Node) RunScenario(sc Scenario, maxCycles int64) (WorkloadResult, error) {
	if sc.New == nil {
		return WorkloadResult{}, fmt.Errorf("rackni: scenario %q has no constructor", sc.Name)
	}
	cfg := n.Config()
	return n.RunApp(func(core int) App { return sc.New(cfg, core) }, maxCycles)
}

// RunWorkload drives every core for which factory returns a non-nil v1
// workload through the Legacy adapter, until all workloads are exhausted
// (and their in-flight requests drained) or maxCycles elapse. Results are
// bit-identical to the pre-v2 open-loop driver, with the v2 percentile and
// per-core fields filled in.
func (n *Node) RunWorkload(factory func(core int) Workload, maxCycles int64) (WorkloadResult, error) {
	return n.n.RunWorkload(factory, maxCycles)
}

// WorkloadResult summarizes a workload run, including deterministic
// fixed-bucket latency percentiles and per-core breakdowns.
type WorkloadResult = node.WorkloadResult

// CoreStats is one core's slice of a WorkloadResult.
type CoreStats = node.CoreStats

// SetContext attaches ctx to the node. Subsequent runs poll it periodically
// and abort with the context's error once it is cancelled; a nil or
// non-cancellable context costs nothing. The poll mutates no simulator
// state, so results stay bit-identical with or without a context.
func (n *Node) SetContext(ctx context.Context) { n.n.SetContext(ctx) }

// Stats exposes the node's raw counters (latency accumulators, byte
// counts) for custom analyses.
func (n *Node) Stats() *rmc.Stats { return n.n.Stats }

// Config returns the node's configuration.
func (n *Node) Config() *Config { return n.n.Cfg }

// ClusterSpec sizes and places a multi-node cluster: the node count, plus
// either a uniform pairwise hop distance (Hops; the paper's fixed-hop
// rack model) or explicit coordinates on the rack's 3D torus (Placement;
// real pairwise distances). Its optional Faults field installs a
// deterministic fault plan on the inter-node fabric.
type ClusterSpec = node.ClusterSpec

// FaultSpec declares a deterministic fault schedule for the inter-node
// fabric: seeded per-leg drop/delay/corrupt probabilities plus scheduled
// link and node outages, all in engine cycles. Identical specs perturb
// identical runs identically — no wall-clock randomness anywhere.
type FaultSpec = fabric.FaultSpec

// LinkOutage takes one directed inter-node link down for [From, Until)
// engine cycles (Until <= 0 = forever).
type LinkOutage = fabric.Outage

// NodeOutage takes a whole node off the fabric for [From, Until) engine
// cycles (Until <= 0 = forever).
type NodeOutage = fabric.NodeOutage

// RoutePolicy selects how the congestion-faithful inter-node fabric routes
// blocks across the rack's 3D torus. RouteNone (the default) disables the
// link-level model entirely — the fabric charges lump-sum hop delays,
// bit-identical to the pre-congestion Interconnect.
type RoutePolicy = fabric.RoutePolicy

// Fabric routing policies for ClusterSpec.FabricRouting and the Sweep
// FabricRoutings axis.
const (
	// RouteNone disables the congestion model (lump-sum hop delays).
	RouteNone = fabric.RouteNone
	// RouteDOR routes dimension-ordered: x, then y, then z, minimal ring
	// direction per dimension.
	RouteDOR = fabric.RouteDOR
	// RouteAdaptive routes adaptive-minimal: the least-loaded productive
	// dimension at each router, deterministic tie-breaks.
	RouteAdaptive = fabric.RouteAdaptive
)

// PlacementPolicy is a named node-placement policy: a deterministic
// mapping from cluster node indices onto coordinates of the rack's 3D
// torus. The zero value means "no named placement" — the uniform
// fixed-hop model (or whatever raw coordinates the spec provides). Named
// policies are a sweep axis (Sweep.Placements), a ClusterSpec field
// (Place), and a CLI flag (racksim -placement).
type PlacementPolicy = place.Policy

// Named placement policies for ClusterSpec.Place and the Sweep
// Placements axis.
var (
	// PlaceIdentity places node i at torus coordinate i — the geometry of
	// the paper's 512-node rack.
	PlaceIdentity = PlacementPolicy{Kind: place.Identity}
	// PlaceClustered packs consecutive node indices into 2x2x2 torus
	// sub-cubes: maximal locality for communicating groups.
	PlaceClustered = PlacementPolicy{Kind: place.Clustered}
	// PlaceScattered strides consecutive node indices across the whole
	// torus: maximal spread, paths near the torus diameter.
	PlaceScattered = PlacementPolicy{Kind: place.Scattered}
)

// PlaceRandom returns the seeded uniform-permutation placement policy.
func PlaceRandom(seed uint64) PlacementPolicy {
	return PlacementPolicy{Kind: place.Random, Seed: seed}
}

// LinkLedger is one directed torus link's per-run congestion snapshot
// (grants, occupancy high-water, serializer-queued and credit-blocked
// cycles); Cluster.Interconnect().LinkLedgers() lists the active ones.
type LinkLedger = fabric.LinkLedger

// ClusterSyncResult is a cluster latency run's outcome (per node plus
// cross-node aggregate).
type ClusterSyncResult = node.ClusterSyncResult

// ClusterBWResult is a cluster bandwidth run's outcome (per node plus
// summed aggregate).
type ClusterBWResult = node.ClusterBWResult

// ClusterWorkloadResult is a cluster workload run's outcome (per node
// plus merged aggregate; aggregate PerCore entries carry node-global core
// ids, node*Tiles+core).
type ClusterWorkloadResult = node.ClusterWorkloadResult

// Cluster is N fully simulated nodes sharing one event engine, connected
// by a real inter-node fabric (fabric.Interconnect) that delivers every
// remote request to the target node's actual RRPPs — the simulated
// counterpart of the paper's emulated rack, cross-validated against it in
// internal/node/cluster_equiv_test.go. Unlike the mirror emulation, a
// cluster can express cross-node sharding, skewed placement and fan-out
// scenarios; N=1 single-node studies keep using NewNode's emulated rack,
// the fast path.
type Cluster struct {
	c *node.Cluster
}

// NewCluster builds a cluster of n identical nodes, every pair a uniform
// hops apart (0 = the configuration's DefaultHops) — the symmetric
// arrangement the cross-validation runs. For explicit torus placement use
// NewClusterSpec.
func NewCluster(cfg Config, n, hops int) (*Cluster, error) {
	return NewClusterSpec(cfg, ClusterSpec{Nodes: n, Hops: hops})
}

// NewClusterSpec builds a cluster per the full spec.
func NewClusterSpec(cfg Config, spec ClusterSpec) (*Cluster, error) {
	c, err := node.NewCluster(cfg, spec)
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// NodeCount returns the number of simulated nodes.
func (c *Cluster) NodeCount() int { return len(c.c.Nodes) }

// Config returns the cluster's shared configuration.
func (c *Cluster) Config() *Config { return c.c.Cfg }

// NodeStats exposes node i's raw counters.
func (c *Cluster) NodeStats(i int) *rmc.Stats { return c.c.Nodes[i].Stats }

// Placement returns the named placement policy the cluster was built with
// (the zero policy for uniform-hop clusters, raw coordinate lists, and the
// congestion model's automatic identity placement).
func (c *Cluster) Placement() PlacementPolicy { return c.c.Placed() }

// Interconnect exposes the inter-node fabric's per-run accounting: one
// LinkStats per node plus the node-to-node traffic matrix.
func (c *Cluster) Interconnect() *fabric.Interconnect { return c.c.Inter }

// SetContext attaches ctx to the cluster; runs poll it periodically and
// abort with its error once cancelled. Exactly one watchdog serves the
// whole cluster.
func (c *Cluster) SetContext(ctx context.Context) { c.c.SetContext(ctx) }

// SetFaults installs (or, with a nil or inactive spec, clears) a
// deterministic fault plan on the inter-node fabric between runs. Arm
// Config.ReqTimeout to recover dropped blocks by retransmission; without
// it, drops surface as permanently failed requests.
func (c *Cluster) SetFaults(spec *FaultSpec) error { return c.c.SetFaults(spec) }

// RunSyncLatency runs the §5 latency microbenchmark on every node
// simultaneously: one core per node issues synchronous remote reads of
// size bytes to its default peer, while its own RRPPs service the peer's
// identical stream — the multi-node realization of the paper's
// mirror-traffic emulation.
func (c *Cluster) RunSyncLatency(size, core int) (ClusterSyncResult, error) {
	if err := checkSize(c.c.Cfg, size); err != nil {
		return ClusterSyncResult{}, err
	}
	if core < 0 || core >= c.c.Cfg.Tiles() {
		return ClusterSyncResult{}, fmt.Errorf("rackni: core %d out of range", core)
	}
	return c.c.RunSyncLatency(size, core)
}

// RunBandwidth runs the §5 bandwidth microbenchmark on every node
// simultaneously until the cluster-wide windowed application bandwidth
// stabilizes.
func (c *Cluster) RunBandwidth(size int) (ClusterBWResult, error) {
	if err := checkSize(c.c.Cfg, size); err != nil {
		return ClusterBWResult{}, err
	}
	return c.c.RunBandwidth(size)
}

// RunApp drives every core of every node whose factory returns a non-nil
// App. The factory receives the node index alongside the core, so apps
// can shard roles and decorrelate seeds across the rack; target remote
// addresses at a specific node with TargetNode.
func (c *Cluster) RunApp(factory func(nodeIdx, core int) App, maxCycles int64) (ClusterWorkloadResult, error) {
	return c.c.RunApp(factory, maxCycles)
}

// RunScenario runs a named scenario from the library on every node, with
// per-node decorrelated seeds and each client's keyspace sharded across
// the other nodes of the cluster (see ShardRemote) — the cross-node
// object placement the single-node mirror emulation cannot express.
// Scenarios with a cluster-aware constructor (Scenario.NewCluster) shape
// their own cross-node traffic instead and skip the sharding wrap.
func (c *Cluster) RunScenario(sc Scenario, maxCycles int64) (ClusterWorkloadResult, error) {
	if sc.New == nil && sc.NewCluster == nil {
		return ClusterWorkloadResult{}, fmt.Errorf("rackni: scenario %q has no constructor", sc.Name)
	}
	n := c.NodeCount()
	return c.RunApp(func(nodeIdx, core int) App {
		cfg := *c.c.Cfg
		// Decorrelate the node's clients from its peers': without this,
		// every node would issue the identical stream (desirable for
		// mirror validation, not for scenario diversity).
		cfg.Seed = clusterNodeSeed(cfg.Seed, nodeIdx)
		if sc.NewCluster != nil {
			return sc.NewCluster(&cfg, nodeIdx, n, core)
		}
		app := sc.New(&cfg, core)
		if app == nil {
			return nil
		}
		return ShardRemote(app, nodeIdx, n)
	}, maxCycles)
}

func checkSize(cfg *Config, size int) error {
	switch {
	case size <= 0:
		return fmt.Errorf("rackni: non-positive transfer size %d", size)
	case size%cfg.BlockBytes != 0:
		return fmt.Errorf("rackni: transfer size %d is not a multiple of the %d-byte block size", size, cfg.BlockBytes)
	case size > node.LocalStride:
		return fmt.Errorf("rackni: transfer size %d exceeds the per-core local buffer (%d bytes)", size, node.LocalStride)
	}
	return nil
}
