// Command racksim runs arbitrary design-space sweeps and prints structured
// results — the tool for exploring the space beyond the paper's figures.
// Every axis flag accepts a comma-separated list; the cross product of all
// axes is executed (in parallel with -parallel), and a single latency point
// additionally prints its full latency tomography.
//
// Examples:
//
//	racksim -design split -size 64 -mode latency -hops 3
//	racksim -design edge -size 8192 -mode bandwidth -routing xy
//	racksim -design edge,pertile,split -size 64,1024,16384 -parallel 8
//	racksim -routing xy,cdrni -mode bandwidth -size 4096 -csv
//	racksim -design split -topology mesh,nocout -size 2048 -json
//	racksim -workload kv,pointerchase -design edge,split -quick
//	racksim -workload kv -quick    # single point: per-core p50/p95/p99 table
//	racksim -nodes 2 -workload kv -quick   # real 2-node cluster, cross-node sharded KV
//	racksim -nodes 1,2,4 -mode bandwidth -size 4096 -quick
//	racksim -nodes 512 -placement identity -mode bandwidth -size 1024 -quick -timeout 10m   # the paper's full rack
//	racksim -nodes 64 -workload kv -placement clustered,scattered -fabricrouting dor -quick  # placement comparison
//	racksim -nodes 8 -workload kv -drop 0.01 -quick       # 1% fabric drops, recovered by retry
//	racksim -nodes 4 -mode bandwidth -size 4096 -window 1,4,16,0 -quick   # credit-window overload sweep
//	racksim -nodes 16 -workload incast -fabricrouting dor,adaptive -quick  # link-level congestion, routing comparison
//	racksim -nodes 8 -arrival poisson -rate 1,4 -hedge 0,1000 -quick       # open-loop KV service, hedging off/on
//	racksim -nodes 64 -workload kv -shards 4 -quick        # same results as -shards 1, on 4 parallel engines
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"rackni"
)

func main() {
	design := flag.String("design", "split", "NI design(s): edge|pertile|split, comma-separated")
	topo := flag.String("topology", "mesh", "on-chip topology(s): mesh|nocout, comma-separated")
	routing := flag.String("routing", "cdrni", "mesh routing(s): xy|yx|o1turn|cdr|cdrni, comma-separated")
	mode := flag.String("mode", "latency", "microbenchmark(s): latency|bandwidth, comma-separated")
	workload := flag.String("workload", "", "closed-loop scenario(s): "+strings.Join(rackni.Scenarios(), "|")+", comma-separated (replaces -mode unless both are given)")
	size := flag.String("size", "64", "transfer size(s) in bytes, comma-separated (microbenchmark modes; -workload scenarios define their own sizes)")
	hops := flag.String("hops", "1", "one-way intra-rack hop count(s), comma-separated")
	nodes := flag.String("nodes", "1", "detailed node count(s), comma-separated, up to 512: 1 = emulated rack, n>1 = real n-node cluster (cross-node traffic over the torus hop model)")
	placement := flag.String("placement", "uniform", "multi-node placement policy/policies, comma-separated: uniform (every pair -hops apart) | identity | clustered | scattered | random:<seed> (real 3D-torus coordinates, the paper's 8x8x8 rack geometry; -nodes 512 covers the full rack; torus is another spelling of identity)")
	core := flag.String("core", "27", "issuing core(s) (latency mode; -workload scenarios define their own cores), comma-separated")
	seed := flag.String("seed", "1", "simulation seed(s), comma-separated")
	drop := flag.String("drop", "0", "fabric drop rate(s) in [0,1), comma-separated; > 0 needs -nodes > 1 and arms the request timeout so drops recover by retry")
	window := flag.String("window", "0", "QP credit window(s), comma-separated; 0 = uncapped (WQ-depth bound only)")
	fabricRouting := flag.String("fabricrouting", "off", "inter-node fabric routing(s): off|dor|adaptive, comma-separated; dor/adaptive route hop-by-hop through per-link credit queues (congestion model, needs -nodes > 1)")
	arrival := flag.String("arrival", "", "open-loop arrival process(es): poisson|bursty|diurnal, comma-separated; runs the replicated KV service instead of closed-loop scenarios")
	rate := flag.String("rate", "1", "offered load(s) in requests per 1000 cycles per client, comma-separated (service points only)")
	hedge := flag.String("hedge", "0", "hedged-request delay(s) in cycles, comma-separated; 0 = hedging off (service points only)")
	shardsFlag := flag.String("shards", "1", "engine shard count(s) per cluster point, comma-separated; k > 1 runs a multi-node workload/service point on k parallel engines with bit-identical results (pure wall-clock knob; congestion-routed points stay on 1 engine)")
	quick := flag.Bool("quick", false, "short stabilization windows")
	parallel := flag.Int("parallel", 1, "sweep-point workers (1 = serial, capped at the machine's core count; table/CSV output is identical, JSON wall_ms timing varies)")
	jsonOut := flag.Bool("json", false, "emit JSON results")
	csvOut := flag.Bool("csv", false, "emit CSV results")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	progress := flag.Bool("progress", false, "report per-point completion on stderr")
	flag.Parse()

	cfg := rackni.DefaultConfig()
	if *quick {
		cfg = rackni.QuickConfig()
	}

	designs, err := rackni.ParseDesigns(*design)
	if err != nil {
		fatalf("%v", err)
	}
	topos, err := rackni.ParseTopologies(*topo)
	if err != nil {
		fatalf("%v", err)
	}
	routings, err := rackni.ParseRoutings(*routing)
	if err != nil {
		fatalf("%v", err)
	}
	// -workload and -arrival replace the default latency microbenchmark;
	// passing -mode explicitly alongside them runs both kinds of points.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	modeSet := explicit["mode"]
	if *workload != "" && !modeSet {
		// Scenario points take their sizes and participating cores from the
		// library, not these axes; only microbenchmark points use them.
		// Warn rather than silently ignore.
		for _, name := range []string{"size", "core"} {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "racksim: note: -%s applies to microbenchmark modes only; -workload scenarios define their own\n", name)
			}
		}
	}
	var modes []rackni.Mode
	if (*workload == "" && *arrival == "") || modeSet {
		modes, err = rackni.ParseModes(*mode)
		if err != nil {
			fatalf("%v", err)
		}
	}
	var scenarios []string
	if *workload != "" {
		scenarios, err = rackni.ParseScenarios(*workload)
		if err != nil {
			fatalf("%v", err)
		}
	}
	sizes, err := rackni.ParseSizes(*size)
	if err != nil {
		fatalf("%v", err)
	}
	hopList, err := rackni.ParseHops(*hops)
	if err != nil {
		fatalf("%v", err)
	}
	nodeList, err := rackni.ParseNodeCounts(*nodes)
	if err != nil {
		fatalf("%v", err)
	}
	cores, err := rackni.ParseCores(*core)
	if err != nil {
		fatalf("%v", err)
	}
	seeds, err := rackni.ParseSeeds(*seed)
	if err != nil {
		fatalf("%v", err)
	}
	drops, err := rackni.ParseDropRates(*drop)
	if err != nil {
		fatalf("%v", err)
	}
	windows, err := rackni.ParseWindows(*window)
	if err != nil {
		fatalf("%v", err)
	}
	fabricRoutings, err := rackni.ParseFabricRoutings(*fabricRouting)
	if err != nil {
		fatalf("%v", err)
	}
	shardList, err := rackni.ParseShards(*shardsFlag)
	if err != nil {
		fatalf("%v", err)
	}
	// -arrival adds open-loop service points: the cross product of arrival
	// kinds and rates, each run at every -hedge delay.
	var arrivals []rackni.ArrivalSpec
	var hedges []int64
	if *arrival != "" {
		kinds, err := rackni.ParseArrivalKinds(*arrival)
		if err != nil {
			fatalf("%v", err)
		}
		rates, err := rackni.ParseRates(*rate)
		if err != nil {
			fatalf("%v", err)
		}
		for _, k := range kinds {
			for _, r := range rates {
				arrivals = append(arrivals, rackni.ArrivalSpec{Kind: k, Rate: r})
			}
		}
		hedges, err = rackni.ParseHedges(*hedge)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, name := range []string{"rate", "hedge"} {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "racksim: note: -%s applies to service points only; pass -arrival to run them\n", name)
			}
		}
	}

	placements, err := rackni.ParsePlacements(*placement)
	if err != nil {
		fatalf("%v", err)
	}

	points := rackni.NewSweep(cfg).
		Designs(designs...).
		Topologies(topos...).
		Routings(routings...).
		Modes(modes...).
		Workloads(scenarios...).
		Sizes(sizes...).
		Hops(hopList...).
		Nodes(nodeList...).
		Placements(placements...).
		Faults(drops...).
		Windows(windows...).
		FabricRoutings(fabricRoutings...).
		Arrivals(arrivals...).
		Hedges(hedges...).
		Shards(shardList...).
		Seeds(seeds...).
		Cores(cores...).
		Points()

	// Reject bad axis combinations (torus capacity, faults without a
	// cluster, out-of-range cores and sizes, ...) before any point burns
	// simulation time.
	if err := rackni.CheckSweepPoints(points); err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := rackni.Options{Parallel: *parallel, Context: ctx}
	if *progress {
		opts.Progress = func(done, total int, r rackni.Result) {
			fmt.Fprintf(os.Stderr, "racksim: %d/%d points done (last took %.1fs)\n",
				done, total, r.Wall.Seconds())
		}
	}

	t0 := time.Now()
	results, err := rackni.NewRunner(opts).Run(points)
	if err != nil {
		// A point failure takes precedence: a deadline expiring while a
		// genuine error unwinds must not masquerade as a timeout.
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			fatalf("aborted (%v) after %.1fs; partial results discarded", ctx.Err(), time.Since(t0).Seconds())
		}
		fatalf("%v", err)
	}

	switch {
	case *jsonOut:
		blob, err := results.JSON()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s\n", blob)
	case *csvOut:
		fmt.Print(results.CSV())
	case len(results) == 1 && results[0].Sync != nil:
		// Single latency point: keep the detailed tomography output.
		r := results[0]
		b := r.Sync.Breakdown
		fmt.Printf("%v %v %dB @%d hop(s)%s: %.0f cycles (%.0f ns)\n",
			r.Point.Config.Design, r.Point.Config.Topology, r.Point.Size,
			r.Point.Hops, nodesSuffix(r.Point.Nodes), r.Sync.MeanCycles, r.Sync.MeanNS)
		fmt.Printf("  WQ write %.0f | WQ read %.0f | dispatch %.0f | generate %.0f\n",
			b.WQWrite, b.WQRead, b.Dispatch, b.Generate)
		fmt.Printf("  net out %.0f | remote %.0f | net back %.0f\n", b.NetOut, b.Remote, b.NetBack)
		fmt.Printf("  complete %.0f | CQ write %.0f | CQ read %.0f\n", b.Complete, b.CQWrite, b.CQRead)
	case len(results) == 1 && results[0].WL != nil:
		// Single workload point: add the per-core breakdown.
		r := results[0]
		wl := r.WL
		fmt.Printf("%v %v %s @%d hop(s)%s: %d ops in %d cycles, mean %.0f cyc, p50/p95/p99 %d/%d/%d cyc, drained=%v\n",
			r.Point.Config.Design, r.Point.Config.Topology, r.Point.Scenario,
			r.Point.Hops, nodesSuffix(r.Point.Nodes), wl.Completed, wl.Cycles, wl.MeanLatency,
			wl.P50, wl.P95, wl.P99, wl.AllExhausted)
		fmt.Printf("  %4s %9s %9s %10s %8s %8s %8s\n",
			"core", "issued", "done", "mean(cyc)", "p50", "p95", "p99")
		for _, c := range wl.PerCore {
			fmt.Printf("  %4d %9d %9d %10.0f %8d %8d %8d\n",
				c.Core, c.Issued, c.Completed, c.MeanLatency, c.P50, c.P95, c.P99)
		}
	case len(results) == 1 && results[0].SVC != nil:
		// Single service point: the full tail-at-scale breakdown.
		r := results[0]
		fmt.Printf("%v %v %s hedge=%d%s:\n%s",
			r.Point.Config.Design, r.Point.Config.Topology, r.Point.Arrival,
			r.Point.Hedge, nodesSuffix(r.Point.Nodes), r.SVC.Format())
	case len(results) == 1 && results[0].BW != nil:
		// Single bandwidth point: keep the detailed single-run output.
		r := results[0]
		bw := r.BW
		fmt.Printf("%v %v %dB async x%d cores%s: app %.1f GB/s (NOC agg %.1f, bisection %.1f), stable=%v, %d requests in %d cycles\n",
			r.Point.Config.Design, r.Point.Config.Topology, r.Point.Size,
			r.Point.Config.Tiles(), nodesSuffix(r.Point.Nodes), bw.AppGBps, bw.NOCGBps,
			bw.BisectionGBps, bw.Stable, bw.Completed, bw.Cycles)
	default:
		fmt.Print(results.Format())
	}
}

// nodesSuffix labels multi-node (cluster) points in single-point output.
func nodesSuffix(n int) string {
	if n > 1 {
		return fmt.Sprintf(" x%d nodes", n)
	}
	return ""
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "racksim: "+format+"\n", args...)
	os.Exit(1)
}
