package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// metricSpec names one reported metric. moves is printed beside it: what
// an end-to-end metric means, or which end-to-end metric, on which
// workload, a per-layer metric should move (README.md carries the same
// map).
type metricSpec struct {
	name, unit, better, moves string
}

// endToEndSpecs are the untraced run's metrics, medians across
// repetitions. ops_failed_frac is reported in the result line's failed
// and attempted fields and in the report, not as a metric: it is 0 on a
// correct run, and a relative bound on 0 is undefined.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", "host seconds building nodes and clusters (median of the repeated builds)"},
	{"wall_s", "s", "lower", "host seconds for the whole workload: build, run, checks and render"},
	{"sim_kcycles_per_s", "kcycles/s", "higher", "simulated kilocycles per host second inside the run calls"},
	{"cpu_s", "s", "lower", "user+system CPU seconds of the workload's process"},
	{"max_rss_mb", "MB", "lower", "peak resident memory of the workload's process"},
}

// profileLayers maps the traced run's CPU profile onto layers by Go
// package; samples in no listed package count only toward the total.
var profileLayers = []struct{ layer, pkg string }{
	{"sim", "rackni/internal/sim"},
	{"noc", "rackni/internal/noc"},
	{"nocout", "rackni/internal/nocout"},
	{"coherence", "rackni/internal/coherence"},
	{"cache", "rackni/internal/cache"},
	{"mem", "rackni/internal/mem"},
	{"core", "rackni/internal/core"},
	{"cpu", "rackni/internal/cpu"},
	{"fabric", "rackni/internal/fabric"},
	{"node", "rackni/internal/node"},
	{"place", "rackni/internal/place"},
	{"load", "rackni/internal/load"},
	{"stats", "rackni/internal/stats"},
	{"rackni", "rackni"},
	{"runtime", "runtime"},
}

// layerSpecs are the traced run's metrics.
var layerSpecs = func() []metricSpec {
	s := []metricSpec{
		{"sim.probe_ns_per_event", "ns", "lower", "sim_kcycles_per_s on chip-sweep, then rack-sparse"},
		{"sim.probe_allocs_per_event", "allocs", "lower", "sim_kcycles_per_s on chip-sweep, then rack-sparse"},
		{"noc.flits", "flits", "higher", "work count: sim_kcycles_per_s on chip-sweep"},
		{"noc.host_ns_per_flit", "ns", "lower", "sim_kcycles_per_s on chip-sweep; barely on rack-service"},
		{"noc.probe_ns_per_flit_hop", "ns", "lower", "sim_kcycles_per_s on chip-sweep"},
		{"nocout.flits", "flits", "higher", "work count: sim_kcycles_per_s on chip-sweep"},
		{"coherence.probe_ns_per_hit", "ns", "lower", "wall_s on rack-sparse (idle polls hit)"},
		{"coherence.probe_ns_per_miss", "ns", "lower", "sim_kcycles_per_s on chip-sweep"},
		{"core.completed", "count", "higher", "work count on every workload"},
		{"core.retries", "count", "lower", "sim_kcycles_per_s on rack-sparse"},
		{"core.failed", "count", "lower", "ops_failed_frac"},
		{"core.retry_ratio", "ratio", "lower", "wasted work: sim_kcycles_per_s on rack-sparse"},
		{"core.host_us_per_req", "us", "lower", "sim_kcycles_per_s on rack-sparse and rack-service"},
		{"cpu.issued", "count", "higher", "work count (AppDriver/Driver ledger)"},
		{"cpu.completed", "count", "higher", "work count (AppDriver/Driver ledger)"},
		{"cpu.failed", "count", "lower", "ops_failed_frac"},
		{"fabric.blocks", "count", "higher", "work count: sim_kcycles_per_s on rack-service"},
		{"fabric.drops", "count", "lower", "retry work on rack-sparse"},
		{"fabric.queued_cycles", "cycles", "lower", "simulated link queueing on rack-service"},
		{"fabric.blocked_cycles", "cycles", "lower", "simulated credit blocking on rack-service"},
		{"fabric.link_flits", "flits", "higher", "work count: sim_kcycles_per_s on rack-service"},
		{"fabric.peak_inflight", "count", "lower", "memory on rack-service and rack-sparse"},
		{"fabric.host_ns_per_block", "ns", "lower", "sim_kcycles_per_s on rack-service; slightly on rack-sparse"},
		{"node.build_s_per_node", "s", "lower", "setup_s on rack-sparse"},
		{"node.heap_mb_per_node", "MB", "lower", "max_rss_mb on rack-sparse"},
		{"node.shards", "count", "higher", "catches silent shard coercion (wall_s on rack-sparse)"},
		{"node.parallel_eff", "ratio", "higher", "wall_s on rack-sparse (time shards wait at the barrier)"},
		{"load.probe_ns_per_arrival", "ns", "lower", "sim_kcycles_per_s on rack-service"},
		{"stats.probe_ns_per_add", "ns", "lower", "sim_kcycles_per_s on rack-service"},
		{"rackni.render_s", "s", "lower", "wall_s on chip-sweep"},
		{"rackni.hedge_win_ratio", "ratio", "higher", "useful hedges per hedge on rack-service"},
		{"runtime.gc_cpu_s", "s", "lower", "cpu_s and wall_s on every workload, most on rack-sparse"},
		{"runtime.gc_cycles", "count", "lower", "cpu_s and wall_s on every workload, most on rack-sparse"},
		{"runtime.alloc_mb", "MB", "lower", "cpu_s and wall_s on every workload, most on rack-sparse"},
		{"runtime.heap_peak_mb", "MB", "lower", "max_rss_mb on every workload, most on rack-sparse"},
	}
	for _, l := range profileLayers {
		s = append(s, metricSpec{l.layer + ".cpu_share", "share", "lower", "the layer's self CPU in the traced run's profile"})
	}
	return append(s, metricSpec{"trace.overhead_s", "s", "lower", "traced wall_s minus untraced wall_s"})
}()

// unavailable lists the per-layer metrics a workload cannot reach from
// outside the program, with the reason; they report 0 there.
func unavailable(workload string) []string {
	out := []string{
		"mem.reads, mem.writes (all workloads): node.Node does not keep its mem.MC values, only their Reset funcs, so MC.Reads/Writes cannot be read without a program change; not listed in BENCHMARK.json",
	}
	switch workload {
	case "chip-sweep":
		out = append(out,
			"fabric.drops, fabric.queued_cycles, fabric.blocked_cycles, fabric.link_flits, fabric.peak_inflight (chip-sweep): the single-node fabric.Rack emulation has no faults, links or transfer table",
			"node.heap_mb_per_node, node.parallel_eff, rackni.hedge_win_ratio (chip-sweep): one unsharded node per point, no service plane")
	case "rack-sparse":
		out = append(out,
			"fabric.queued_cycles, fabric.blocked_cycles, fabric.link_flits (rack-sparse): lump-sum fabric, no links",
			"nocout.flits, rackni.render_s, rackni.hedge_win_ratio (rack-sparse): mesh chips, no renderer or service plane on this path")
	case "rack-service":
		out = append(out,
			"noc.flits, noc.host_ns_per_flit, nocout.flits, cpu.issued, cpu.completed, cpu.failed (rack-service): rackni.Cluster does not expose its nodes, so mesh counters and AppDriver ledgers are out of reach (the service audit uses ServiceResult arrivals instead)")
	}
	return out
}

// layerMetrics reduces traced repetitions to the per-layer metrics:
// medians across traced repetitions, CPU shares from their profiles (one
// map per traced repetition), and the tracing overhead against the
// untraced repetitions.
func layerMetrics(plain, traced []childResult, shares []map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, spec := range layerSpecs {
		v := make([]float64, len(traced))
		for i, t := range traced {
			v[i] = t.rec.Layers[spec.name]
			if l, ok := strings.CutSuffix(spec.name, ".cpu_share"); ok {
				v[i] = shares[i][l]
			}
		}
		out[spec.name] = metric{median(v), spec.unit}
	}
	wall := func(rs []childResult) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = r.rec.WallS
		}
		return median(v)
	}
	out["trace.overhead_s"] = metric{wall(traced) - wall(plain), "s"}
	return out
}

// profileShares aggregates a CPU profile's flat (self) time by layer,
// using the toolchain's pprof: each layer's share of all samples.
func profileShares(path string) (map[string]float64, error) {
	if path == "" {
		return nil, fmt.Errorf("no CPU profile")
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", path)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	byLayer := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		total += ms
		if l := layerOf(strings.Join(f[5:], " ")); l != "" {
			byLayer[l] += ms
		}
	}
	if total == 0 {
		return byLayer, nil
	}
	for l := range byLayer {
		byLayer[l] /= total
	}
	return byLayer, nil
}

// layerOf maps a profiled function name to its layer, or "".
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	// Go's runtime spans runtime/... and internal/runtime/... packages.
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	for _, l := range profileLayers {
		if pkg == l.pkg {
			return l.layer
		}
	}
	return ""
}
