package rackni

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// renderPoint is a hand-built point on the quick chip with the given
// design, mode and size; callers set the optional axes.
func renderPoint(d Design, m Mode, size int) Point {
	cfg := QuickConfig()
	cfg.Design = d
	return Point{Config: cfg, Mode: m, Size: size, Hops: 1, Core: 27}
}

// renderBaseRows is one row of every outcome kind with no optional axis:
// sync, bandwidth, workload, skipped and a failed point whose message
// carries a quote and a comma (the CSV quoting path).
func renderBaseRows() Results {
	wl := renderPoint(NIPerTile, WorkloadMode, 0)
	wl.Scenario, wl.Core = "kv", 0
	bw := renderPoint(NIEdge, Bandwidth, 4096)
	bw.Config.Topology, bw.Hops = NOCOut, 3
	bad := renderPoint(NISplit, Latency, 63)
	bad.Config.Seed = 9
	return Results{
		{Point: renderPoint(NISplit, Latency, 64), Wall: 3 * time.Millisecond,
			Sync: &SyncResult{MeanCycles: 458.25, MeanNS: 229.125, Breakdown: Breakdown{
				WQWrite: 16, WQRead: 4, Dispatch: 23, Generate: 5, NetOut: 70, Remote: 210,
				NetBack: 70, Complete: 4, CQWrite: 30, CQRead: 15, Total: 447, RRPPLat: 208, Samples: 8}}},
		{Point: bw, Wall: 5 * time.Millisecond,
			BW: &BWResult{AppGBps: 151.25, NOCGBps: 203.5, FlitHopGBps: 611.125, BisectionGBps: 48.75,
				Cycles: 120_000, Stable: true, Completed: 4321}},
		{Point: wl, Wall: 7 * time.Millisecond,
			WL: &WorkloadResult{Completed: 2048, Cycles: 90_000, MeanLatency: 612.5, P50: 560, P95: 880,
				P99: 1024, AppBytes: 131072, Retries: 3, Failed: 1, AllExhausted: true}},
		{Point: renderPoint(NIEdge, Bandwidth, 64)},
		{Point: bad, Err: errors.New(`rackni: size 63 is not "block-aligned", want a multiple of 64`)},
	}
}

// renderSvc is a service outcome with every field distinct.
func renderSvc(nodes int) *ServiceResult {
	return &ServiceResult{Nodes: nodes, Clients: 4, Arrivals: 5000, Completed: 4990, Failed: 2,
		Hedged: 37, HedgeWins: 11, Cancelled: 35, Offered: 2.5, Goodput: 2.4875, MeanE2E: 901.25,
		P50: 800, P99: 2400, P999: 5200, MeanQueue: 12.5, QueueP99: 96, NodeP99Max: 3100,
		SlowDecileP999: 6100, Cycles: 2_000_000, Drained: true}
}

// renderCases is one result set per optional axis group on its own (each
// on single-node points, so no other column appears; the rejected ones
// carry the error a real run would) plus one with all six groups.
func renderCases() []struct {
	name string
	rs   Results
} {
	with := func(extra ...Result) Results { return append(renderBaseRows(), extra...) }
	p := func(d Design, m Mode, size int, set func(*Point)) Point {
		pt := renderPoint(d, m, size)
		set(&pt)
		return pt
	}
	wlOK := &WorkloadResult{Completed: 512, Cycles: 40_000, MeanLatency: 700.75, P50: 640, P95: 1200,
		P99: 1600, Retries: 14, Failed: 0, AllExhausted: true}
	return []struct {
		name string
		rs   Results
	}{
		{"base", renderBaseRows()},
		{"nodes", with(
			Result{Point: p(NISplit, Latency, 64, func(q *Point) { q.Nodes = 4 }),
				Sync: &SyncResult{MeanCycles: 470, MeanNS: 235}},
			Result{Point: p(NIEdge, WorkloadMode, 0, func(q *Point) { q.Nodes, q.Scenario, q.Core = 16, "pointerchase", 0 }),
				WL: wlOK},
			Result{Point: p(NISplit, Latency, 64, func(q *Point) { q.Nodes = 5000 }),
				Err: errors.New("rackni: 5000 nodes exceeds the 4096-node addressing limit")},
		)},
		{"placement", with(
			Result{Point: p(NISplit, Latency, 64, func(q *Point) { q.Nodes, q.Placement = 1, PlaceClustered }),
				Err: errors.New("rackni: the clustered placement requires a multi-node point (-nodes > 1)")},
		)},
		{"shards", with(
			Result{Point: p(NISplit, WorkloadMode, 0, func(q *Point) { q.Scenario, q.Core, q.Shards = "kv", 0, 4 }),
				Err: errors.New("rackni: 4 engine shards require a multi-node point (-nodes > 1)")},
		)},
		{"faults", with(
			Result{Point: p(NISplit, WorkloadMode, 0, func(q *Point) { q.Scenario, q.Core, q.Window = "kv", 0, 4 }),
				WL: wlOK},
			Result{Point: p(NISplit, Latency, 64, func(q *Point) { q.Faults = 0.01 }),
				Err: errors.New("rackni: fault injection (drop rate 0.01) requires a multi-node point (-nodes > 1)")},
		)},
		{"fabric", with(
			Result{Point: p(NISplit, Latency, 64, func(q *Point) { q.FabricRouting = RouteDOR }),
				Err: errors.New("rackni: fabric routing dor requires a multi-node point (-nodes > 1)")},
		)},
		{"service", with(
			Result{Point: p(NISplit, ServiceMode, 0, func(q *Point) {
				q.Core, q.Nodes, q.Arrival, q.Hedge = 0, 1, ArrivalSpec{Kind: "poisson", Rate: 0.5}, 1200
			}), SVC: renderSvc(1)},
			Result{Point: p(NISplit, ServiceMode, 0, func(q *Point) {
				q.Core, q.Arrival = 0, ArrivalSpec{Kind: "bursty", Rate: 2}
			}), Err: errors.New(`rackni: service "bursty" failed, 3 requests lost`)},
		)},
		{"all", with(
			Result{Point: p(NISplit, ServiceMode, 0, func(q *Point) {
				q.Core, q.Nodes, q.Placement, q.Shards = 0, 8, PlaceClustered, 2
				q.Faults, q.Window, q.FabricRouting = 0.001, 8, RouteAdaptive
				q.Arrival, q.Hedge = ArrivalSpec{Kind: "diurnal", Rate: 1}, 2000
			}), SVC: renderSvc(8)},
			Result{Point: p(NIEdge, WorkloadMode, 0, func(q *Point) {
				q.Scenario, q.Core, q.Nodes, q.Placement, q.Shards = "kv", 0, 64, PlaceRandom(7), 4
				q.Faults, q.Window, q.FabricRouting = 0.01, 4, RouteDOR
			}), WL: wlOK},
			Result{Point: p(NISplit, Latency, 64, func(q *Point) { q.Nodes, q.Placement = 2, PlaceIdentity }),
				Sync: &SyncResult{MeanCycles: 512.5, MeanNS: 256.25}},
			Result{Point: p(NISplit, Latency, 64, func(q *Point) { q.Placement = PlaceScattered }),
				Err: errors.New("rackni: the scattered placement requires a multi-node point (-nodes > 1)")},
			Result{Point: p(NIPerTile, Bandwidth, 1024, func(q *Point) { q.Nodes = 4 }),
				BW: &BWResult{AppGBps: 88.5, NOCGBps: 120.25, BisectionGBps: 30.5, Stable: false}},
			Result{Point: p(NISplit, ServiceMode, 0, func(q *Point) {
				q.Core, q.Nodes, q.Placement = 0, 8, PlaceIdentity
				q.Arrival = ArrivalSpec{Kind: "poisson", Rate: 0.25}
			})},
		)},
	}
}

// renderAll renders a result set through every renderer, sectioned.
func renderAll(t *testing.T, rs Results) string {
	t.Helper()
	blob, err := rs.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var labels strings.Builder
	for _, r := range rs {
		labels.WriteString(r.Point.label() + "\n")
	}
	return fmt.Sprintf("== Format ==\n%s== CSV ==\n%s== JSON ==\n%s\n== labels ==\n%s",
		rs.Format(), rs.CSV(), stripWall(blob), labels.String())
}

// TestRenderersGolden pins Format, CSV, JSON (wall_ms stripped) and every
// point's label byte for byte, on hand-built result sets covering each
// optional axis group alone and all six together. It includes the quirks
// of today's output, such as a rejected single-node point with a
// placement: Format and CSV show the policy, JSON and the label omit it.
func TestRenderersGolden(t *testing.T) {
	for _, c := range renderCases() {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "render", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := renderAll(t, c.rs); got != string(want) {
				t.Fatalf("rendered output drifted from testdata/render/%s.golden:\ngot:\n%s", c.name, got)
			}
		})
	}
}
