package rackni

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// wallMS matches the per-point wall-clock field, the one JSON field that
// legitimately differs between byte-identical runs.
var wallMS = regexp.MustCompile(`"wall_ms": [0-9.]+`)

func stripWall(blob []byte) string { return wallMS.ReplaceAllString(string(blob), `"wall_ms": 0`) }

// TestPlacementAxisRenderers: the placement column appears exactly when a
// result set contains a named placement point, keeping placement-free
// output byte-identical to its pre-placement form — including sweeps that
// spell out the zero policy explicitly.
func TestPlacementAxisRenderers(t *testing.T) {
	cfg := quickClusterCfg()
	plain, err := NewSweep(cfg).Designs(NISplit).Modes(Latency).Sizes(64).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{plain.Format(), plain.CSV()} {
		if strings.Contains(out, "placement") {
			t.Fatalf("placement-free result set grew a placement column:\n%s", out)
		}
	}
	blob, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), `"placement"`) {
		t.Fatalf("placement-free JSON carries a placement field:\n%s", blob)
	}

	// Spelling out the zero policy is a no-op, byte for byte.
	zero, err := NewSweep(cfg).Designs(NISplit).Modes(Latency).Sizes(64).
		Placements(PlacementPolicy{}).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	zeroJSON, err := zero.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if zero.Format() != plain.Format() || zero.CSV() != plain.CSV() || stripWall(zeroJSON) != stripWall(blob) {
		t.Fatalf("explicit zero placement changed output:\n%s\nvs\n%s", zero.Format(), plain.Format())
	}

	placed, err := NewSweep(quickClusterCfg()).Designs(NISplit).Modes(Latency).Sizes(64).
		Nodes(8).Placements(PlaceClustered).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(placed.Format(), "placement") || !strings.Contains(placed.Format(), "clustered") {
		t.Fatalf("placed result set missing its column:\n%s", placed.Format())
	}
	if !strings.Contains(placed.CSV(), "placement,") || !strings.Contains(placed.CSV(), "clustered") {
		t.Fatalf("placed CSV missing its column:\n%s", placed.CSV())
	}
	blob, err = placed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"placement": "clustered"`) {
		t.Fatalf("placed JSON missing the policy:\n%s", blob)
	}
}

// TestPlacementSweepChecks: bad placement-axis combinations are rejected
// up front, named by point.
func TestPlacementSweepChecks(t *testing.T) {
	cfg := quickClusterCfg()
	single := NewSweep(cfg).Designs(NISplit).Modes(Latency).Sizes(64).
		Placements(PlaceClustered).Points()
	err := CheckSweepPoints(single)
	if err == nil || !strings.Contains(err.Error(), "point 0") ||
		!strings.Contains(err.Error(), "multi-node") {
		t.Fatalf("single-node placed point not rejected: %v", err)
	}
	small := cfg
	small.TorusRadix = 2 // 8-node torus
	overflow := NewSweep(small).Designs(NISplit).Modes(Latency).Sizes(64).
		Nodes(9).Placements(PlaceScattered).Points()
	if err := CheckSweepPoints(overflow); err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("over-capacity placed point not rejected: %v", err)
	}
	unknown := NewSweep(cfg).Designs(NISplit).Modes(Latency).Sizes(64).
		Nodes(2).Placements(PlacementPolicy{Kind: 99}).Points()
	if err := CheckSweepPoints(unknown); err == nil || !strings.Contains(err.Error(), "no torus coordinates") {
		t.Fatalf("unknown placement kind not rejected: %v", err)
	}
}

// TestParsePlacements: the flag grammar — canonical names, the deprecated
// torus alias, the uniform zero policy, seeded random — and its rejects.
func TestParsePlacements(t *testing.T) {
	got, err := ParsePlacements("uniform,identity,torus,clustered,scattered,random,random:7")
	if err != nil {
		t.Fatal(err)
	}
	want := []PlacementPolicy{{}, PlaceIdentity, PlaceIdentity, PlaceClustered, PlaceScattered,
		PlaceRandom(1), PlaceRandom(7)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParsePlacements = %v, want %v", got, want)
	}
	for _, bad := range []string{"torusx", "random:x", "clustered3"} {
		if _, err := ParsePlacement(bad); err == nil {
			t.Errorf("ParsePlacement(%q) accepted", bad)
		}
	}
}

// TestPlacementSweepParallelMatchesSerial: placed congested points are
// independent simulations like any other, so a sweep spanning the
// Placements axis must produce byte-identical Results serially and on a
// worker pool. Wired into the CI race job.
func TestPlacementSweepParallelMatchesSerial(t *testing.T) {
	sweep := NewSweep(serviceTestCfg()).
		Designs(NISplit).
		Modes(Latency).
		Sizes(64).
		Cores(5). // the study chip is a 4x2 mesh; the default core 27 is a full-chip tile
		Nodes(4).
		Placements(PlaceClustered, PlaceScattered).
		FabricRoutings(RouteDOR)
	serial, err := sweep.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep.Run(Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 2 || len(par) != 2 {
		t.Fatalf("point counts: serial %d, parallel %d, want 2", len(serial), len(par))
	}
	if serial.Format() != par.Format() || serial.CSV() != par.CSV() {
		t.Fatalf("parallel placed sweep diverged:\nserial:\n%s\nparallel:\n%s",
			serial.Format(), par.Format())
	}
	// The axis did something: the two placements report different latency.
	if serial[0].Sync != nil && serial[1].Sync != nil &&
		serial[0].Sync.MeanCycles == serial[1].Sync.MeanCycles {
		t.Errorf("clustered and scattered produced identical mean latency %.0f — placement axis inert",
			serial[0].Sync.MeanCycles)
	}
}

// TestServicePlacementReplicaSets: on a placed cluster the service plane
// re-derives replica sets from fabric distance — each partition's set is
// led by its home node, members are distinct, and distances are
// nondecreasing within a set and never worse than the legacy consecutive
// mapping.
func TestServicePlacementReplicaSets(t *testing.T) {
	cfg := serviceTestCfg()
	c, err := NewClusterSpec(cfg, ClusterSpec{Nodes: 16, Place: PlaceIdentity})
	if err != nil {
		t.Fatal(err)
	}
	const r = 3
	sets := nearestReplicaSets(c.Interconnect(), 16, r)
	// Identity places nodes 0..15 along two x-rows of the radix-8 torus:
	// node 0's nearest peers are its ring neighbors 1 and 7.
	if want := []int{0, 1, 7}; !reflect.DeepEqual(sets[0], want) {
		t.Fatalf("sets[0] = %v, want %v", sets[0], want)
	}
	for p, set := range sets {
		if len(set) != r || set[0] != p {
			t.Fatalf("partition %d: set %v must have %d members led by %d", p, set, r, p)
		}
		seen := map[int]bool{}
		legacy, nearest := 0, 0
		for k, n := range set {
			if seen[n] {
				t.Fatalf("partition %d: duplicate replica %d in %v", p, n, set)
			}
			seen[n] = true
			if k > 0 && c.Interconnect().Dist(p, n) < c.Interconnect().Dist(p, set[k-1]) {
				t.Fatalf("partition %d: set %v not sorted by distance", p, set)
			}
			nearest += c.Interconnect().Dist(p, n)
			legacy += c.Interconnect().Dist(p, (p+k)%16)
		}
		if nearest > legacy {
			t.Fatalf("partition %d: nearest set %v costs %d hops, consecutive costs %d", p, set, nearest, legacy)
		}
	}
}

// TestServicePlacedSessionReuse: a service run on a reused placed cluster
// is bit-identical to the same run on a fresh one — the placement-aware
// replica sets are rebuilt deterministically per run.
func TestServicePlacedSessionReuse(t *testing.T) {
	cfg := serviceTestCfg()
	spec := ServiceSpec{Arrival: ArrivalSpec{Kind: "poisson", Rate: 2}, Hedge: 1200}
	build := func() *Cluster {
		c, err := NewClusterSpec(cfg, ClusterSpec{Nodes: 8, Place: PlaceScattered})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	reused := build()
	first, err := reused.RunService(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := reused.RunService(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("reused placed cluster diverged:\nfirst: %+v\nagain: %+v", first, again)
	}
	ref, err := build().RunService(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, ref) {
		t.Fatalf("reused placed cluster differs from fresh:\nreused: %+v\nfresh: %+v", first, ref)
	}
	if !first.Drained || first.Completed != first.Arrivals {
		t.Fatalf("placed service run incomplete: %+v", first)
	}
}
