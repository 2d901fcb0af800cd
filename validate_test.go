package rackni

import (
	"math"
	"strings"
	"testing"

	"rackni/internal/place"
)

// TestNonFiniteInputsRejected: NaN and infinite drop and arrival rates are
// refused by the parsers and by CheckSweepPoints, with the bad value named,
// instead of running a point that silently ignores them.
func TestNonFiniteInputsRejected(t *testing.T) {
	for _, c := range []struct {
		name  string
		parse func(string) ([]float64, error)
		in    string
		bad   string
	}{
		{"drop NaN", ParseDropRates, "NaN", "NaN"},
		{"drop nan in a list", ParseDropRates, "0.01,nan", "nan"},
		{"drop Inf", ParseDropRates, "Inf", "Inf"},
		{"drop -Inf", ParseDropRates, "-Inf", "-Inf"},
		{"rate NaN", ParseRates, "NaN", "NaN"},
		{"rate Inf in a list", ParseRates, "0.5,Inf", "Inf"},
		{"rate +Inf", ParseRates, "+Inf", "+Inf"},
		{"rate -Inf", ParseRates, "-Inf", "-Inf"},
	} {
		if v, err := c.parse(c.in); err == nil {
			t.Errorf("%s: %q accepted as %v", c.name, c.in, v)
		} else if !strings.Contains(err.Error(), `"`+c.bad+`"`) {
			t.Errorf("%s: error does not name %q: %v", c.name, c.bad, err)
		}
	}

	kv := func(faults float64) Point {
		return Point{Config: QuickConfig(), Mode: WorkloadMode, Scenario: "kv", Hops: 1, Nodes: 2, Faults: faults}
	}
	svc := func(rate float64) Point {
		return Point{Config: QuickConfig(), Mode: ServiceMode, Hops: 1, Nodes: 2,
			Arrival: ArrivalSpec{Kind: "poisson", Rate: rate}}
	}
	for _, c := range []struct {
		name string
		p    Point
		bad  string
	}{
		{"faults NaN", kv(math.NaN()), "drop rate NaN"},
		{"faults +Inf", kv(math.Inf(1)), "drop rate +Inf"},
		{"faults -Inf", kv(math.Inf(-1)), "drop rate -Inf"},
		{"rate NaN", svc(math.NaN()), "arrival rate NaN"},
		{"rate +Inf", svc(math.Inf(1)), "arrival rate +Inf"},
		{"rate -Inf", svc(math.Inf(-1)), "arrival rate -Inf"},
	} {
		err := CheckSweepPoints([]Point{c.p})
		if err == nil {
			t.Errorf("%s: point accepted", c.name)
		} else if !strings.Contains(err.Error(), "point 0") || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("%s: error does not name point 0 and %q: %v", c.name, c.bad, err)
		}
	}
	if err := CheckSweepPoints(NewSweep(QuickConfig()).Workloads("kv").Nodes(2).Faults(math.NaN()).Points()); err == nil {
		t.Error("Sweep.Faults(NaN) point accepted")
	}
}

// FuzzParsePlacement: ParsePlacement never panics, and any spelling it
// accepts round-trips through String back to the same policy.
func FuzzParsePlacement(f *testing.F) {
	for _, s := range []string{"uniform", "none", "torus", "identity", " Clustered ", "scattered",
		"random", "random:7", "random:18446744073709551615", "random:", "random:-1", "", "Kind(9)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlacement(s)
		if err != nil {
			return
		}
		back, err := ParsePlacement(p.String())
		if err != nil || back != p {
			t.Fatalf("ParsePlacement(%q) = %v, but its String %q parses to %v, %v", s, p, p.String(), back, err)
		}
	})
}

// FuzzCheckSweepPoint: CheckSweepPoints never panics on a quick-chip
// point with small fuzzed axis values, and every rejection names the
// point.
func FuzzCheckSweepPoint(f *testing.F) {
	f.Add(int8(2), int8(1), 0.01, int8(4), int16(0), 1.0, uint8(0), uint8(WorkloadMode))
	f.Add(int8(8), int8(2), 0.0, int8(0), int16(1200), 0.5, uint8(place.Clustered), uint8(ServiceMode))
	f.Add(int8(1), int8(4), math.NaN(), int8(-1), int16(-5), math.Inf(1), uint8(place.Random), uint8(Latency))
	f.Add(int8(-3), int8(0), 1.0, int8(0), int16(0), 0.0, uint8(9), uint8(7))
	f.Fuzz(func(t *testing.T, nodes, shards int8, faults float64, window int8, hedge int16, rate float64, kind, mode uint8) {
		p := Point{Config: QuickConfig(), Mode: Mode(mode % 5), Size: 64, Hops: 1, Core: measureCore,
			Nodes: int(nodes), Shards: int(shards), Faults: faults, Window: int(window), Hedge: int64(hedge),
			Arrival:   ArrivalSpec{Kind: "poisson", Rate: rate},
			Placement: PlacementPolicy{Kind: place.Kind(kind % 6), Seed: uint64(kind)}}
		if p.Mode == WorkloadMode {
			p.Scenario, p.Size, p.Core = "kv", 0, 0
		}
		if err := CheckSweepPoints([]Point{p}); err != nil && !strings.Contains(err.Error(), "point 0") {
			t.Fatalf("rejection does not name the point: %v", err)
		}
	})
}
