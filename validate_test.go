package rackni

import (
	"fmt"
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

// numericList is one comma-list parser under FuzzParseNumericLists: it
// parses s and reports the first accepted value outside the range the
// parser's doc comment states, and how many values it accepted.
type numericList struct {
	name  string
	check func(s string) (n int, bad string, err error)
}

// numericParser adapts a typed list parser and its documented range.
func numericParser[T any](name string, parse func(string) ([]T, error), inRange func(T) bool) numericList {
	return numericList{name, func(s string) (int, string, error) {
		vs, err := parse(s)
		for _, v := range vs {
			if !inRange(v) {
				return len(vs), fmt.Sprint(v), err
			}
		}
		return len(vs), "", err
	}}
}

// FuzzParseNumericLists: no numeric list parser panics, an accepted list
// has one value per comma-separated token, and every accepted value lies
// in the range the parser documents.
func FuzzParseNumericLists(f *testing.F) {
	for _, s := range []string{"64,4096", "1,3,6", "0", " 7 ", "-1", "1,,2", "", ",",
		"0.001,0.01", "0.5,2,8", "1", "0.9999999999999999", "1e-320", "0x1p-2",
		"NaN", "Inf", "-0", "1e309", "9223372036854775807", "9223372036854775808",
		"18446744073709551615", "+5", "0,2000"} {
		f.Add(s)
	}
	positive := func(v int) bool { return v > 0 }
	nonNegative := func(v int) bool { return v >= 0 }
	parsers := []numericList{
		numericParser("ParseSizes", ParseSizes, positive),
		numericParser("ParseHops", ParseHops, nonNegative),
		numericParser("ParseCores", ParseCores, nonNegative),
		numericParser("ParseNodeCounts", ParseNodeCounts, positive),
		numericParser("ParseShards", ParseShards, positive),
		numericParser("ParseWindows", ParseWindows, nonNegative),
		numericParser("ParseDropRates", ParseDropRates, func(v float64) bool { return v >= 0 && v < 1 }),
		numericParser("ParseRates", ParseRates, func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }),
		numericParser("ParseHedges", ParseHedges, func(v int64) bool { return v >= 0 }),
		numericParser("ParseSeeds", ParseSeeds, func(uint64) bool { return true }),
	}
	f.Fuzz(func(t *testing.T, s string) {
		tokens := strings.Count(s, ",") + 1
		for _, p := range parsers {
			n, bad, err := p.check(s)
			if err != nil {
				continue
			}
			if bad != "" {
				t.Fatalf("%s(%q) accepted %s, outside its documented range", p.name, s, bad)
			}
			if n != tokens {
				t.Fatalf("%s(%q) accepted %d values for %d tokens", p.name, s, n, tokens)
			}
		}
	})
}
