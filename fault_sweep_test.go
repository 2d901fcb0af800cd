package rackni

import (
	"strings"
	"testing"
)

// faultSweepCfg arms a short timeout so dropped blocks recover quickly
// inside reduced test budgets.
func faultSweepCfg() Config {
	cfg := quickClusterCfg()
	cfg.ReqTimeout = 1_000
	cfg.MaxCycles = 400_000
	return cfg
}

// TestFaultSweepDeterminism: fault-injected points are as deterministic
// as lossless ones — a sweep spanning the Faults and Windows axes renders
// byte-identically run serially and on a worker pool. Wired into the CI
// race job alongside the cluster sweep.
func TestFaultSweepDeterminism(t *testing.T) {
	sweep := NewSweep(faultSweepCfg()).
		Designs(NISplit).
		Modes(Latency).
		Workloads("kv").
		Sizes(64).
		Nodes(2).
		Faults(0.02).
		Windows(0, 4)
	serial, err := sweep.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep.Run(Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 4 || len(par) != 4 {
		t.Fatalf("point counts: serial %d, parallel %d, want 4", len(serial), len(par))
	}
	if serial.Format() != par.Format() {
		t.Fatalf("Format differs under parallelism:\nserial:\n%s\nparallel:\n%s",
			serial.Format(), par.Format())
	}
	if serial.CSV() != par.CSV() {
		t.Fatalf("CSV differs under parallelism:\nserial:\n%s\nparallel:\n%s",
			serial.CSV(), par.CSV())
	}
	// The workload points must actually have exercised the fault plane.
	var retries int64
	for _, r := range serial {
		if r.WL != nil {
			retries += r.WL.Retries
		}
	}
	if retries == 0 {
		t.Fatal("2% drop sweep never retried a block")
	}
}

// TestFaultAxisRenderers: the drop/window columns appear exactly when a
// result set contains faulty or windowed points, keeping fault-free
// output byte-identical to its pre-fault form.
func TestFaultAxisRenderers(t *testing.T) {
	cfg := quickClusterCfg()
	clean, err := NewSweep(cfg).Designs(NISplit).Modes(Latency).Sizes(64).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.Format(), "drop") || strings.Contains(clean.Format(), "win") {
		t.Fatalf("fault-free result set grew fault columns:\n%s", clean.Format())
	}
	if strings.Contains(clean.CSV(), "drop_rate") || strings.Contains(clean.CSV(), "window") {
		t.Fatalf("fault-free CSV grew fault columns:\n%s", clean.CSV())
	}
	blob, err := clean.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), `"drop_rate"`) || strings.Contains(string(blob), `"window"`) {
		t.Fatalf("fault-free JSON carries fault fields:\n%s", blob)
	}

	faulty, err := NewSweep(faultSweepCfg()).
		Designs(NISplit).Modes(Latency).Sizes(64).Nodes(2).Faults(0.02).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(faulty.Format(), "drop") || !strings.Contains(faulty.CSV(), "drop_rate,window,") {
		t.Fatalf("faulty result set missing its fault columns:\n%s\n%s", faulty.Format(), faulty.CSV())
	}
	blob, err = faulty.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"drop_rate": 0.02`) {
		t.Fatalf("faulty JSON missing drop_rate:\n%s", blob)
	}

	// A credit-window axis alone (no faults, single node) also surfaces —
	// the window is part of the point's identity.
	windowed, err := NewSweep(cfg).Designs(NISplit).Modes(Latency).Sizes(64).Windows(4).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(windowed.Format(), "win") {
		t.Fatalf("windowed result set missing its win column:\n%s", windowed.Format())
	}
	blob, err = windowed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"window": 4`) {
		t.Fatalf("windowed JSON missing window field:\n%s", blob)
	}
}

// TestParseFaultFlags: the -drop and -window list parsers accept what
// the fault plane accepts and nothing else.
func TestParseFaultFlags(t *testing.T) {
	rates, err := ParseDropRates("0,0.01,0.5")
	if err != nil || len(rates) != 3 || rates[1] != 0.01 {
		t.Fatalf("ParseDropRates: %v %v", rates, err)
	}
	for _, bad := range []string{"", "x", "-0.1", "1", "1.5"} {
		if _, err := ParseDropRates(bad); err == nil {
			t.Fatalf("ParseDropRates(%q) accepted", bad)
		}
	}
	wins, err := ParseWindows("0,1,128")
	if err != nil || len(wins) != 3 || wins[2] != 128 {
		t.Fatalf("ParseWindows: %v %v", wins, err)
	}
	for _, bad := range []string{"", "x", "-1", "1.5"} {
		if _, err := ParseWindows(bad); err == nil {
			t.Fatalf("ParseWindows(%q) accepted", bad)
		}
	}
}

// TestCheckSweepPoints: the up-front validation racksim runs before any
// simulation starts — bad fault/window/shape combinations fail with the
// offending point named.
func TestCheckSweepPoints(t *testing.T) {
	cfg := QuickConfig()
	ok := NewSweep(cfg).Designs(NISplit).Modes(Latency, Bandwidth).Sizes(64).
		Workloads("kv").Nodes(2).Faults(0.01).Windows(4).Points()
	if err := CheckSweepPoints(ok); err != nil {
		t.Fatalf("valid point list rejected: %v", err)
	}
	bad := []struct {
		name string
		pts  []Point
	}{
		{"faults on a single node", NewSweep(cfg).Modes(Latency).Sizes(64).Faults(0.5).Points()},
		{"drop rate out of range", NewSweep(cfg).Modes(Latency).Sizes(64).Nodes(2).Faults(1).Points()},
		{"negative window", NewSweep(cfg).Modes(Latency).Sizes(64).Windows(-1).Points()},
		{"negative hops", NewSweep(cfg).Modes(Latency).Sizes(64).Hops(-1).Points()},
		{"beyond addressing limit", NewSweep(cfg).Modes(Latency).Sizes(64).Nodes(5000).Points()},
		{"beyond torus capacity", NewSweep(cfg).Modes(Latency).Sizes(64).Nodes(1000).
			Placements(PlaceIdentity).Points()},
		{"unknown scenario", NewSweep(cfg).Workloads("nosuch").Points()},
		{"bad size", NewSweep(cfg).Modes(Latency).Sizes(63).Points()},
		{"core out of range", NewSweep(cfg).Modes(Latency).Sizes(64).Cores(10_000).Points()},
	}
	for _, c := range bad {
		if err := CheckSweepPoints(c.pts); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), "point 0") {
			t.Errorf("%s: error does not name the point: %v", c.name, err)
		}
	}
}

// TestClusterScenariosCompleteUnderDrops: the headline robustness
// acceptance — on a 64-node rack of reduced chips with a lossy fabric,
// every library scenario still drains to completion through timeout and
// retransmission: no hangs, no permanent failures, bounded retries
// surfaced in the results. Referenced by the CI fault smoke job.
func TestClusterScenariosCompleteUnderDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node fault smoke skipped in -short")
	}
	cfg := QuickConfig()
	cfg.MeshWidth, cfg.MeshHeight = 4, 2
	cfg.LLCSizeBytes = 2 << 20
	cfg.StableDelta = 0
	// The timeout must sit well above the congested tail latency, or slow
	// — not lost — responses get retransmitted until the retry budget
	// fails them: the stream scenario saturates this rack to a fault-free
	// p99 around 150k cycles, so the first deadline starts above that and
	// exponential backoff gives later attempts even more headroom.
	cfg.ReqTimeout = 200_000
	cfg.MaxCycles = 6_000_000
	cl, err := NewCluster(cfg, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SetFaults(&FaultSpec{Seed: 11, DropProb: 0.001}); err != nil {
		t.Fatal(err)
	}
	var retries int64
	for _, name := range Scenarios() {
		sc, err := ParseScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.RunScenario(sc, 0)
		if err != nil {
			t.Fatalf("scenario %q under 0.1%% drops: %v", name, err)
		}
		if !res.Aggregate.AllExhausted {
			t.Fatalf("scenario %q did not drain under 0.1%% drops (completed %d)",
				name, res.Aggregate.Completed)
		}
		if res.Aggregate.Failed != 0 {
			t.Fatalf("scenario %q had %d permanent failures under 0.1%% drops",
				name, res.Aggregate.Failed)
		}
		retries += res.Aggregate.Retries
	}
	if retries == 0 {
		t.Fatal("no scenario ever retried a block — fault plane inactive?")
	}
}
