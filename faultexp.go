// First-class robustness experiments: the overload-control curve (goodput
// vs offered load under a QP credit window) and the degraded-mode study
// (scenario throughput and tail latency under fabric faults). These are
// the fault plane's equivalents of the paper-figure sweeps in
// experiments.go: reusable entry points with Format renderers, consumed by
// the README tables and BENCH_cluster.json.
package rackni

import (
	"fmt"
	"strings"
)

// ---------------------------------------------------------------------------
// Overload control: goodput vs offered load under a QP credit window.
// ---------------------------------------------------------------------------

// OverloadPoint is one credit-window setting of the overload curve. The
// window caps each QP's in-flight requests (admission control at the issue
// boundary), so it is the experiment's offered-load knob: small windows
// under-subscribe the fabric, large ones saturate it, and PeakInFlight
// shows the cap bounding the live in-flight record population.
type OverloadPoint struct {
	Window       int     // requested QP credit window (0 = WQ-depth bound only)
	EffWindow    int     // bound actually applied: min(Window, WQEntries)
	AppGBps      float64 // goodput: application bandwidth actually delivered
	PeakInFlight int     // high-water live in-flight records on the inter-node fabric
	Completed    int64
	Stable       bool
}

// OverloadCurveResult is a goodput-vs-offered-load curve over QP credit
// windows on a fixed-size cluster.
type OverloadCurveResult struct {
	Nodes  int
	Size   int
	Points []OverloadPoint
}

// RunOverloadCurve measures goodput versus offered load on an n-node
// cluster: for each QP credit window (in the given order; 0 = uncapped)
// it builds a fresh cluster — the window is a construction-time bound —
// runs the all-cores asynchronous bandwidth microbenchmark at the given
// transfer size, and records the delivered bandwidth alongside the
// fabric's peak in-flight record count, the direct evidence of the window
// bounding the live population.
func RunOverloadCurve(cfg Config, nodes, size int, windows []int) (OverloadCurveResult, error) {
	if len(windows) == 0 {
		windows = []int{1, 2, 4, 8, 16, 32, 0}
	}
	out := OverloadCurveResult{Nodes: nodes, Size: size}
	for _, w := range windows {
		if w < 0 {
			return out, fmt.Errorf("rackni: negative QP window %d", w)
		}
		c := cfg
		c.QPWindow = w
		cl, err := NewCluster(c, nodes, 1)
		if err != nil {
			return out, err
		}
		res, err := cl.RunBandwidth(size)
		if err != nil {
			return out, err
		}
		eff := cfg.WQEntries
		if w > 0 && w < eff {
			eff = w
		}
		out.Points = append(out.Points, OverloadPoint{
			Window:       w,
			EffWindow:    eff,
			AppGBps:      res.Aggregate.AppGBps,
			PeakInFlight: cl.Interconnect().PeakInFlight(),
			Completed:    res.Aggregate.Completed,
			Stable:       res.Aggregate.Stable,
		})
	}
	return out, nil
}

// Format renders the overload curve.
func (r OverloadCurveResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Goodput vs offered load (%d nodes, %dB transfers, window = per-QP in-flight cap)\n", r.Nodes, r.Size)
	fmt.Fprintf(&b, "%8s %10s %12s %14s %12s %8s\n",
		"window", "effective", "app (GB/s)", "peak in-flight", "completed", "stable")
	for _, p := range r.Points {
		win := fmt.Sprintf("%d", p.Window)
		if p.Window == 0 {
			win = "uncapped"
		}
		fmt.Fprintf(&b, "%8s %10d %12.2f %14d %12d %8v\n",
			win, p.EffWindow, p.AppGBps, p.PeakInFlight, p.Completed, p.Stable)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Degraded mode: scenario behavior under fabric faults.
// ---------------------------------------------------------------------------

// DegradedPoint is one fault setting of the degraded-mode study.
type DegradedPoint struct {
	Label       string  // "drop=0.01", "link 0<->1 down", ...
	DropRate    float64 // per-leg drop probability (0 for outage-only points)
	Completed   int64   // ops that completed successfully
	Failed      int64   // ops that failed permanently (retries exhausted)
	Retries     int64   // retransmissions issued
	Drops       int64   // blocks the fabric dropped
	MeanLatency float64 // successful-op mean (cycles)
	P99         int64   // successful-op p99 (cycles)
	Drained     bool    // every client ran to completion
}

// DegradedModeResult is a scenario's behavior across fault settings.
type DegradedModeResult struct {
	Nodes    int
	Scenario string
	Points   []DegradedPoint
}

// RunDegradedMode studies a library scenario on an n-node cluster under
// increasing fabric drop rates, plus (when deadLink is set) one
// permanently dead link between nodes 0 and 1. The request timeout is
// armed (DefaultReqTimeout when the config leaves it 0), so drops recover
// by bounded retransmission; requests that exhaust their retries — every
// block crossing a dead link does — surface as permanent failures, not
// hangs. One cluster serves all settings: SetFaults swaps plans between
// runs and the session lifecycle makes each run bit-identical to a fresh
// build. shards > 1 partitions the cluster across that many parallel
// engines — results are bit-identical, only wall-clock changes.
func RunDegradedMode(cfg Config, nodes int, scenario string, dropRates []float64, deadLink bool, shards int) (DegradedModeResult, error) {
	sc, err := ParseScenario(scenario)
	if err != nil {
		return DegradedModeResult{}, err
	}
	if len(dropRates) == 0 {
		dropRates = []float64{0, 0.001, 0.01, 0.05}
	}
	if cfg.ReqTimeout == 0 {
		cfg.ReqTimeout = DefaultReqTimeout
	}
	out := DegradedModeResult{Nodes: nodes, Scenario: sc.Name}
	cl, err := NewClusterSpec(cfg, ClusterSpec{Nodes: nodes, Hops: 1, Shards: shards})
	if err != nil {
		return out, err
	}
	type setting struct {
		label string
		rate  float64
		spec  *FaultSpec
	}
	var settings []setting
	for _, rate := range dropRates {
		if !validDropRate(rate) {
			return out, fmt.Errorf("rackni: drop rate %g out of range [0, 1)", rate)
		}
		settings = append(settings, setting{
			label: fmt.Sprintf("drop=%g", rate),
			rate:  rate,
			spec:  &FaultSpec{Seed: cfg.Seed, DropProb: rate},
		})
	}
	if deadLink {
		settings = append(settings, setting{
			label: "link 0<->1 down",
			spec: &FaultSpec{Seed: cfg.Seed, LinkDown: []LinkOutage{
				{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, // Until 0 = forever
			}},
		})
	}
	for _, s := range settings {
		if err := cl.SetFaults(s.spec); err != nil {
			return out, err
		}
		res, err := cl.RunScenario(sc, 0)
		if err != nil {
			return out, fmt.Errorf("%s: %w", s.label, err)
		}
		var drops int64
		for i := 0; i < nodes; i++ {
			drops += cl.Interconnect().Counters[i].Drops
		}
		agg := res.Aggregate
		out.Points = append(out.Points, DegradedPoint{
			Label:       s.label,
			DropRate:    s.rate,
			Completed:   agg.Completed,
			Failed:      agg.Failed,
			Retries:     agg.Retries,
			Drops:       drops,
			MeanLatency: agg.MeanLatency,
			P99:         agg.P99,
			Drained:     agg.AllExhausted,
		})
	}
	return out, nil
}

// Format renders the degraded-mode study.
func (r DegradedModeResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Degraded mode: %s scenario on %d nodes (timeout/retry armed)\n", r.Scenario, r.Nodes)
	fmt.Fprintf(&b, "%-16s %10s %8s %8s %8s %11s %9s %8s\n",
		"fault", "completed", "failed", "retries", "drops", "mean (cyc)", "p99 (cyc)", "drained")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-16s %10d %8d %8d %8d %11.0f %9d %8v\n",
			p.Label, p.Completed, p.Failed, p.Retries, p.Drops, p.MeanLatency, p.P99, p.Drained)
	}
	return b.String()
}
