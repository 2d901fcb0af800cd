package main

import (
	"runtime"
	"time"

	"rackni"
	"rackni/internal/load"
	"rackni/internal/noc"
	"rackni/internal/node"
	"rackni/internal/sim"
	"rackni/internal/stats"
)

// The probes time single layers on synthetic inputs drawn from the
// workload seed. They run in traced repetitions only, after the workload
// and outside its CPU profile.

const (
	simProbeEvents    = 400_000
	simProbeLive      = 1024   // events pending at once
	nocProbeCycles    = 20_000 // cycles of uniform random traffic
	nocProbePerCycle  = 4      // messages offered per cycle
	cohProbeHits      = 5_000
	cohProbeMisses    = 600
	loadProbeArrivals = 1_000_000
	statsProbeAdds    = 2_000_000
)

// probeSink keeps probe results alive so the compiler cannot drop the
// measured calls.
var probeSink int64

func runProbes(r *rep) {
	for _, p := range []struct {
		name string
		fn   func(*rep)
	}{
		{"probe.sim", probeSim},
		{"probe.noc", probeNoc},
		{"probe.coherence", probeCoherence},
		{"probe.load", probeLoad},
		{"probe.stats", probeStats},
	} {
		sp := r.tr.begin(p.name, 0)
		p.fn(r)
		r.tr.end(sp, nil)
	}
}

// simProbe re-posts one event per executed event with a delay from a
// fixed mix: 70% within 64 cycles, 20% up to the timing wheel's span, 10%
// beyond it (the overflow heap).
type simProbe struct {
	eng    *sim.Engine
	delays []int64
	k      int
	left   int
}

func simProbeEv(a, _ any, _ int64) {
	s := a.(*simProbe)
	if s.left == 0 {
		return
	}
	s.left--
	s.k++
	s.eng.Post(s.delays[s.k%len(s.delays)], simProbeEv, s, nil, 0)
}

func probeSim(r *rep) {
	rnd := sim.NewRand(r.seed)
	delays := make([]int64, 4096)
	for i := range delays {
		switch x := rnd.Intn(10); {
		case x < 7:
			delays[i] = 1 + int64(rnd.Intn(63))
		case x < 9:
			delays[i] = 64 + int64(rnd.Intn(4000))
		default:
			delays[i] = 4096 + int64(rnd.Intn(16_000))
		}
	}
	s := &simProbe{eng: sim.NewEngine(), delays: delays, left: simProbeEvents}
	for i := 0; i < simProbeLive; i++ {
		s.eng.Post(delays[i], simProbeEv, s, nil, 0)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	s.eng.RunAll()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := int64(simProbeEvents + simProbeLive)
	r.layer("sim.probe_ns_per_event", perUnit(float64(el.Nanoseconds()), n))
	r.layer("sim.probe_allocs_per_event", perUnit(float64(m1.Mallocs-m0.Mallocs), n))
}

// probeNoc drives a bare Table 2 mesh on its own engine with uniform
// random block-sized messages between tiles.
func probeNoc(r *rep) {
	cfg := rackni.DefaultConfig()
	cfg.Seed = r.seed
	eng := sim.NewEngine()
	m := noc.NewMesh(eng, &cfg)
	tiles := cfg.Tiles()
	for t := 0; t < tiles; t++ {
		m.Register(noc.NodeID(t), noc.Release)
	}
	rnd := sim.NewRand(r.seed)
	flits := cfg.BlockFlits() + 1
	var inject func()
	inject = func() {
		for k := 0; k < nocProbePerCycle; k++ {
			src := rnd.Intn(tiles)
			dst := (src + 1 + rnd.Intn(tiles-1)) % tiles
			msg := noc.NewMessage()
			msg.VN, msg.Class = noc.VNResp, noc.ClassResponse
			msg.Src, msg.Dst, msg.Flits = noc.NodeID(src), noc.NodeID(dst), flits
			if !m.Send(msg) {
				noc.Release(msg)
			}
		}
		if eng.Now() < nocProbeCycles {
			eng.Schedule(1, inject)
		}
	}
	eng.Schedule(0, inject)
	t0 := time.Now()
	eng.RunAll()
	el := time.Since(t0)
	r.layer("noc.probe_ns_per_flit_hop", perUnit(float64(el.Nanoseconds()), m.FlitsCarried()))
}

// probeCoherence times core-side L1 hits and misses on core 0 of a built
// Table 2 node (its idle pollers run meanwhile, as in a real run).
func probeCoherence(r *rep) {
	cfg := rackni.DefaultConfig()
	cfg.Seed = r.seed
	n, err := node.New(cfg, 1)
	if err != nil {
		r.fail("probe.coherence", "build: %v", err)
		return
	}
	eng, ag := n.Eng, n.Agents[0]
	stop := eng.Stop
	wait := func() { eng.Run(eng.Now() + 1_000_000) }
	addr := uint64(node.LocalBase)
	ag.Write(addr, stop)
	wait()
	t0 := time.Now()
	for i := 0; i < cohProbeHits; i++ {
		if i%2 == 0 {
			ag.Read(addr, stop)
		} else {
			ag.Write(addr, stop)
		}
		wait()
	}
	r.layer("coherence.probe_ns_per_hit", float64(time.Since(t0).Nanoseconds())/cohProbeHits)
	ops := []func(uint64, func()){ag.Read, ag.NISideRead, ag.Write}
	t0 = time.Now()
	for i := 0; i < cohProbeMisses; i++ {
		a := uint64(node.SourceBase) + uint64(i+1)*uint64(cfg.BlockBytes)*97
		ops[i%len(ops)](a, stop)
		wait()
	}
	r.layer("coherence.probe_ns_per_miss", float64(time.Since(t0).Nanoseconds())/cohProbeMisses)
}

func probeLoad(r *rep) {
	p, err := load.NewProcess(load.Spec{Kind: load.Poisson, Rate: serviceRate}, r.seed)
	if err != nil {
		r.fail("probe.load", "%v", err)
		return
	}
	var last int64
	t0 := time.Now()
	for i := 0; i < loadProbeArrivals; i++ {
		last = p.Next()
	}
	r.layer("load.probe_ns_per_arrival", float64(time.Since(t0).Nanoseconds())/loadProbeArrivals)
	probeSink += last
}

func probeStats(r *rep) {
	rnd := sim.NewRand(r.seed)
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(rnd.Intn(1 << 17)) // past the bucketed range too
	}
	h := stats.NewLatencyHistogram()
	t0 := time.Now()
	for i := 0; i < statsProbeAdds; i++ {
		h.Add(vals[i&4095])
	}
	r.layer("stats.probe_ns_per_add", float64(time.Since(t0).Nanoseconds())/statsProbeAdds)
	probeSink += h.Count()
}
