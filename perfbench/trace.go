package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one traced interval around a call into a layer. Counters are
// snapshotted when the span ends.
type span struct {
	Run      string             `json:"run"`
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps the spans of one repetition in memory; they are written
// out when the repetition ends. A nil tracer records nothing.
type tracer struct {
	run   string // shared by every span of the repetition
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1; 0 is no parent).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Run: t.run, ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes a span, snapshotting the runtime counters and the given
// layer counters.
func (t *tracer) end(id int, counters map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.Counters = runtimeCounters()
	for k, v := range counters {
		s.Counters[k] = v
	}
}

// write stores the spans as JSON, with the repetition's host fingerprint.
func (t *tracer) write(path, host string) error {
	blob, err := json.MarshalIndent(struct {
		Host  string `json:"host"`
		Spans []span `json:"spans"`
	}{host, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// Runtime counters, read through runtime/metrics.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// runtimeCounters snapshots the Go runtime's GC and heap counters.
func runtimeCounters() map[string]float64 {
	s := readRuntime()
	return map[string]float64{
		"runtime.gc_cpu_s":    sampleValue(s[0]),
		"runtime.gc_cycles":   sampleValue(s[1]),
		"runtime.alloc_mb":    sampleValue(s[2]) / (1 << 20),
		"runtime.heap_obj_mb": sampleValue(s[3]) / (1 << 20),
	}
}

// heapObjectsBytes is the live-and-unswept heap object bytes now.
func heapObjectsBytes() float64 { return sampleValue(readRuntime()[3]) }

// heapSampler tracks the peak heap object bytes while a traced repetition
// runs; stop ends its goroutine and returns the peak in MiB.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, heapObjectsBytes())
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return max(h.peak, heapObjectsBytes()) / (1 << 20)
}

// runRep runs one repetition of wl in this process. A traced repetition
// also records spans, a CPU profile, per-layer counters and the probes,
// and writes its spans and profile under outDir.
func runRep(wl workload, seed uint64, traced bool, outDir string, shards int) repRecord {
	rec := repRecord{Workload: wl.name, Seed: seed, Traced: traced, Host: fingerprint()}
	r := &rep{rec: &rec, seed: seed, shards: shards, bad: map[string]bool{}}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-pid%d", wl.name, seed, os.Getpid()))
	var (
		heap    *heapSampler
		gc0     map[string]float64
		profile *os.File
	)
	if traced {
		r.tr = newTracer(filepath.Base(base))
		r.layers = map[string]float64{}
		f, err := os.Create(base + ".pprof")
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			r.fail("trace", "cpu profile: %v", err)
		} else {
			profile = f
		}
		gc0 = runtimeCounters()
		heap = startHeapSampler()
	}

	t0 := time.Now()
	r.root = r.tr.begin("workload", 0)
	err := wl.run(r)
	r.tr.end(r.root, nil)
	rec.WallS = time.Since(t0).Seconds()
	if err != nil {
		r.fail("workload", "%v", err)
	}
	rec.Digest = digest(rec.Model)

	if traced {
		// The profile covers the workload only, not the probes.
		if profile != nil {
			pprof.StopCPUProfile()
			if err := profile.Close(); err != nil {
				r.fail("trace", "cpu profile: %v", err)
			}
			rec.Profile = base + ".pprof"
		}
		gc1 := runtimeCounters()
		r.layer("runtime.gc_cpu_s", gc1["runtime.gc_cpu_s"]-gc0["runtime.gc_cpu_s"])
		r.layer("runtime.gc_cycles", gc1["runtime.gc_cycles"]-gc0["runtime.gc_cycles"])
		r.layer("runtime.alloc_mb", gc1["runtime.alloc_mb"]-gc0["runtime.alloc_mb"])
		r.layer("runtime.heap_peak_mb", heap.stop())
		runProbes(r)
		if err := r.tr.write(base+".spans.json", rec.Host); err != nil {
			r.fail("trace", "spans: %v", err)
		}
		rec.Layers = r.layers
	}
	rec.Points = max(rec.Points, 1)
	rec.Failed = min(rec.Failed, rec.Points)
	return rec
}
