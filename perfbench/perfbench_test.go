package main

import (
	"encoding/json"
	"os"
	"testing"
)

// newTestRep returns a repetition record for a test run.
func newTestRep(name string, seed uint64, shards int) (*rep, *repRecord) {
	rec := &repRecord{Workload: name, Seed: seed}
	return &rep{rec: rec, seed: seed, shards: shards, bad: map[string]bool{}}, rec
}

// checkRec fails the test if a repetition failed or produced nothing.
func checkRec(t *testing.T, rec repRecord) {
	t.Helper()
	if rec.Failed != 0 || len(rec.Failures) != 0 {
		t.Fatalf("%s: %d failed points: %v", rec.Workload, rec.Failed, rec.Failures)
	}
	if len(rec.Model) == 0 || rec.Digest == "" || rec.SimCycles <= 0 || rec.RunS <= 0 {
		t.Fatalf("%s: empty record: %d model values, digest %q, %d cycles, run %gs",
			rec.Workload, len(rec.Model), rec.Digest, rec.SimCycles, rec.RunS)
	}
}

// TestSmoke runs each workload once at a small size: chip-sweep and
// rack-service as benchmarked, rack-sparse on 8 nodes with 8 ops per
// client.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"chip-sweep", "rack-service"} {
		wl, _ := workloadByName(name)
		checkRec(t, runRep(wl, defaultSeed, false, t.TempDir(), defaultShards()))
	}
	r, rec := newTestRep("rack-sparse", defaultSeed, defaultShards())
	if err := runSparseShape(r, 8, defaultShards(), 8); err != nil {
		t.Fatal(err)
	}
	rec.Digest = digest(rec.Model)
	checkRec(t, *rec)
}

// TestTracedChipSweepMatchesRunner checks that the traced chip-sweep,
// which runs the points through internal/node to read layer counters,
// simulates exactly what the sweep Runner does, and that it reports every
// per-layer metric the workload sets.
func TestTracedChipSweepMatchesRunner(t *testing.T) {
	wl, _ := workloadByName("chip-sweep")
	dir := t.TempDir()
	plain := runRep(wl, defaultSeed, false, dir, 1)
	traced := runRep(wl, defaultSeed, true, dir, 1)
	checkRec(t, plain)
	checkRec(t, traced)
	if plain.Digest != traced.Digest {
		t.Fatalf("traced digest %s != Runner digest %s", traced.Digest, plain.Digest)
	}
	for _, name := range []string{"noc.flits", "sim.probe_ns_per_event", "coherence.probe_ns_per_miss",
		"runtime.alloc_mb", "rackni.render_s", "core.completed"} {
		if !(traced.Layers[name] > 0) {
			t.Errorf("layer metric %s = %v, want > 0", name, traced.Layers[name])
		}
	}
	shares, err := profileShares(traced.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if shares["sim"] <= 0 || shares["noc"] <= 0 {
		t.Errorf("profile shares miss the hot layers: %v", shares)
	}
}

// TestSparseDigestShardInvariant checks that a tiny rack-sparse gives the
// same model.digest at one and two shards, and on a repeat.
func TestSparseDigestShardInvariant(t *testing.T) {
	var digests []string
	for _, k := range []int{1, 2, 2} {
		r, rec := newTestRep("rack-sparse", 7, k)
		if err := runSparseShape(r, 4, k, 8); err != nil {
			t.Fatal(err)
		}
		rec.Digest = digest(rec.Model)
		checkRec(t, *rec)
		digests = append(digests, rec.Digest)
	}
	if digests[0] != digests[1] || digests[1] != digests[2] {
		t.Fatalf("digests differ across shard counts and repeats: K=1 %s, K=2 %s, K=2 again %s", digests[0], digests[1], digests[2])
	}
}

// TestRecordedDigests reruns each workload at the default and the
// held-out seed and compares with the recorded digests.
func TestRecordedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice at full size")
	}
	for _, wl := range workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			want, ok := recordedDigest(wl.name, seed)
			if !ok {
				t.Errorf("%s: no digest recorded for seed %d", wl.name, seed)
				continue
			}
			rec := runRep(wl, seed, false, t.TempDir(), defaultShards())
			checkRec(t, rec)
			if rec.Digest != want {
				t.Errorf("%s seed %d: digest %s, recorded %s", wl.name, seed, rec.Digest, want)
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMetricsPrinted checks that BENCHMARK.json names the
// benchmark's workloads with their reasons, and that every metric it names
// is printed with its unit and direction: the end-to-end set by an
// untraced run, the per-layer set by a traced one.
func TestBenchmarkJSONMetricsPrinted(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	rec := repRecord{SetupS: 1, WallS: 2, RunS: 1, SimCycles: 1000, Layers: map[string]float64{}}
	reps := []childResult{{rec: rec, cpuS: 2, rssMB: 10, speed: hostSpeed{1, 1}}}
	printed := map[string]map[string]metric{
		"end_to_end": endToEnd(reps),
		"per_layer":  layerMetrics(reps, reps, []map[string]float64{{}}),
	}
	for set, specs := range map[string][]struct{ Name, Unit, Better string }{"end_to_end": bf.EndToEnd, "per_layer": bf.PerLayer} {
		want := endToEndSpecs
		if set == "per_layer" {
			want = layerSpecs
		}
		if len(specs) != len(printed[set]) || len(specs) != len(want) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, a run prints %d, the specs hold %d", set, len(specs), len(printed[set]), len(want))
		}
		for i, s := range specs {
			m, ok := printed[set][s.Name]
			if !ok || m.Unit != s.Unit {
				t.Errorf("%s: %s (%s) printed as %+v (present %v)", set, s.Name, s.Unit, m, ok)
			}
			if i < len(want) && (want[i].name != s.Name || want[i].better != s.Better) {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, spec %s/%s", set, i, s.Name, s.Better, want[i].name, want[i].better)
			}
		}
	}
}

// TestHostSpeedScaling checks the calibration arithmetic: a repetition's
// speed is calibRefS over the median slice, wall and CPU apart, and host
// times scale by it while memory does not.
func TestHostSpeedScaling(t *testing.T) {
	slices := []calibSlice{{0.2, 0.1}, {0.4, 0.1}, {0.2, 0.3}}
	sp := speed(slices)
	if sp.wall != calibRefS/0.2 || sp.cpu != calibRefS/0.1 {
		t.Fatalf("speed(%v) = %+v, want wall %v cpu %v", slices, sp, calibRefS/0.2, calibRefS/0.1)
	}
	rec := repRecord{SetupS: 1, WallS: 4, RunS: 2, SimCycles: 6000}
	m := endToEnd([]childResult{{rec: rec, cpuS: 3, rssMB: 10, speed: hostSpeed{0.5, 0.25}}})
	for name, want := range map[string]float64{"setup_s": 0.5, "wall_s": 2, "sim_kcycles_per_s": 6, "cpu_s": 0.75, "max_rss_mb": 10} {
		if m[name].Value != want {
			t.Errorf("%s = %v, want %v", name, m[name].Value, want)
		}
	}
	if a, b := calibKernel(calibSet()), calibKernel(calibSet()); a != b {
		t.Errorf("calibration kernel is not deterministic: %d then %d", a, b)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"rackni/internal/sim.(*Engine).Run":           "sim",
		"rackni/internal/noc.linkArriveEv":            "noc",
		"rackni/internal/nocout.(*Net).Send":          "nocout",
		"rackni.(*Cluster).RunService":                "rackni",
		"rackni/internal/node.newMesh.func3":          "node",
		"runtime.scanobject":                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "runtime",
		"main.runRep":                                 "",
		"syscall.Syscall6":                            "",
		"rackni/internal/core.(*wqPoller).poll":       "core",
		"rackni/internal/coherence.(*Agent).access":   "coherence",
		"rackni/internal/fabric.(*Interconnect).Dist": "fabric",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
