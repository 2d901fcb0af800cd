// Command perfbench is rackni's same-host benchmark: host time, memory and
// set-up cost of three workloads (see workloads.go and README.md), with a
// correctness check of every simulated output, and a traced mode that
// reports per-layer metrics.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload chip-sweep --seed 1 --seconds 36 --trace 0
//
// The command is a parent that runs the workload repeatedly, each repetition
// in its own child process, until --seconds have passed. It reports medians
// across repetitions. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one repetition; the whole command must end within
// three minutes.
const childTimeout = 120 * time.Second

// minReps is the fewest untraced repetitions a run takes, whatever its
// budget, so every median has at least three samples.
const minReps = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 10, "measurement time budget in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child   = flag.Bool("child", false, "run one repetition in this process and print its record (internal)")
		traced  = flag.Bool("traced", false, "with -child: record spans, counters and a CPU profile")
		outDir  = flag.String("out", filepath.Join(".bench_build", "trace"), "directory for span and profile files")
	)
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if *child {
		rec := runRep(wl, *seed, *traced, *outDir, defaultShards())
		if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(parent(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir))
}

// childResult is one repetition as the parent saw it: the child's record
// plus the process's own resource usage.
type childResult struct {
	rec   repRecord
	cpuS  float64
	rssMB float64
	// stealFrac is the share of all CPU time the hypervisor stole while
	// the repetition ran.
	stealFrac float64
	speed     hostSpeed // host speed around the repetition (see calib.go)
}

// runChild runs one repetition in a fresh process and waits for it.
func runChild(wl workload, seed uint64, traced bool, outDir string) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", wl.name, "-seed", fmt.Sprint(seed), "-out", outDir}
	if traced {
		args = append(args, "-traced")
	}
	steal0, total0, _ := cpuTicks()
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s repetition: %w", wl.name, err)
	}
	var res childResult
	if steal1, total1, ok := cpuTicks(); ok && total1 > total0 {
		res.stealFrac = (steal1 - steal0) / (total1 - total0)
	}
	if err := json.Unmarshal(out.Bytes(), &res.rec); err != nil {
		return childResult{}, fmt.Errorf("%s repetition: bad record: %w", wl.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// parent runs repetitions until the budget is spent, checks them, prints
// the report and the result line, and returns the exit code.
func parent(wl workload, seed uint64, budget time.Duration, trace bool, outDir string) int {
	host := fingerprint()
	fmt.Printf("perfbench %s seed=%d trace=%v budget=%v\n", wl.name, seed, trace, budget)
	fmt.Printf("host %s\n", host)
	if trace {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	start := time.Now()
	cal := calibrate(wl.threads())
	var all, plain, traced []childResult
	for i := 0; ; i++ {
		iter := time.Now()
		tracedRep := trace && i%2 == 1
		r, err := runChild(wl, seed, tracedRep, outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		next := calibrate(wl.threads())
		r.speed = speed(append(cal, next...))
		cal = next
		fmt.Printf("rep %d traced=%v wall_s=%.4f setup_s=%.4f run_s=%.4f cpu_s=%.4f max_rss_mb=%.1f steal=%.4f speed=%.4f cpu_speed=%.4f digest=%s failed=%d/%d (raw host times)\n",
			i, tracedRep, r.rec.WallS, r.rec.SetupS, r.rec.RunS, r.cpuS, r.rssMB, r.stealFrac, r.speed.wall, r.speed.cpu, r.rec.Digest, r.rec.Failed, r.rec.Points)
		all = append(all, r)
		if tracedRep {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		// Stop once the next repetition and its calibration would overrun
		// the budget, after minReps untraced (and, when tracing, one traced)
		// repetitions.
		last := time.Since(iter)
		if time.Since(start)+last > budget && len(plain) >= minReps && (!trace || len(traced) > 0) {
			break
		}
	}
	failures, attempted, failedPoints := audit(wl.name, seed, all)
	first := all[0].rec
	for _, kv := range first.Model {
		fmt.Printf("model.%s = %s\n", kv.Name, kv.Value)
	}
	fmt.Printf("model.digest = %s\n", first.Digest)
	for _, f := range failures {
		fmt.Printf("FAIL %s\n", f)
	}
	fmt.Printf("ops_failed_frac = %g (%d of %d points)\n", float64(failedPoints)/float64(attempted), failedPoints, attempted)

	var metrics map[string]metric
	if trace {
		shares := make([]map[string]float64, len(traced))
		for i, t := range traced {
			s, err := profileShares(t.rec.Profile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 1
			}
			shares[i] = s
		}
		metrics = layerMetrics(plain, traced, shares)
		for _, u := range unavailable(wl.name) {
			fmt.Printf("unavailable %s\n", u)
		}
	} else {
		metrics = endToEnd(plain)
		raw := make([]childResult, len(plain))
		for i, r := range plain {
			raw[i] = r
			raw[i].speed = hostSpeed{1, 1}
		}
		unscaled := endToEnd(raw)
		fmt.Printf("unscaled medians: wall_s=%.4f setup_s=%.4f sim_kcycles_per_s=%.4f cpu_s=%.4f\n",
			unscaled["wall_s"].Value, unscaled["setup_s"].Value, unscaled["sim_kcycles_per_s"].Value, unscaled["cpu_s"].Value)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	meaning := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), layerSpecs...) {
		meaning[s.name] = s.moves
	}
	for _, n := range names {
		fmt.Printf("metric %s = %v %s (%s)\n", n, metrics[n].Value, metrics[n].Unit, meaning[n])
	}
	correct := len(failures) == 0
	line, err := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failedPoints, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// audit checks every repetition: its own per-point audits, digest
// agreement across repetitions (the simulator is deterministic, so every
// repetition of one seed must produce the same outputs), and the recorded
// digest where one exists for this workload and seed. It returns the named
// failures and the attempted and failed point counts.
func audit(name string, seed uint64, reps []childResult) (failures []string, attempted, failed int) {
	want, recorded := recordedDigest(name, seed)
	for i, r := range reps {
		attempted += r.rec.Points
		bad := r.rec.Failed
		for _, f := range r.rec.Failures {
			failures = append(failures, fmt.Sprintf("rep %d: %s", i, f))
		}
		mismatch := ""
		switch {
		case r.rec.Digest != reps[0].rec.Digest:
			mismatch = fmt.Sprintf("model.digest %s differs from rep 0's %s", r.rec.Digest, reps[0].rec.Digest)
		case recorded && r.rec.Digest != want:
			mismatch = fmt.Sprintf("model.digest %s differs from the digest %s recorded for %s seed %d", r.rec.Digest, want, name, seed)
		}
		if mismatch != "" {
			failures = append(failures, fmt.Sprintf("rep %d: digest: %s", i, mismatch))
			// A digest covers every point of the repetition.
			bad = r.rec.Points
		}
		failed += bad
	}
	if !recorded {
		fmt.Printf("note: no digest recorded for %s seed %d; checked repeat agreement only\n", name, seed)
	}
	return failures, attempted, failed
}

// endToEnd reduces untraced repetitions to the end-to-end metrics: medians
// across repetitions of each repetition's host times scaled to the
// reference speed by its host speed (see calib.go). Memory is not scaled.
func endToEnd(reps []childResult) map[string]metric {
	pick := func(f func(childResult) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	return map[string]metric{
		"setup_s":           {pick(func(r childResult) float64 { return r.rec.SetupS * r.speed.wall }), "s"},
		"wall_s":            {pick(func(r childResult) float64 { return r.rec.WallS * r.speed.wall }), "s"},
		"sim_kcycles_per_s": {pick(func(r childResult) float64 { return r.rec.simRate() / r.speed.wall }), "kcycles/s"},
		"cpu_s":             {pick(func(r childResult) float64 { return r.cpuS * r.speed.cpu }), "s"},
		"max_rss_mb":        {pick(func(r childResult) float64 { return r.rssMB }), "MB"},
	}
}

// median returns the median of v (the mean of the middle two for an even
// count); v is reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}
