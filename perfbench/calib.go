package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is a share of a machine whose speed
// drifts: neighbours on the same physical cores can halve it for minutes at
// a time without showing as steal time, and CPU time inflates with wall
// time, so no raw host time is steady across a set of runs. The parent
// therefore times a fixed calibration kernel, which uses none of rackni's
// code, before the first repetition and after every one, and scales each
// repetition's host times to the speed at which the kernel takes calibRefS.
// A change to rackni cannot move the kernel, so the scaled times move with
// the program; a change in host speed moves kernel and workload together
// and cancels.
//
// Wall and CPU time are scaled separately, each by the kernel's own: a
// core shared by time slicing stretches wall time but not CPU time, while
// a core slowed under the guest stretches both.

// calibRefS is the kernel's time at the reference host speed. It only fixes
// the scale of the reported times and must never change. The kernel takes
// about 0.11 s on a 2-vCPU Xeon (Sapphire Rapids) KVM guest, so reported
// times run about a tenth below that host's raw times.
const calibRefS = 0.1

// calibSlices is how many kernel runs make one calibration. A repetition's
// speed comes from the median of the slices on both sides of it, so one
// preempted slice does not move it.
const calibSlices = 9

// calibKernel is a fixed, deterministic single-threaded job shaped like a
// discrete-event simulator's: a binary-heap event queue, small short-lived
// allocations and pointer chasing through a working set larger than the
// caches. It returns a checksum so the compiler cannot drop the work.
func calibKernel(chase []int32) uint64 {
	type event struct {
		at   uint64
		next int32
		pay  [6]uint64
	}
	const (
		queue  = 1 << 12
		events = 1 << 16
	)
	heap := make([]*event, 0, queue)
	push := func(e *event) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() *event {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < last && heap[l].at < heap[m].at {
				m = l
			}
			if l+1 < last && heap[l+1].at < heap[m].at {
				m = l + 1
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < queue; i++ {
		push(&event{at: rnd() % 1024, next: int32(i)})
	}
	var sum uint64
	for i := 0; i < events; i++ {
		e := pop()
		p := e.next
		for k := 0; k < 8; k++ {
			p = chase[p]
		}
		sum += e.at ^ uint64(p)
		push(&event{at: e.at + 1 + rnd()%1024, next: p, pay: [6]uint64{sum}})
	}
	return sum
}

// calibChase builds the kernel's pointer-chasing working set: one random
// cycle through 4M entries (16 MiB).
func calibChase() []int32 {
	const n = 1 << 22
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint64(12345)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	chase := make([]int32, n)
	for i := 0; i < n; i++ {
		chase[perm[i]] = perm[(i+1)%n]
	}
	return chase
}

var (
	calibSet  = sync.OnceValue(calibChase)
	calibSink atomic.Uint64
)

// calibSlice is one timed run of the kernel: wall seconds, and process CPU
// seconds per goroutine.
type calibSlice struct {
	wall, cpu float64
}

// calibrate runs the kernel calibSlices times and times each run. Each run
// starts the kernel on par goroutines at once, the thread count of the
// workload's repetition, and ends when the last one does: a repetition
// whose threads wait for each other is as slow as its slowest core, and so
// is the calibration.
func calibrate(par int) []calibSlice {
	chase := calibSet()
	calibSink.Add(calibKernel(chase)) // warm the working set
	slices := make([]calibSlice, calibSlices)
	for s := range slices {
		start, cpu0 := time.Now(), processCPU()
		var wg sync.WaitGroup
		for range par {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calibSink.Add(calibKernel(chase))
			}()
		}
		wg.Wait()
		slices[s] = calibSlice{time.Since(start).Seconds(), (processCPU() - cpu0) / float64(par)}
	}
	return slices
}

// hostSpeed is the host's speed during a repetition relative to the
// reference: calibRefS over the median of the calibration slices just
// before and just after it, for wall and for CPU time. Multiplying a host
// time by the matching speed scales it to the reference speed.
type hostSpeed struct {
	wall, cpu float64
}

func speed(slices []calibSlice) hostSpeed {
	wall := make([]float64, len(slices))
	cpu := make([]float64, len(slices))
	for i, s := range slices {
		wall[i], cpu[i] = s.wall, s.cpu
	}
	return hostSpeed{calibRefS / median(wall), calibRefS / median(cpu)}
}

// cpuTicks reads the all-CPU line of /proc/stat and returns the ticks the
// hypervisor stole and the ticks of every kind; ok is false where there is
// no such file.
func cpuTicks() (steal, total float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}
