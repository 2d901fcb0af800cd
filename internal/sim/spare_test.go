package sim

import (
	"reflect"
	"testing"
)

// retainedEvents is the number of event records the wheel holds memory
// for: the capacity of every slot buffer plus every spare.
func retainedEvents(e *Engine) int {
	n := 0
	for _, evs := range e.wheel {
		n += cap(evs)
	}
	for _, evs := range e.spare {
		n += cap(evs)
	}
	return n
}

// TestWheelMemoryBoundedByLiveEvents runs P self-reposting chains in phase
// (like the RGP frontends' WQ polls) for three wheel laps. Their events
// visit every other slot, so wheel memory sized per slot would grow to
// about wheelSize/2 × P records; recycled slot buffers keep it within a
// small multiple of P.
func TestWheelMemoryBoundedByLiveEvents(t *testing.T) {
	const P, period = 64, 2
	e := NewEngine()
	var fired int64
	var chain EventFunc
	chain = func(a, _ any, _ int64) {
		fired++
		a.(*Engine).Post(period, chain, a, nil, 0)
	}
	for i := 0; i < P; i++ {
		e.Post(0, chain, e, nil, 0)
	}
	peak := 0
	for step := int64(1); step <= 3*wheelSize/64; step++ {
		e.Run(step*64 - 1)
		if r := retainedEvents(e); r > peak {
			peak = r
		}
	}
	if want := int64(3 * wheelSize / period * P); fired != want {
		t.Fatalf("chains fired %d events, want %d", fired, want)
	}
	if e.Pending() != P {
		t.Fatalf("pending = %d, want the %d live chain events", e.Pending(), P)
	}
	if peak > 4*P {
		t.Fatalf("wheel retained up to %d event records for %d live events, want <= %d", peak, P, 4*P)
	}
}

// TestSpareBufferKeepsFIFO checks same-cycle FIFO order in slots whose
// buffers come from the spare stack: after a drain, across a Stop in the
// middle of a slot (the remainder runs first, then later same-cycle
// posts), and after a Reset that drops pending events.
func TestSpareBufferKeepsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int64
	record := func(_, _ any, i int64) { got = append(got, i) }
	stopAfter := func(a, _ any, i int64) {
		got = append(got, i)
		a.(*Engine).Stop()
	}

	// Grow a buffer in slot 1 and drain it into the spare stack; its stale
	// records must not leak into the next slot that takes it.
	for i := int64(0); i < 8; i++ {
		e.Post(1, record, nil, nil, 100+i)
	}
	e.RunAll()
	if len(e.spare) != 1 || e.wheel[1] != nil {
		t.Fatalf("drained slot kept its buffer: %d spares, slot cap %d", len(e.spare), cap(e.wheel[1]))
	}
	got = got[:0]

	// Refill from the spare and stop in the middle of the slot.
	at := e.Now() + 3
	e.Post(3, record, nil, nil, 0)
	if len(e.spare) != 0 {
		t.Fatal("empty slot did not take the spare buffer")
	}
	e.Post(3, stopAfter, e, nil, 1)
	e.Post(3, record, nil, nil, 2)
	e.Post(3, record, nil, nil, 3)
	e.Run(at + 10)
	if want := []int64{0, 1}; !reflect.DeepEqual(got, want) || e.Now() != at {
		t.Fatalf("stopped run: ran %v at cycle %d, want %v at %d", got, e.Now(), want, at)
	}
	// Same-cycle posts after the Stop queue behind the remainder.
	e.Post(0, record, nil, nil, 4)
	e.Post(0, record, nil, nil, 5)
	e.RunAll()
	if want := []int64{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Stop: ran %v, want %v", got, want)
	}

	// Reset with events pending in two slots: they are dropped, their
	// buffers become spares, and refilled slots run in post order.
	e.Post(5, record, nil, nil, -1)
	e.Post(9, record, nil, nil, -2)
	e.Reset()
	if e.Pending() != 0 || len(e.spare) < 2 {
		t.Fatalf("after Reset: pending %d, %d spares", e.Pending(), len(e.spare))
	}
	got = got[:0]
	for i := int64(0); i < 6; i++ {
		e.Post(i%2, record, nil, nil, i)
	}
	e.RunAll()
	if want := []int64{0, 2, 4, 1, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Reset: ran %v, want %v", got, want)
	}
}
