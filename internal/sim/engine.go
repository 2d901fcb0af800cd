// Package sim provides the discrete-event simulation kernel used by every
// timed component in the simulator: a deterministic engine with a timing
// wheel for short delays and an overflow heap for long ones.
//
// All simulated time is measured in core clock cycles (2 GHz in the default
// configuration, i.e. one cycle = 0.5 ns). Components schedule handlers to
// run at future cycles; the engine runs them in (time, insertion-order)
// order, which makes every simulation fully deterministic.
//
// The kernel is allocation-free in steady state: events are plain records
// stored by value in per-slot wheel buffers. A slot that drains empty hands
// its backing array to the engine's spare stack, and the next empty slot to
// receive an event takes a spare before it appends, so the buffers are
// recycled across slots and the wheel retains memory for the slots occupied
// at once, not for all wheelSize of them. The only allocations are the
// one-time growth of those buffers. Hot-path components schedule through
// Post, which carries a static handler function plus packed arguments;
// Schedule remains as the closure-based convenience API for cold paths (a
// closure the caller already holds is stored without boxing, since func
// values are pointer-shaped).
package sim

import "math/bits"

// wheelSize must be a power of two and larger than the most common delays
// (cache latencies, per-hop link times, DRAM latency, network hop latency).
// Delays beyond the wheel fall into the overflow heap.
const wheelSize = 4096

// EventFunc is an event handler. It receives the two reference arguments
// and the packed integer argument the event was scheduled with. Handlers
// are top-level functions (or other static func values), so posting an
// event stores no closure: pointer arguments convert to `any` without
// allocating.
type EventFunc func(a, b any, i int64)

// event is one scheduled occurrence. Events are stored by value; the wheel
// slot buffers double as the free list, so an executed event's record is
// reused by a later Schedule/Post into whichever slot the buffer serves
// next. Wheel slots execute in append order, which equals schedule order
// for same-cycle events, so no sequence number is stored; only the
// overflow heap needs one.
type event struct {
	at   int64
	fn   EventFunc
	a, b any
	i    int64
}

// overEvent is a heap entry: an event plus the insertion order that breaks
// same-cycle ties deterministically.
type overEvent struct {
	event
	seq uint64
}

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     int64
	seq     uint64
	pending int
	wheel   [wheelSize][]event
	occ     [wheelSize / 64]uint64 // bitmap of non-empty wheel slots
	spare   [][]event              // drained slot buffers (len 0), reused LIFO
	over    overflowHeap
	cal     calHeap // canonical calendar, drained before each cycle's wheel
	stopped bool
}

// NewEngine returns an engine positioned at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time in cycles.
func (e *Engine) Now() int64 { return e.now }

// Reset returns the engine to its just-built state: every pending event is
// dropped (wheel slots, occupancy bitmap and overflow heap cleared) and the
// clock rewinds to cycle 0. The run lifecycle uses it to make a reused
// engine indistinguishable from a fresh one; callers must re-arm any
// self-sustaining event chains (pollers, watchdogs) afterwards. Slot and
// heap backing arrays are kept, so a reset engine re-runs without
// re-growing them: occupied slots hand theirs to the spare stack, cleared.
func (e *Engine) Reset() {
	if e.pending > 0 {
		for slot := range e.wheel {
			evs := e.wheel[slot]
			if cap(evs) == 0 {
				continue
			}
			for i := range evs {
				evs[i] = event{}
			}
			e.spare = append(e.spare, evs[:0])
			e.wheel[slot] = nil
		}
		for i := range e.over {
			e.over[i] = overEvent{}
		}
		e.over = e.over[:0]
		for i := range e.cal {
			e.cal[i] = calEvent{}
		}
		e.cal = e.cal[:0]
	}
	e.occ = [wheelSize / 64]uint64{}
	e.pending = 0
	e.seq = 0
	e.now = 0
	e.stopped = false
}

// Pending reports the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return e.pending }

// Post runs fn(a, b, i) after delay cycles (delay >= 0). A delay of zero
// runs the event later in the current cycle, after all previously scheduled
// work for this cycle. Post is the allocation-free scheduling path: fn
// should be a static function and a/b pointer-shaped values.
func (e *Engine) Post(delay int64, fn EventFunc, a, b any, i int64) {
	if delay < 0 {
		delay = 0
	}
	at := e.now + delay
	e.pending++
	if delay < wheelSize {
		e.push(int(at&(wheelSize-1)), event{at: at, fn: fn, a: a, b: b, i: i})
		return
	}
	e.seq++
	e.over.push(overEvent{event: event{at: at, fn: fn, a: a, b: b, i: i}, seq: e.seq})
}

// push appends ev to a wheel slot. A slot without a buffer first takes the
// most recently drained spare, so buffers circulate among the few slots
// occupied at once instead of each of the wheelSize slots keeping its own.
func (e *Engine) push(slot int, ev event) {
	evs := e.wheel[slot]
	if cap(evs) == 0 {
		if n := len(e.spare) - 1; n >= 0 {
			evs = e.spare[n]
			e.spare[n] = nil
			e.spare = e.spare[:n]
		}
		e.occ[slot>>6] |= 1 << uint(slot&63)
	}
	e.wheel[slot] = append(evs, ev)
}

// runClosure is the trampoline behind Schedule.
func runClosure(a, _ any, _ int64) { a.(func())() }

// Schedule runs fn after delay cycles (delay >= 0). A delay of zero runs fn
// later in the current cycle, after all previously scheduled work for this
// cycle. Storing fn allocates nothing beyond what the caller already paid
// to build the func value.
func (e *Engine) Schedule(delay int64, fn func()) {
	e.Post(delay, runClosure, fn, nil, 0)
}

// At runs fn at the absolute cycle t (t >= Now()).
func (e *Engine) At(t int64, fn func()) {
	e.Schedule(t-e.now, fn)
}

// Stop makes Run return after the currently executing event.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the given cycle (inclusive) or until no events
// remain or Stop is called. It returns the cycle at which it stopped.
//
// Cycles with no due events are skipped in O(1) per wheel word rather than
// visited one at a time, so lightly loaded phases (DRAM waits, network
// hops) cost nothing.
func (e *Engine) Run(until int64) int64 {
	e.stopped = false
	for e.now <= until && e.pending > 0 && !e.stopped {
		// Canonical calendar entries run first, in (src, seq) order: their
		// position in the cycle must depend only on their keys, never on
		// the order the wheel's append history would impose.
		if !e.drainCalendar() {
			return e.now
		}
		slot := int(e.now & (wheelSize - 1))
		evs := e.wheel[slot]
		if len(evs) > 0 {
			// Execute due events, compacting events that belong to a future
			// lap of the wheel in place so the backing array is reused.
			i, w := 0, 0
			for i < len(evs) {
				ev := evs[i]
				i++
				if ev.at != e.now {
					evs[w] = ev
					w++
					continue
				}
				e.pending--
				ev.fn(ev.a, ev.b, ev.i)
				if e.stopped {
					// Preserve the untouched remainder in place.
					evs = e.wheel[slot]
					w += copy(evs[w:], evs[i:])
					break
				}
				// fn may have appended to this slot (and grown the backing
				// array); refresh.
				evs = e.wheel[slot]
			}
			// A slot that drained empty gives its buffer to the spare
			// stack, where the next empty slot to receive an event picks
			// it up. The executed records are NOT zeroed: the buffer is
			// overwritten by that next slot's appends, usually within a
			// few cycles, and the per-cycle memclr of executed events was
			// a measurable cost at cluster scale (64 nodes sharing one
			// wheel). Executed events may pin their (pooled, recycled)
			// arguments until the buffer is refilled — bounded staleness,
			// no correctness effect.
			if w == 0 {
				e.spare = append(e.spare, evs[:0])
				e.wheel[slot] = nil
				e.occ[slot>>6] &^= 1 << uint(slot&63)
			} else {
				e.wheel[slot] = evs[:w]
			}
			if e.stopped {
				return e.now
			}
		}
		// Drain overflow events that are due now (long delays can land on
		// the current cycle once the wheel catches up).
		for len(e.over) > 0 && e.over[0].at == e.now {
			ev := e.over.pop()
			e.pending--
			ev.fn(ev.a, ev.b, ev.i)
			if e.stopped {
				return e.now
			}
		}
		if e.pending == 0 {
			break
		}
		// Advance to the next cycle that can have work: the nearest
		// occupied wheel slot or the overflow head, whichever is sooner.
		next := e.now + e.nextOccupiedDelta()
		if len(e.over) > 0 && e.over[0].at < next {
			next = e.over[0].at
		}
		if len(e.cal) > 0 && e.cal[0].at < next {
			next = e.cal[0].at
		}
		if next > until {
			e.now = until + 1
			break
		}
		e.now = next
		// Re-home overflow events that are now within the wheel horizon.
		for len(e.over) > 0 && e.over[0].at-e.now < wheelSize {
			ev := e.over.pop()
			e.push(int(ev.at&(wheelSize-1)), ev.event)
		}
	}
	return e.now
}

// nextOccupiedDelta returns the distance (1..wheelSize) to the next
// occupied wheel slot, or a value past the wheel horizon when the wheel is
// empty.
func (e *Engine) nextOccupiedDelta() int64 {
	start := int((e.now + 1) & (wheelSize - 1))
	wi := start >> 6
	// First word: mask off slots at distance < 1.
	if w := e.occ[wi] >> uint(start&63); w != 0 {
		return int64(bits.TrailingZeros64(w)) + 1
	}
	const words = wheelSize / 64
	for k := 1; k <= words; k++ {
		j := (wi + k) & (words - 1)
		if w := e.occ[j]; w != 0 {
			// Circular distance from the start slot to the found slot.
			d := int64(j<<6+bits.TrailingZeros64(w)) - int64(start)
			if d <= 0 {
				d += wheelSize
			}
			return d + 1
		}
	}
	// Empty wheel: any jump larger than the horizon works; the caller caps
	// it with the overflow head and the run limit.
	return wheelSize + 1
}

// RunAll executes events until none remain (or Stop is called).
func (e *Engine) RunAll() int64 {
	return e.Run(1<<62 - 1)
}

// overflowHeap is a hand-rolled binary min-heap of events ordered by
// (at, seq). container/heap would box every event in an interface; this
// keeps the records by value.
type overflowHeap []overEvent

func (h overflowHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *overflowHeap) push(ev overEvent) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *overflowHeap) pop() overEvent {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = overEvent{} // release references
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < n && s.less(l, sm) {
			sm = l
		}
		if r < n && s.less(r, sm) {
			sm = r
		}
		if sm == i {
			break
		}
		s[i], s[sm] = s[sm], s[i]
		i = sm
	}
	return top
}
