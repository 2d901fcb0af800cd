// Package core implements the paper's primary contribution: the soNUMA
// Remote Memory Controller (RMC) and its three manycore placements —
// NIedge, NIper-tile and NIsplit (§3, §4).
//
// The RMC consists of three independent pipelines (§4.1):
//
//   - RGP, the Request Generation Pipeline: polls the Work Queues (WQs),
//     unrolls multi-block requests into cache-block-sized transfers, and
//     injects request packets into the network router.
//   - RCP, the Request Completion Pipeline: receives response packets,
//     stores remote data into local memory, and notifies the application
//     through the Completion Queue (CQ) when a request's last block lands.
//   - RRPP, the Remote Request Processing Pipeline: services incoming
//     remote requests against local memory.
//
// The RGP and RCP are each split into a frontend (QP interaction) and a
// backend (data handling). In NIedge and NIper-tile the two halves are
// connected by a pipeline latch; in NIsplit the Frontend-Backend Interface
// is a NOC packet (§4.2), which is what lets the frontends sit next to the
// cores while the backends scale across the chip's edge.
package core

import (
	"fmt"

	"rackni/internal/config"
)

// Op is the one-sided operation type of a WQ entry.
type Op uint8

const (
	// OpRead is a one-sided remote read.
	OpRead Op = iota
	// OpWrite is a one-sided remote write.
	OpWrite
)

func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// Times collects the per-request timestamps used to reproduce the latency
// tomography of Tables 1 and 3.
type Times struct {
	IssueStart int64 // core starts building the WQ entry
	WQWritten  int64 // the WQ store is globally visible
	WQSeen     int64 // the RGP frontend has read the entry
	Dispatched int64 // the RGP backend holds the entry (post Frontend-Backend Interface)
	Injected   int64 // first request packet handed to the network router
	RespFirst  int64 // first response packet back on chip
	DataDone   int64 // last payload block written to local memory
	CQWritten  int64 // CQ entry visible to the core
	Done       int64 // core consumed the completion
}

// Request is one application-level one-sided operation, possibly spanning
// many cache blocks.
type Request struct {
	ID         uint64
	Core       int
	Op         Op
	RemoteAddr uint64
	LocalAddr  uint64
	Size       int
	Tag        uint64 // application-chosen identifier, echoed at completion

	// Failed marks a request whose transfer was abandoned after exhausting
	// its retry budget (or NACKed by the fabric with retries disabled). A
	// failed request still completes through the CQ so the application can
	// observe the failure instead of waiting forever.
	Failed bool

	T Times

	blocksLeft int
	wqSlot     int
}

// Blocks returns the number of cache-block transfers the request unrolls
// into.
func (r *Request) Blocks(blockBytes int) int {
	n := r.Size / blockBytes
	if r.Size%blockBytes != 0 || n == 0 {
		n++
	}
	return n
}

// WQEntry is the logical content of a Work Queue slot. Its on-chip
// visibility is governed by the simulated coherence protocol: the producer
// publishes it when its store completes, the RGP frontend observes it when
// its coherent read of the containing block completes.
type WQEntry struct {
	Valid bool
	Req   *Request
}

// CQEntry is the logical content of a Completion Queue slot.
type CQEntry struct {
	Valid bool
	Req   *Request
}

// QueuePair is one core's WQ/CQ pair: the in-memory control structures
// through which cores and the RMC communicate (§2.2). Entries are logical
// records; the queue's memory footprint (entry sizes, blocks spanned) is
// what the coherence protocol sees.
type QueuePair struct {
	CoreID int
	WQBase uint64
	CQBase uint64

	cfg        *config.Config
	wq         []WQEntry
	cq         []CQEntry
	wqHead     int // producer (core)
	wqTail     int // consumer (RGP frontend)
	cqHead     int // producer (RCP frontend)
	cqTail     int // consumer (core)
	inFlight   int
	window     int // in-flight credit cap (≤ WQ depth)
	everQueued uint64

	// wqBuf/cqBuf back the slices PopWQ/PopCQ return, reused across calls;
	// each consumer finishes with a batch before polling again.
	wqBuf []*Request
	cqBuf []*Request
}

// NewQueuePair builds a QP with the configured WQ/CQ geometry at the given
// base addresses.
func NewQueuePair(cfg *config.Config, coreID int, wqBase, cqBase uint64) *QueuePair {
	window := cfg.WQEntries
	if cfg.QPWindow > 0 && cfg.QPWindow < window {
		window = cfg.QPWindow
	}
	return &QueuePair{
		CoreID: coreID,
		WQBase: wqBase,
		CQBase: cqBase,
		cfg:    cfg,
		wq:     make([]WQEntry, cfg.WQEntries),
		cq:     make([]CQEntry, cfg.WQEntries),
		window: window,
	}
}

// WQSlotAddr returns the byte address of a WQ slot.
func (q *QueuePair) WQSlotAddr(i int) uint64 {
	return q.WQBase + uint64(i)*uint64(q.cfg.WQEntryB)
}

// CQSlotAddr returns the byte address of a CQ slot.
func (q *QueuePair) CQSlotAddr(i int) uint64 {
	return q.CQBase + uint64(i)*uint64(q.cfg.CQEntryB)
}

// WQHeadAddr is the address the producer will store to next.
func (q *QueuePair) WQHeadAddr() uint64 { return q.WQSlotAddr(q.wqHead) }

// WQTailAddr is the address the RGP frontend polls.
func (q *QueuePair) WQTailAddr() uint64 { return q.WQSlotAddr(q.wqTail) }

// CQTailAddr is the address the core polls for completions.
func (q *QueuePair) CQTailAddr() uint64 { return q.CQSlotAddr(q.cqTail) }

// Full reports whether the QP can admit no further request: either the WQ
// has no free slot (128 outstanding, §5) or the configured credit window
// (Config.QPWindow) is exhausted. Issuers check Full before PushWQ, so the
// window is admission control at the issue boundary.
func (q *QueuePair) Full() bool { return q.inFlight >= q.window }

// Window returns the QP's in-flight credit cap (the WQ depth when no
// tighter window is configured).
func (q *QueuePair) Window() int { return q.window }

// InFlight returns the number of requests issued but not yet consumed from
// the CQ.
func (q *QueuePair) InFlight() int { return q.inFlight }

// PushWQ publishes a new WQ entry; call when the producing store completes.
func (q *QueuePair) PushWQ(r *Request) {
	if q.Full() {
		panic(fmt.Sprintf("qp %d: WQ overflow", q.CoreID))
	}
	r.wqSlot = q.wqHead
	q.wq[q.wqHead] = WQEntry{Valid: true, Req: r}
	q.wqHead = (q.wqHead + 1) % len(q.wq)
	q.inFlight++
	q.everQueued++
}

// WQBlockHasNew reports whether the block containing the consumer tail has
// an unconsumed valid entry (what a frontend's coherent read of the tail
// block can observe).
func (q *QueuePair) WQBlockHasNew() bool {
	return q.wq[q.wqTail].Valid
}

// PopWQ consumes entries visible in the block the frontend just read; it
// returns the consumed requests (possibly several per block, one of the
// NIedge small-transfer effects of §6.2).
func (q *QueuePair) PopWQ() []*Request {
	// Head meeting tail means no valid entry unless the ring is full, and
	// it cannot be full with fewer requests in flight than slots. Idle QPs
	// poll without pause, so answering from these counters spares a cache
	// miss on the entry array per poll.
	if q.wqHead == q.wqTail && q.inFlight < len(q.wq) {
		return q.wqBuf[:0]
	}
	blk := q.WQTailAddr() &^ uint64(q.cfg.BlockBytes-1)
	out := q.wqBuf[:0]
	for q.wq[q.wqTail].Valid {
		slotBlk := q.WQSlotAddr(q.wqTail) &^ uint64(q.cfg.BlockBytes-1)
		if slotBlk != blk {
			break // next block: requires another coherent read
		}
		e := q.wq[q.wqTail]
		q.wq[q.wqTail] = WQEntry{}
		out = append(out, e.Req)
		q.wqTail = (q.wqTail + 1) % len(q.wq)
	}
	q.wqBuf = out
	return out
}

// PushCQ publishes a completion; call when the RCP frontend's CQ store
// completes.
func (q *QueuePair) PushCQ(r *Request) {
	q.PushCQAt(q.ReserveCQ(), r)
}

// ReserveCQ allocates the next CQ slot for an in-flight completion store,
// so concurrent completions do not collide on the head pointer.
func (q *QueuePair) ReserveCQ() int {
	s := q.cqHead
	q.cqHead = (q.cqHead + 1) % len(q.cq)
	return s
}

// PushCQAt publishes a completion into a previously reserved slot.
func (q *QueuePair) PushCQAt(slot int, r *Request) {
	q.cq[slot] = CQEntry{Valid: true, Req: r}
}

// PopCQ consumes completions visible in the block the core just read.
func (q *QueuePair) PopCQ() []*Request {
	blk := q.CQTailAddr() &^ uint64(q.cfg.BlockBytes-1)
	out := q.cqBuf[:0]
	for q.cq[q.cqTail].Valid {
		slotBlk := q.CQSlotAddr(q.cqTail) &^ uint64(q.cfg.BlockBytes-1)
		if slotBlk != blk {
			break
		}
		e := q.cq[q.cqTail]
		q.cq[q.cqTail] = CQEntry{}
		out = append(out, e.Req)
		q.cqTail = (q.cqTail + 1) % len(q.cq)
		q.inFlight--
	}
	q.cqBuf = out
	return out
}

// EverQueued returns the total number of requests ever enqueued (tests).
func (q *QueuePair) EverQueued() uint64 { return q.everQueued }

// Reset returns the queue pair to its just-built emptiness: all entries
// dropped (in-flight requests are abandoned — their pipeline events are
// cleared with the engine by the run lifecycle that calls this), head and
// tail pointers rewound, the in-flight count zeroed.
func (q *QueuePair) Reset() {
	for i := range q.wq {
		q.wq[i] = WQEntry{}
	}
	for i := range q.cq {
		q.cq[i] = CQEntry{}
	}
	q.wqHead, q.wqTail, q.cqHead, q.cqTail = 0, 0, 0, 0
	q.inFlight = 0
	q.everQueued = 0
}
