package tm

import (
	"fmt"
	"slices"

	"bulk/internal/mem"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// Verify checks a run's end-to-end correctness: the committed units,
// replayed serially in the logged commit order, must produce exactly the
// final memory the concurrent run produced. This is the conflict-
// serializability guarantee every scheme (including inexact Bulk) must
// provide — "inexact but correct".
//
// It also checks coverage: every transaction commits exactly once and every
// non-transactional write appears exactly once.
func Verify(w *workload.TMWorkload, r *Result) error {
	return new(oracle).check(w, r)
}

// oracle is Verify's serial replay with storage it keeps: a System judges
// every run through its own, so the reference memory and coverage counts
// are emptied, not rebuilt, per run.
type oracle struct {
	ref   mem.Memory
	execs []trace.Executor
	// first[t] indexes thread t's first segment in slot, and slot[i] is
	// that segment's first entry in count: one entry for a transaction
	// (its commits), one per op otherwise (the times the op was logged).
	first, slot, count []int
}

// check is Verify on the oracle's storage. It empties the storage first,
// so it reads nothing a previous check left.
//
//bulklint:purehook
func (o *oracle) check(w *workload.TMWorkload, r *Result) error {
	if r.Stats.LivelockDetected {
		return fmt.Errorf("tm: run aborted by livelock; nothing to verify")
	}
	ref := &o.ref
	ref.Reset()
	o.execs, o.first, o.slot = o.execs[:0], o.first[:0], o.slot[:0]
	n := 0
	for i, th := range w.Threads {
		o.execs = append(o.execs, trace.Executor{ThreadID: i})
		o.first = append(o.first, len(o.slot))
		for _, seg := range th.Segments {
			o.slot = append(o.slot, n)
			if seg.Txn {
				n++
			} else {
				n += len(seg.Ops)
			}
		}
	}
	o.count = slices.Grow(o.count[:0], n)[:n]
	clear(o.count)

	for _, u := range r.Log {
		if u.Thread < 0 || u.Thread >= len(w.Threads) {
			return fmt.Errorf("tm: log unit has bad thread %d", u.Thread)
		}
		segs := w.Threads[u.Thread].Segments
		if u.Segment < 0 || u.Segment >= len(segs) {
			return fmt.Errorf("tm: log unit has bad segment %d", u.Segment)
		}
		seg := segs[u.Segment]
		e := &o.execs[u.Thread]
		at := o.slot[o.first[u.Thread]+u.Segment]
		if seg.Txn {
			if u.OpLo != 0 || u.OpHi != len(seg.Ops) {
				return fmt.Errorf("tm: transactional unit %v does not span its segment", u)
			}
			o.count[at]++
			e.Reset() // matches beginTxn
		} else {
			if u.OpHi != u.OpLo+1 {
				return fmt.Errorf("tm: non-transactional unit %v must be a single op", u)
			}
			if u.OpLo < 0 || u.OpLo >= len(seg.Ops) {
				return fmt.Errorf("tm: non-transactional unit %v names no op of its segment", u)
			}
			if seg.Ops[u.OpLo].Kind == trace.Read {
				return fmt.Errorf("tm: logged non-transactional unit %v is a read", u)
			}
			o.count[at+u.OpLo]++
		}
		for i := u.OpLo; i < u.OpHi; i++ {
			e.Step(i, seg.Ops[i],
				func(a uint64) uint64 { return uint64(ref.Read(a)) },
				func(a, v uint64) { ref.Write(a, mem.Word(v)) })
		}
	}

	// Coverage.
	for ti, th := range w.Threads {
		for si, seg := range th.Segments {
			at := o.slot[o.first[ti]+si]
			if seg.Txn {
				if n := o.count[at]; n != 1 {
					return fmt.Errorf("tm: transaction thread=%d seg=%d committed %d times, want 1", ti, si, n)
				}
				continue
			}
			for oi, op := range seg.Ops {
				if op.Kind == trace.Read {
					continue
				}
				if n := o.count[at+oi]; n != 1 {
					return fmt.Errorf("tm: non-txn write thread=%d seg=%d op=%d logged %d times, want 1", ti, si, oi, n)
				}
			}
		}
	}

	if !ref.Equal(r.Memory) {
		diffs := ref.Diff(r.Memory, 5)
		return fmt.Errorf("tm: final memory differs from serial replay at words %v "+
			"(run=%d words, replay=%d words) — serializability violated",
			diffs, r.Memory.Len(), ref.Len())
	}
	return nil
}
