package ckpt

import (
	"fmt"
	"slices"

	"bulk/internal/mem"
	"bulk/internal/trace"
)

// Verify replays the commit log serially and compares the final memory —
// the same oracle as the TM runtime: speculation (and its inexact
// signature-based rollbacks) must never change architectural results.
func Verify(w *Workload, r *Result) error {
	return new(oracle).check(w, r)
}

// oracle is Verify's serial replay with storage it keeps: a System judges
// every run through its own, so the reference memory and coverage counts
// are emptied, not rebuilt, per run.
type oracle struct {
	ref   mem.Memory
	execs []trace.Executor
	// first[p] indexes processor p's first unit in slot, and slot[i] is
	// that unit's first entry in count: one entry for an episode (its
	// commits), one per op of a plain unit (the times the op was logged).
	first, slot, count []int
}

// check is Verify on the oracle's storage. It empties the storage first,
// so it reads nothing a previous check left.
//
//bulklint:purehook
func (o *oracle) check(w *Workload, r *Result) error {
	ref := &o.ref
	ref.Reset()
	o.execs, o.first, o.slot = o.execs[:0], o.first[:0], o.slot[:0]
	n := 0
	for i, ps := range w.Procs {
		o.execs = append(o.execs, trace.Executor{ThreadID: i})
		o.first = append(o.first, len(o.slot))
		for _, unit := range ps.Units {
			o.slot = append(o.slot, n)
			if unit.Episode != nil {
				n++
			} else {
				n += len(unit.Plain)
			}
		}
	}
	o.count = slices.Grow(o.count[:0], n)[:n]
	clear(o.count)

	for _, u := range r.Log {
		if u.Proc < 0 || u.Proc >= len(w.Procs) {
			return fmt.Errorf("ckpt: log unit with bad proc %d", u.Proc)
		}
		units := w.Procs[u.Proc].Units
		if u.Unit < 0 || u.Unit >= len(units) {
			return fmt.Errorf("ckpt: log unit with bad unit %d", u.Unit)
		}
		unit := units[u.Unit]
		e := &o.execs[u.Proc]
		at := o.slot[o.first[u.Proc]+u.Unit]
		if u.Op >= 0 {
			// A single plain write.
			if unit.Episode != nil || u.Op >= len(unit.Plain) {
				return fmt.Errorf("ckpt: bad plain-write unit %+v", u)
			}
			op := unit.Plain[u.Op]
			if op.Kind == trace.Read {
				return fmt.Errorf("ckpt: logged plain unit %+v is a read", u)
			}
			ref.Write(op.Addr, mem.Word(e.WriteValue(opIndexFor(u.Unit, u.Op), op)))
			o.count[at+u.Op]++
			continue
		}
		// A whole episode, replayed atomically: the long load first, then
		// the ops.
		ep := unit.Episode
		if ep == nil {
			return fmt.Errorf("ckpt: episode unit %+v has no episode", u)
		}
		o.count[at]++
		e.SetLastRead(uint64(ref.Read(ep.MissAddr)))
		for i, op := range ep.Ops {
			e.Step(opIndexFor(u.Unit, i), op,
				func(a uint64) uint64 { return uint64(ref.Read(a)) },
				func(a, v uint64) { ref.Write(a, mem.Word(v)) })
		}
	}

	// Coverage: every episode exactly once; every plain write exactly once.
	for pi, ps := range w.Procs {
		for ui, unit := range ps.Units {
			at := o.slot[o.first[pi]+ui]
			if unit.Episode != nil {
				if n := o.count[at]; n != 1 {
					return fmt.Errorf("ckpt: episode proc=%d unit=%d committed %d times", pi, ui, n)
				}
				continue
			}
			for oi, op := range unit.Plain {
				if op.Kind == trace.Read {
					continue
				}
				if n := o.count[at+oi]; n != 1 {
					return fmt.Errorf("ckpt: plain write proc=%d unit=%d op=%d logged %d times", pi, ui, oi, n)
				}
			}
		}
	}

	if !ref.Equal(r.Memory) {
		return fmt.Errorf("ckpt: final memory differs from serial replay at words %v",
			ref.Diff(r.Memory, 5))
	}
	return nil
}
