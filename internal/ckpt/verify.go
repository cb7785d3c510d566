package ckpt

import (
	"fmt"

	"bulk/internal/mem"
	"bulk/internal/trace"
)

// Verify replays the commit log serially and compares the final memory —
// the same oracle as the TM runtime: speculation (and its inexact
// signature-based rollbacks) must never change architectural results.
//
//bulklint:purehook
func Verify(w *Workload, r *Result) error {
	ref := mem.NewMemory()
	execs := make([]*trace.Executor, len(w.Procs))
	for i := range execs {
		execs[i] = &trace.Executor{ThreadID: i}
	}
	seen := map[[3]int]int{}

	for _, u := range r.Log {
		if u.Proc < 0 || u.Proc >= len(w.Procs) {
			return fmt.Errorf("ckpt: log unit with bad proc %d", u.Proc)
		}
		units := w.Procs[u.Proc].Units
		if u.Unit < 0 || u.Unit >= len(units) {
			return fmt.Errorf("ckpt: log unit with bad unit %d", u.Unit)
		}
		unit := units[u.Unit]
		e := execs[u.Proc]
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
			seen[[3]int{u.Proc, u.Unit, u.Op}]++
			continue
		}
		// A whole episode, replayed atomically: the long load first, then
		// the ops.
		ep := unit.Episode
		if ep == nil {
			return fmt.Errorf("ckpt: episode unit %+v has no episode", u)
		}
		seen[[3]int{u.Proc, u.Unit, -1}]++
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
			if unit.Episode != nil {
				if n := seen[[3]int{pi, ui, -1}]; n != 1 {
					return fmt.Errorf("ckpt: episode proc=%d unit=%d committed %d times", pi, ui, n)
				}
				continue
			}
			for oi, op := range unit.Plain {
				if op.Kind == trace.Read {
					continue
				}
				if n := seen[[3]int{pi, ui, oi}]; n != 1 {
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
